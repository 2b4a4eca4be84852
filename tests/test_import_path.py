"""Each command loads only the modules it runs.

`import monotonize` loads the repair core (errors, grid, rearrange,
isotonic) and numpy; the names of bands, estimators and montecarlo resolve
on first access to the same objects as in their modules.  `python -m
monotonize` with rearrange, isotonize or band loads neither estimators nor
montecarlo, and estimate loads montecarlo only for a --taus process.
scipy, concurrent.futures and numpy.ma stay off the runtime import path:
every command imports numpy only, and the repairs, estimate and band not its
numpy.ma; table 2 of simulate, whose true quantile surface needs the normal
quantile function, loads no scipy and runs where scipy cannot be imported.
simulate runs its replications serially and loads no concurrent.futures.
Each check runs in a fresh interpreter, since this test process has
imported scipy for its oracles and every module of the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monotonize

SRC = str(Path(monotonize.__file__).resolve().parents[1])


def _modules_after(code: str, cwd: Path, prefix: str = "scipy") -> set:
    """Run code in a new interpreter; the modules under prefix it left loaded."""
    listing = f"sorted(m for m in sys.modules if m.startswith({prefix!r}))"
    code += f"\nimport json, sys\nprint(json.dumps({listing}))\n"
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_rearrange_and_bspline_estimate_load_no_scipy(tmp_path):
    (tmp_path / "f.csv").write_text("x1,value\n0,3\n1,1\n2,2\n", encoding="utf-8")
    rows = "".join(f"{x},{(x - 10) ** 2 / 10 + x % 3}\n" for x in range(2, 21))
    (tmp_path / "d.csv").write_text("x,y\n" + rows, encoding="utf-8")
    code = """
import monotonize
from monotonize.cli import main
assert main(["rearrange", "--input", "f.csv", "--out", "r.csv"]) == 0
for loss in (["--loss", "mean"], ["--loss", "quantile", "--tau", "0.3"]):
    assert main(["estimate", "--data", "d.csv", "--method", "bspline", "--knots", "8,14",
                 "--grid", "9", "--out", "e.csv", *loss]) == 0
"""
    assert _modules_after(code, tmp_path) == set()


def test_simulate_table_2_loads_no_scipy(tmp_path):
    config = {"reps": 1, "grid": 8, "taus": [0.25, 0.5, 0.75],
              "estimators": [{"method": "kernel", "bandwidth": 3.0}]}
    (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
    code = """
from monotonize.cli import main
assert main(["simulate", "--config", "c.json", "--table", "2", "--out", {out!r}]) == 0
"""
    assert _modules_after(code.format(out="t.csv"), tmp_path) == set()
    # a None entry in sys.modules makes every import of scipy raise ImportError
    blocked = 'import sys\nsys.modules["scipy"] = None\n' + code.format(out="u.csv")
    _modules_after(blocked, tmp_path, "monotonize")
    assert (tmp_path / "u.csv").read_bytes() == (tmp_path / "t.csv").read_bytes()


def test_import_and_simulate_table_1_load_no_concurrent_futures(tmp_path):
    config = {"reps": 3, "grid": 8, "estimators": [{"method": "kernel", "bandwidth": 3.0}]}
    (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
    code = """
import monotonize
from monotonize.cli import main
assert main(["simulate", "--config", "c.json", "--table", "1", "--out", "t.csv"]) == 0
"""
    assert _modules_after(code, tmp_path, "concurrent") == set()


def test_repairs_bands_and_quantile_estimates_load_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma; the CLI sorts instead
    (tmp_path / "f.csv").write_text("x1,value\n0,3\n1,1\n2,2\n", encoding="utf-8")
    rows = "".join(f"{x},{(x - 10) ** 2 / 10 + x % 3}\n" for x in range(2, 21))
    (tmp_path / "d.csv").write_text("x,y\n" + rows, encoding="utf-8")
    code = """
from monotonize.cli import main
assert main(["rearrange", "--input", "f.csv", "--out", "r.csv"]) == 0
assert main(["isotonize", "--input", "f.csv", "--out", "i.csv"]) == 0
assert main(["estimate", "--data", "d.csv", "--method", "loclinear", "--bandwidth", "3",
             "--grid", "9", "--loss", "quantile", "--tau", "0.3", "--out", "q.csv"]) == 0
assert main(["estimate", "--data", "d.csv", "--method", "kernel", "--bandwidth", "3",
             "--grid", "9", "--bootstrap", "20", "--out", "e.csv", "--stderr-out", "s.csv",
             "--draws-out", "b.csv"]) == 0
assert main(["band", "--center", "e.csv", "--stderr", "s.csv", "--draws", "b.csv",
             "--out", "band.csv"]) == 0
"""
    # the prefix also matches numpy.matrixlib, which numpy itself loads
    assert "numpy.ma" not in _modules_after(code, tmp_path, "numpy.ma")


def _command(argv) -> str:
    """Code that runs `python -m monotonize argv` and requires exit status 0."""
    return f"""
import runpy, sys
sys.argv = ["monotonize", *{argv!r}]
try:
    runpy.run_module("monotonize", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["rearrange", "--input", "f.csv", "--out", "r.csv"],
        ["isotonize", "--input", "f.csv", "--orderings", "all", "--out", "i.csv"],
        ["band", "--center", "f.csv", "--stderr", "s.csv", "--draws", "b.csv", "--out", "o.csv"],
    ],
    ids=lambda argv: argv[0],
)
def test_repair_commands_load_neither_estimators_nor_montecarlo(tmp_path, argv):
    (tmp_path / "f.csv").write_text("x1,value\n0,3\n1,1\n2,2\n", encoding="utf-8")
    (tmp_path / "s.csv").write_text("x1,value\n0,1\n1,1\n2,1\n", encoding="utf-8")
    draws = "".join(f"{b},{x},{b + x}\n" for b in range(4) for x in range(3))
    (tmp_path / "b.csv").write_text("draw,x1,value\n" + draws, encoding="utf-8")
    loaded = _modules_after(_command(argv), tmp_path, "monotonize")
    assert {"monotonize.csvio", "monotonize.isotonic"} <= loaded
    assert not loaded & {"monotonize.estimators", "monotonize.montecarlo"}


@pytest.mark.parametrize("loss", [["--loss", "mean"], ["--loss", "quantile", "--tau", "0.3"]])
def test_estimate_loads_no_montecarlo(tmp_path, loss):
    rows = "".join(f"{x},{(x - 10) ** 2 / 10 + x % 3}\n" for x in range(2, 21))
    (tmp_path / "d.csv").write_text("x,y\n" + rows, encoding="utf-8")
    argv = ["estimate", "--data", "d.csv", "--method", "kernel", "--bandwidth", "3",
            "--grid", "9", "--bootstrap", "20", "--out", "e.csv", "--band-out", "b.csv", *loss]
    loaded = _modules_after(_command(argv), tmp_path, "monotonize")
    assert {"monotonize.estimators", "monotonize.bands"} <= loaded
    assert "monotonize.montecarlo" not in loaded


def test_package_names_resolve_to_their_modules_objects(tmp_path):
    code = """
import importlib, sys
import monotonize
core = {m for m in sys.modules if m.startswith("monotonize.")}
assert core == {f"monotonize.{m}" for m in ("errors", "grid", "rearrange", "isotonic")}, core
names = {}
exec("from monotonize import *", names)
assert set(monotonize.__all__) <= set(names) <= set(monotonize.__all__) | {"__builtins__"}
core |= {f"monotonize.{m}" for m in ("bands", "estimators", "montecarlo")}
for name in set(monotonize.__all__) - {"__version__"}:
    value = names[name]
    assert getattr(monotonize, name) is value, name
    home = getattr(value, "__module__", "")
    if home.startswith("monotonize."):
        assert getattr(sys.modules[home], name) is value, name
    assert any(getattr(importlib.import_module(m), name, None) is value for m in core), name
try:
    monotonize.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
"""
    assert _modules_after(code, tmp_path, "monotonize.") == {
        f"monotonize.{m}"
        for m in ("errors", "grid", "rearrange", "isotonic", "bands", "estimators", "montecarlo")
    }
