"""scipy and concurrent.futures stay off the runtime import path.

The repairs, estimate and band commands import numpy only; true_cqf, which
table 2 of simulate needs, is the one place that loads scipy.special.
simulate runs its replications serially and loads no concurrent.futures.
Each check runs in a fresh interpreter, since this test process has
imported scipy for its oracles.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_simulate_table_2_loads_scipy_special_only(tmp_path):
    config = {"reps": 1, "grid": 8, "taus": [0.25, 0.5, 0.75],
              "estimators": [{"method": "kernel", "bandwidth": 3.0}]}
    (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
    code = """
from monotonize.cli import main
assert main(["simulate", "--config", "c.json", "--table", "2", "--out", "t.csv"]) == 0
"""
    loaded = _modules_after(code, tmp_path)
    assert "scipy.special" in loaded
    assert not any(m.startswith(("scipy.stats", "scipy.interpolate")) for m in loaded)


def test_import_and_simulate_table_1_load_no_concurrent_futures(tmp_path):
    config = {"reps": 3, "grid": 8, "estimators": [{"method": "kernel", "bandwidth": 3.0}]}
    (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
    code = """
import monotonize
from monotonize.cli import main
assert main(["simulate", "--config", "c.json", "--table", "1", "--out", "t.csv"]) == 0
"""
    assert _modules_after(code, tmp_path, "concurrent") == set()
