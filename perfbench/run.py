"""Benchmark of monotonize: Monte Carlo tables, CLI repair pipeline, traced layers.

    python3 perfbench/run.py --workload mc-means --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0 --save a.jsonl
    python3 perfbench/run.py --compare a.jsonl b.jsonl

A run repeats whole rounds of its workload's operations for about --seconds,
checks every output, and prints as its last line one JSON object with
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  Lines
before it give each operation's figures by name.  --save appends the run to
a JSON-lines file; --compare prints the medians of two such files side by
side.  The program is built from ../src; the benchmark imports nothing of it
outside that tree.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD_TIMEOUT_S = 120
SETUP_SAMPLES = 3
ALPHA = 0.1


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def median(values) -> float:
    return float(statistics.median(values))


class Run:
    """One run: its settings, work directory, operation counts and figures.

    Every timed operation is preceded by a yardstick, a fresh
    `python -c "import numpy"` that runs no monotonize code, and one more
    ends the run.  An operation's relative time is its wall time over the
    mean of the yardsticks just before and just after it; the host's speed
    drifts a great deal within seconds, and both sides of that ratio see
    the same drift.
    """

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = WORK / f"{workload}-{os.getpid()}"
        self.attempted = self.failed = 0
        self.times = {}  # operation -> its wall time in each round
        self.rel = {}  # operation -> its time relative to the yardstick, per round
        self.reps = {}  # operation -> replications it runs, for reps/s
        self.imports = []  # -X importtime figures of the set-up processes
        self.layers = []  # per-round per-layer sums (traced runs)
        self.tracer = None
        self.yardstick = []  # wall times of the yardstick process
        self._pending = None  # (operation, seconds, yardstick before it)

    def path(self, name: str) -> str:
        return str(self.work / name)

    def measure_yardstick(self) -> None:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                       timeout=CHILD_TIMEOUT_S, check=True)
        self.yardstick.append(time.perf_counter() - t0)
        if self._pending:
            op, seconds, before = self._pending
            yard = (before + self.yardstick[-1]) / 2.0
            self.rel.setdefault(op, []).append(seconds / yard)
            self._pending = None

    def timed(self, op: str, action):
        """Time action() right after a yardstick; return its result."""
        self.measure_yardstick()
        t0 = time.perf_counter()
        result = action()
        seconds = time.perf_counter() - t0
        self.times.setdefault(op, []).append(seconds)
        self._pending = (op, seconds, self.yardstick[-1])
        return result

    def figures(self) -> dict:
        """Median per-operation figures: reps/s for tables, seconds otherwise."""
        return {op: self.reps[op] / median(v) if op in self.reps else median(v)
                for op, v in self.times.items()}

    def round_s(self) -> float:
        """The sum of the operations' median wall times."""
        return sum(median(v) for v in self.times.values())

    def round_rel(self) -> float:
        """The sum of the operations' median relative times."""
        return sum(median(v) for v in self.rel.values())

    def rounds(self, one_round) -> None:
        """Whole rounds until the next one would end after --seconds."""
        start = time.perf_counter()
        took = []
        r = 0
        while True:
            t0 = time.perf_counter()
            one_round(r)
            took.append(time.perf_counter() - t0)
            r += 1
            if time.perf_counter() - start + median(took) > self.seconds:
                break
        self.measure_yardstick()


def setup_times(run: Run) -> list:
    """Wall times of fresh processes that import monotonize.

    Traced runs add -X importtime and keep its figures as well.
    """
    cmd = [sys.executable] + (["-X", "importtime"] if run.trace else [])
    cmd += ["-c", "import monotonize"]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=run.work)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        if run.trace:
            run.imports.append(spans.parse_importtime(proc.stderr))
    return times


# --- mc-means, mc-quantile -----------------------------------------------------

# (table, config) per operation; the round seed is added to each config
MC_PLANS = {
    "mc-means": [(1, {"reps": 100}), (3, {"reps": 2, "bootstrap_B": 100})],
    "mc-quantile": [(2, {"reps": 2})],
}
# x_design of 200 ages, denser at young ages, without n: the config parser
# keeps n at its default of 533, so the run exits 1 (see README.md).
OWN_DESIGN = {"reps": 4, "x_design": [2.0 + 18.0 * (i / 199) ** 2 for i in range(200)]}


def _simulate(run, cli, table, cfg, threads, tag, op=None):
    """One in-process `monotonize simulate`, timed as `op` if given.

    Returns the exit status and the report path.
    """
    cfg_path, out = run.path(f"{tag}.json"), run.path(f"{tag}.csv")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    argv = ["simulate", "--config", cfg_path, "--table", str(table), "--out", out]
    if threads:
        argv += ["--threads", str(threads)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        status = run.timed(op, lambda: cli.main(argv)) if op else cli.main(argv)
    if status != 0:
        print(f"simulate table {table} exited {status}: {sink.getvalue().strip()}",
              file=sys.stderr)
    return status, out


def run_mc(run: Run) -> float:
    sys.path.insert(0, str(SRC))
    from monotonize import cli

    plan = MC_PLANS[run.workload]
    if run.tracer:
        spans.install(run.tracer)
    # warm-up: every table once, small, serial and pooled; not counted
    for table, cfg in plan:
        small = dict(cfg, reps=2, seed=0, taus=[0.25, 0.75], bootstrap_B=10)
        for threads in (1, None):
            _simulate(run, cli, table, small, threads, "warm")
    if run.tracer:
        run.tracer.take()

    def one_round(r):
        seed = run.seed * 1000 + r
        for table, cfg in plan:
            cfg = dict(cfg, seed=seed)
            reports = []
            for mode, threads in (("serial", 1), ("pool", None)):
                if run.tracer:
                    run.tracer.phase = mode
                op = f"table{table}.reps_per_s.{mode}"
                run.reps[op] = cfg["reps"]
                status, out = _simulate(run, cli, table, cfg, threads, f"t{table}-{mode}", op)
                run.attempted += 1
                oracles.require(status == 0, f"simulate table {table} ({mode}) exited {status}")
                oracles.check_report(out, table, ALPHA)
                with open(out, "rb") as fh:
                    reports.append(fh.read())
            oracles.require(reports[0] == reports[1],
                            f"table {table}: serial and pooled reports differ")
        if run.workload == "mc-means":
            if run.tracer:
                run.tracer.phase = "serial"
            status, out = _simulate(run, cli, 1, OWN_DESIGN, 1, "own-design", "own_design_s")
            run.attempted += 1
            if status != 0:
                run.failed += 1
            else:
                oracles.check_report(out, 1, ALPHA)
        if run.tracer:
            run.layers.append(spans.layer_metrics(run.tracer.take(), run.tracer.main_thread))

    run.rounds(one_round)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- cli-repair ---------------------------------------------------------------

SURFACE_SHAPE = (199, 160)  # the paper's full tau net x regressor nodes
CUBE_SIDE = 24  # 24^3 nodes, all six orderings
BOOTSTRAP_B = 100


def cli_inputs(run: Run) -> dict:
    """Write the seeded inputs and compute every expected output once."""
    rng = np.random.default_rng(run.seed)
    taus = np.linspace(0.005, 0.995, SURFACE_SHAPE[0])
    ages = np.linspace(oracles.AGES[0], oracles.AGES[1], SURFACE_SHAPE[1])
    surface = oracles.true_quantile(taus, ages)
    # a fitted quantile surface: nearly monotone, crossing now and then
    noisy = surface + rng.normal(0.0, 0.02, surface.shape)
    oracles.write_grid(run.path("surface.csv"), [taus, ages], noisy)

    side = np.linspace(0.0, 1.0, CUBE_SIDE)
    cube = sum(np.meshgrid(side, side, side, indexing="ij"))
    rough = cube + rng.normal(0.0, 1.0, cube.shape)  # heavily violating
    oracles.write_grid(run.path("cube.csv"), [side] * 3, rough)

    x = np.linspace(oracles.AGES[0], oracles.AGES[1], 533)
    y = oracles.true_mean(x) + oracles.SIGMA * rng.standard_normal(x.size)
    oracles.write_dataset(run.path("data.csv"), x, y)

    tiny_axis = np.linspace(0.0, 1.0, 5)
    tiny = rng.normal(0.0, 1.0, 5)
    oracles.write_grid(run.path("tiny.csv"), [tiny_axis], tiny)

    rs, iso = oracles.rearrange_oracle(noisy), oracles.isotonize_oracle(noisy)
    r3, i3 = oracles.rearrange_oracle(rough), oracles.isotonize_oracle(rough)
    for name, v in (("surface", noisy), ("cube", rough)):
        print(f"input {name}: shape {v.shape}, violating adjacent pairs "
              f"{oracles.violating_share(v):.4f}")
    return {
        "surface": (noisy, surface, {"rearrange": rs, "isotonize": iso}),
        "cube": (rough, cube, 0.5 * r3 + 0.5 * i3),
        "tiny": (tiny, np.zeros(5), np.sort(tiny)),
        "truth_x": oracles.true_mean(np.linspace(x.min(), x.max(), 100)),
    }


def cli_commands(run: Run) -> list:
    """(figure name, argument lists run one after another) for one round."""
    p = run.path
    surface = ["--input", p("surface.csv")]
    return [
        ("cli.cold_start_s", [["rearrange", "--input", p("tiny.csv"), "--out", p("tiny-out.csv")]]),
        ("cli.rearrange_s", [["rearrange", *surface, "--out", p("rearrange.csv")]]),
        ("cli.isotonize_s", [["isotonize", *surface, "--out", p("isotonize.csv")]]),
        ("cli.blend_3d_s", [["isotonize", "--input", p("cube.csv"), "--orderings", "all",
                             "--lambda", "0.5", "--out", p("cube-out.csv")]]),
        ("cli.band_draws_s", [
            ["estimate", "--data", p("data.csv"), "--method", "kernel", "--bandwidth", "1.0",
             "--grid", "100", "--bootstrap", str(BOOTSTRAP_B), "--seed", str(run.seed),
             "--out", p("fit.csv"), "--stderr-out", p("se.csv"), "--draws-out", p("draws.csv")],
            ["band", "--center", p("fit.csv"), "--stderr", p("se.csv"), "--draws", p("draws.csv"),
             "--alpha", str(ALPHA), "--out", p("band.csv")],
        ]),
    ]


def check_cli_outputs(run: Run, expect: dict, band_stdout: str) -> None:
    p = run.path
    noisy, truth, oracle = expect["surface"]
    for name in ("rearrange", "isotonize"):
        oracles.check_repair(p(f"{name}.csv"), noisy, truth, oracle[name], f"2-d {name}")
    rough, cube, blend3 = expect["cube"]
    oracles.check_repair(p("cube-out.csv"), rough, cube, blend3, "3-d blend")
    tiny, zero, tiny_sorted = expect["tiny"]
    oracles.check_repair(p("tiny-out.csv"), tiny, zero, tiny_sorted, "5-node rearrange")

    _, (center,) = oracles.read_grid(p("fit.csv"))
    _, (stderr,) = oracles.read_grid(p("se.csv"))
    draws = oracles.read_draws(p("draws.csv"))
    oracles.require(np.allclose(stderr, draws.std(axis=0, ddof=1), rtol=1e-9, atol=1e-12),
                    "stderr file is not the standard deviation of the draws")
    printed = [line for line in band_stdout.splitlines() if line.startswith("critical value:")]
    oracles.require(len(printed) == 1, "band printed no critical value")
    critical = float(printed[0].split(":")[1])
    want = oracles.critical_value(center, stderr, draws, ALPHA)
    oracles.require(critical == want, f"critical value {critical!r}, recomputed {want!r}")
    _, (lower, upper) = oracles.read_grid(p("band.csv"), ("lower", "upper"))
    increasing = [expect["truth_x"], np.sort(center)]
    oracles.check_band(center - critical * stderr, center + critical * stderr,
                       lower, upper, increasing)


def run_cli(run: Run) -> float:
    expect = cli_inputs(run)
    commands = cli_commands(run)

    def launch(argv, spans_path):
        if run.trace:
            cmd = [sys.executable, str(HERE / "launch.py"), spans_path, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "monotonize", *argv]
        return subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=run.work)

    def one_round(r):
        layer = {}
        stdout = {}
        for figure, argvs in commands:
            paths = [run.path(f"spans-{i}.json") for i in range(len(argvs))]
            procs = run.timed(figure, lambda: [launch(a, p) for a, p in zip(argvs, paths)])
            for argv, proc, path in zip(argvs, procs, paths):
                run.attempted += 1
                if proc.returncode != 0:
                    run.failed += 1
                    raise oracles.CheckError(
                        f"{argv[0]} exited {proc.returncode}: {proc.stderr[-500:]}")
                stdout[argv[0]] = proc.stdout
                if run.trace:
                    with open(path, encoding="utf-8") as fh:
                        rows = spans.load_spans(json.load(fh))
                    for k, v in spans.layer_metrics(rows).items():
                        layer[k] = layer.get(k, 0.0) + v
        check_cli_outputs(run, expect, stdout["band"])
        if run.trace:
            run.layers.append(layer)

    run.rounds(one_round)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {"mc-means": run_mc, "mc-quantile": run_mc, "cli-repair": run_cli}


# --- one run --------------------------------------------------------------------


def run_workload(name, seed, seconds, trace, save) -> int:
    if not (SRC / "monotonize" / "__init__.py").is_file():
        print(f"perfbench: no monotonize sources under {SRC}", file=sys.stderr)
        return 2
    bench = spec()
    run = Run(name, seed, seconds, trace)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    try:
        setup = setup_times(run)
        if trace:
            run.tracer = spans.Tracer()
        correct = True
        try:
            peak_mb = WORKLOADS[name](run)
        except oracles.CheckError as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            correct, peak_mb = False, 0.0
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    figures = run.figures()
    round_s, round_rel = run.round_s(), run.round_rel()
    figures.update(round_s=round_s, yardstick_s=median(run.yardstick))
    for k, v in sorted(figures.items()):
        print(f"{name}  {k}  {v:.6g}  {'1/s' if 'per_s' in k else 's'}")
    if trace:
        layers = {k: median(d.get(k, 0.0) for d in run.layers)
                  for k in {k for d in run.layers for k in d}}
        layers.update({k: median(d[k] for d in run.imports) for k in run.imports[0]})
        layers["trace.round_s"], layers["trace.round_rel"] = round_s, round_rel
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        values = {"setup_s": median(setup), "peak_rss_mb": peak_mb, "round_rel": round_rel}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics}
    if save:
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "result": result, "figures": figures, "times": run.times,
                  "rel": run.rel, "yardstick": run.yardstick}
        with open(save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--save", args.save] if args.save else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        print(f"{name}  attempted {result['attempted']}  failed {result['failed']}  "
              f"correct {result['correct']}")
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            print(f"{name}  {k}  {m['value']:.6g}  {m['unit']}")
            merged["metrics"][f"{name}/{k}"] = m
    print(json.dumps(merged))
    return status


# --- compare --------------------------------------------------------------------


def compare(path_a, path_b) -> int:
    """Medians of two --save files, per workload, against each metric's bound.

    Per-operation figures (table*.reps_per_s.*, cli.*_s) are shown raw, but
    their ratio and verdict use the operation's time relative to the
    yardstick, held to the bound of round_rel, the metric they add up to.
    """
    bench = spec()
    rel_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "round_rel")

    def load(path):
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    def verdict(a, b, better, bound):
        worse = (a - b) / a if better == "higher" else (b - a) / a
        return "yes" if worse <= bound else "NO"

    sides = [load(path_a), load(path_b)]
    for name in WORKLOADS:
        runs = [[r for r in side if r["workload"] == name] for side in sides]
        plain = [[r for r in side if not r["trace"]] for side in runs]
        traced = [[r for r in side if r["trace"]] for side in runs]
        if not all(plain):
            continue
        print(f"== {name}")
        print(f"{'metric':32} {'unit':6} {'A':>11} {'B':>11} {'B/A':>8}  within bound")
        for m in bench["end_to_end"]:
            a, b = (median(r["result"]["metrics"][m["name"]]["value"] for r in side)
                    for side in plain)
            print(f"{m['name']:32} {m['unit']:6} {a:11.5g} {b:11.5g} {b / a:8.4f}  "
                  f"{verdict(a, b, m['better'], m['bound'])} (bound {m['bound']})")
        ops = sorted(set.intersection(*(set(r["rel"]) for side in plain for r in side)))
        for k in ops:
            raw = [median(r["figures"][k] for r in side) for side in plain]
            rel = [median(median(r["rel"][k]) for r in side) for side in plain]
            print(f"{k:32} {'1/s' if 'per_s' in k else 's':6} {raw[0]:11.5g} {raw[1]:11.5g} "
                  f"{rel[1] / rel[0]:8.4f}  {verdict(*rel, 'lower', rel_bound)} "
                  f"(bound {rel_bound}, time relative to the yardstick)")
        for label, p_runs, t_runs in zip("AB", plain, traced):
            att = sum(r["result"]["attempted"] for r in p_runs)
            fail = sum(r["result"]["failed"] for r in p_runs)
            line = f"{label}: {len(p_runs)} runs, failed/attempted {fail}/{att}"
            if t_runs:
                t_rel = median(r["result"]["metrics"]["trace.round_rel"]["value"] for r in t_runs)
                p_rel = median(r["result"]["metrics"]["round_rel"]["value"] for r in p_runs)
                t_s = median(r["result"]["metrics"]["trace.round_s"]["value"] for r in t_runs)
                p_s = median(r["figures"]["round_s"] for r in p_runs)
                line += (f"; tracing overhead {100 * (t_rel / p_rel - 1):+.1f}% relative, "
                         f"{t_s - p_s:+.2f} s per round ({len(t_runs)} traced runs)")
            print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="append this run to a JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --save files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace, args.save)


if __name__ == "__main__":
    sys.exit(main())
