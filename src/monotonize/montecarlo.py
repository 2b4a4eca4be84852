"""Simulation harness for the growth-chart design.

The data-generating process draws ages on [2, 20] years and heights from a
piecewise-linear conditional mean with gaussian noise:

    y = z(x)' beta + sigma * eps,   eps ~ N(0, 1),
    z(x) = (1, x, (x-5) 1{x>5}, (x-10) 1{x>10}, (x-15) 1{x>15}),

with slope changes at ages 5, 10 and 15 (strict inequalities at the knots).
The default beta keeps every segment slope positive, so the true mean is
strictly increasing and the true conditional quantile surface is increasing
in both age and the quantile level.  sigma defaults to 4 cm; it is a free
parameter of the harness.

run_experiment produces one of three report tables: (1) L^p errors of mean
fits and their monotonized versions, (2) the same for the two-dimensional
quantile process, (3) coverage and length of simultaneous confidence bands.
Every replication enforces the improvement inequalities as hard assertions;
a violation beyond floating-point tolerance aborts the run, because the
operators guarantee improvement path by path, not just on average.

Determinism: replication r draws from an RNG stream derived from (seed, r)
and bootstrap streams are derived from (seed, r, estimator).  Tables 1 and
2 fit a block of replications in one call per estimator, and table 3 every
replication in one call per estimator, then bootstraps one replication and
estimator at a time.  Each estimator's fits of a block of replications are
stacked along a leading replication axis for the repairs, measures and checks.
The fitting, axis-by-axis, L^p, tolerance and coverage cores leave that
axis alone and give each replication the bits of its own computation, so
a report depends only on the config, and a violation names the lowest
failing replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import reduce

import numpy as np

from .bands import _covered, _crossing, assemble_band, max_t, order_statistic_quantile
from .errors import (
    AllNodesDegenerateError,
    ImprovementViolationError,
    NonFiniteValueError,
    OutOfRangeError,
    ShapeMismatchError,
)
from .estimators import (
    BLOCK_ELEMENTS,
    MEAN_LOSS,
    Dataset,
    EstimatorSpec,
    _fits,
    _parts,
    bootstrap,
    span_axis,
)
from .grid import INF, Axis, GriddedFunction, _integer, _levels, _lp_rows, _real, _reals
from .isotonic import blend, isotonize_axis
from .rearrange import _average, _compose, rearrange_axis

# Benchmark configuration: a growth-chart style design, height on age.
BENCHMARK_BETA = (71.25, 8.13, -2.72, 1.78, -6.43)
BENCHMARK_N = 533
BENCHMARK_REPS = 1000
BENCHMARK_BOOTSTRAP_B = 200
DEFAULT_SIGMA = 4.0
DEFAULT_KNOTS = (3.0, 5.0, 8.0, 10.0, 11.5, 13.0, 14.5, 16.0, 18.0)
AGE_RANGE = (2.0, 20.0)

#: The L^p indices every report covers.
REPORT_PS = (1.0, 2.0, INF)

#: Tolerances of the per-replication improvement assertions.
IMPROVE_RTOL = 1e-10
IMPROVE_ATOL = 1e-14

_STREAM_DATA = 1
_STREAM_BOOT = 2

_PI_1D = ((1,),)
_PI_2D = ((1, 2), (2, 1))


def full_tau_net() -> np.ndarray:
    """The full quantile net 0.005, 0.010, ..., 0.995 (199 levels)."""
    return np.linspace(0.005, 0.995, 199)


def desk_tau_net() -> np.ndarray:
    """The desk-scale quantile net 0.05, 0.10, ..., 0.95 (19 levels)."""
    return np.linspace(0.05, 0.95, 19)


def parse_tau_net(net) -> np.ndarray:
    """The levels lo, lo + step, ..., hi of a 'lo:hi:step' text or a dict.

    A dict holds exactly the keys lo, hi and step.  The net needs
    0 < lo <= hi < 1 and 0 < step < 1, and step must divide hi - lo.
    """
    if isinstance(net, str):
        parts = net.split(":")
    elif isinstance(net, dict) and set(net) == {"lo", "hi", "step"}:
        parts = [net["lo"], net["hi"], net["step"]]
    else:
        parts = []
    try:
        lo, hi, step = (float(f) for f in parts)
    except (TypeError, ValueError):
        raise OutOfRangeError(
            f"cannot parse tau net {net!r}; expected 'lo:hi:step' or "
            "{'lo': ..., 'hi': ..., 'step': ...}"
        ) from None
    if not (0.0 < lo <= hi < 1.0 and 0.0 < step < 1.0):
        raise OutOfRangeError(f"bad tau net {net!r}: need 0 < lo <= hi < 1 and 0 < step < 1")
    count = round((hi - lo) / step)
    if abs(count * step - (hi - lo)) > 1e-9 * (hi - lo):
        raise OutOfRangeError(f"bad tau net {net!r}: step does not divide hi - lo")
    return np.linspace(lo, hi, count + 1)


def design_vector(x):
    """Regressor vector z(x); vectorized, returns shape x.shape + (5,)."""
    x = np.asarray(x, dtype=float)
    hinge = lambda knot: np.where(x > knot, x - knot, 0.0)
    return np.stack(
        [np.ones_like(x), x, hinge(5.0), hinge(10.0), hinge(15.0)], axis=-1
    )


def true_cef(x, beta=BENCHMARK_BETA):
    """True conditional mean at age x; past the float range a value is +-inf."""
    with np.errstate(over="ignore"):
        out = design_vector(x) @ np.asarray(beta, dtype=float)
    return float(out) if np.isscalar(x) else out


# Cephes ndtri's rational functions (Moshier 1989) as (P, Q), highest power first, each Q
# led by its implicit 1: in (u - 1/2)^2 on the centre, then in 1/x for x < 8 and x >= 8.
_NDTRI_E2 = 0.13533528323661269189  # e^-2
_NDTRI_PQ = (
    ((-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
      1.39312609387279679503e1, -1.23916583867381258016e0),
     (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
      -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
      1.59056225126211695515e1, -1.18331621121330003142e0)),
    ((4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
      4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
      -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4),
     (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
      1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
      -3.80806407691578277194e-2, -9.33259480895457427372e-4)),
    ((3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
      1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
      3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9),
     (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
      2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
      2.89247864745380683936e-6, 6.79019408009981274425e-9)),
)


def _ndtri(u: float) -> float:
    """The standard normal u-quantile for 0 < u < 1: Cephes ndtri in its own
    order of operations (Horner, math.log, math.sqrt), which makes it
    scipy.special.ndtri bit for bit."""
    def ratio(t, pq):
        p, q = (reduce(lambda acc, c: acc * t + c, coefs) for coefs in pq)
        return t * p / q

    flip = u > 1.0 - _NDTRI_E2
    y = 1.0 - u if flip else u
    if y > _NDTRI_E2:
        y -= 0.5
        return (y + y * ratio(y * y, _NDTRI_PQ[0])) * 2.50662827463100050242
    x = math.sqrt(-2.0 * math.log(y))
    x = x - math.log(x) / x - ratio(1.0 / x, _NDTRI_PQ[1 if x < 8.0 else 2])
    return x if flip else -x


def true_cqf(u, x, beta=BENCHMARK_BETA, sigma=DEFAULT_SIGMA):
    """True conditional u-quantile at age x under gaussian noise; +-inf past the float range."""
    u = np.asarray(u, dtype=float)
    if not (np.all(u > 0.0) and np.all(u < 1.0)):
        raise OutOfRangeError("quantile levels must lie in (0, 1)")
    quantiles = np.reshape([_ndtri(t) for t in u.ravel().tolist()], u.shape)
    with np.errstate(over="ignore"):
        out = true_cef(x, beta) + float(sigma) * quantiles
    return float(out) if np.isscalar(x) and u.ndim == 0 else out


def default_estimators(eval_axis: Axis) -> tuple:
    """The benchmark's four estimators on a common evaluation grid.

    Kernel and local linear with bandwidth 1, cubic B-splines on
    DEFAULT_KNOTS, and four Fourier terms on the purely periodic basis (no
    linear carrier), as in the benchmark configuration.
    """
    return (
        EstimatorSpec("kernel", MEAN_LOSS, eval_axis, bandwidth=1.0),
        EstimatorSpec("loclinear", MEAN_LOSS, eval_axis, bandwidth=1.0),
        EstimatorSpec("bspline", MEAN_LOSS, eval_axis, knots=DEFAULT_KNOTS),
        EstimatorSpec("fourier", MEAN_LOSS, eval_axis, n_terms=4, fourier_linear=False),
    )


@dataclass(frozen=True)
class McConfig:
    """Full description of one simulation experiment.

    x_design defaults to n equidistant ages spanning AGE_RANGE, and n to
    len(x_design) when a design is given, else BENCHMARK_N; estimators
    defaults to the benchmark's four methods evaluated on 100 equidistant nodes
    over the design range.
    """

    beta: tuple = BENCHMARK_BETA
    sigma: float = DEFAULT_SIGMA
    n: int | None = None
    x_design: np.ndarray | None = None
    reps: int = 100
    seed: int = 0
    estimators: tuple = ()
    taus: np.ndarray = field(default_factory=desk_tau_net)
    alpha: float = 0.1
    bootstrap_B: int = 100
    lambda_grid: tuple = (0.5,)

    def __post_init__(self):
        beta = _reals("beta", self.beta)
        if beta.shape != (5,):
            raise ShapeMismatchError(f"beta needs 5 entries, got shape {beta.shape}")
        beta = tuple(float(b) for b in beta)
        if not all(math.isfinite(b) for b in beta):
            raise NonFiniteValueError("beta must be finite")
        object.__setattr__(self, "beta", beta)
        sigma = _real("sigma", self.sigma)
        if not 0.0 <= sigma < math.inf:
            raise OutOfRangeError(f"sigma must be finite and non-negative, got {self.sigma!r}")
        object.__setattr__(self, "sigma", sigma)
        n = None if self.n is None else _integer("n", self.n, 1)
        if self.x_design is None:
            x = np.linspace(AGE_RANGE[0], AGE_RANGE[1], BENCHMARK_N if n is None else n)
        else:
            x = _reals("x_design", self.x_design)
            if n is not None and x.size != n:
                raise ShapeMismatchError(
                    f"x_design must hold n={n} ages, got shape {x.shape}"
                )
            # stated positively, so that a NaN age fails it
            if not (np.all(x >= AGE_RANGE[0]) and np.all(x <= AGE_RANGE[1])):
                raise OutOfRangeError(f"x_design ages must lie within {AGE_RANGE}")
        object.__setattr__(self, "n", x.size)
        x.setflags(write=False)
        object.__setattr__(self, "x_design", x)
        object.__setattr__(self, "reps", _integer("reps", self.reps, 1))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        if not self.estimators:
            object.__setattr__(self, "estimators", default_estimators(span_axis(x, 100)))
        else:
            for s in self.estimators:
                if not isinstance(s, EstimatorSpec):
                    raise OutOfRangeError("estimators must be EstimatorSpec instances")
            object.__setattr__(self, "estimators", tuple(self.estimators))
        taus = _levels("taus", self.taus)
        taus.setflags(write=False)
        object.__setattr__(self, "taus", taus)
        alpha = _real("alpha", self.alpha)
        if not 0.0 < alpha < 1.0:
            raise OutOfRangeError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "bootstrap_B", _integer("bootstrap_B", self.bootstrap_B, 2))
        lams = tuple(float(l) for l in _reals("lambda_grid", self.lambda_grid))
        if any(not 0.0 <= l <= 1.0 for l in lams):
            raise OutOfRangeError("every lambda must lie in [0, 1]")
        if len(set(lams)) != len(lams):
            # each weight names a report column
            raise OutOfRangeError(f"lambda_grid repeats a weight: {list(lams)!r}")
        object.__setattr__(self, "lambda_grid", lams)


@dataclass
class McReport:
    """Tabular result of one experiment, ready for CSV serialization.

    rows hold one entry per (method, p); per_rep carries the raw
    per-replication arrays the rows were reduced from, for tests and
    post-processing (not serialized).
    """

    table: int
    columns: list
    rows: list
    per_rep: dict = field(default_factory=dict, compare=False, repr=False)

    def to_csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv_text())


def _format_cell(v) -> str:
    if isinstance(v, str):
        return v
    v = float(v)
    if math.isinf(v):
        return "inf"
    if v.is_integer():
        return str(int(v))
    return repr(v)


def _format_p(p: float) -> str:
    return "inf" if math.isinf(p) else str(int(p))


def _mean_y(cfg: McConfig) -> np.ndarray:
    """Every replication's mean of y; _draw_y refuses an overflow to +-inf."""
    return true_cef(cfg.x_design, cfg.beta)


def _draw_y(cfg: McConfig, rep_index: int, mean: np.ndarray) -> np.ndarray:
    """Replication rep_index's y from the stream (seed, rep_index), finite;
    mean is _mean_y(cfg)."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(_STREAM_DATA, rep_index))
    )
    with np.errstate(over="ignore"):
        y = mean + cfg.sigma * rng.standard_normal(cfg.n)
    if not np.all(np.isfinite(y)):
        raise NonFiniteValueError("observations must be finite")
    return y


def simulate_rep(cfg: McConfig, rep_index: int) -> Dataset:
    """Draw one replication's dataset from the stream (seed, rep_index)."""
    rep_index = _integer("rep_index", rep_index, 0)
    return Dataset(cfg.x_design, _draw_y(cfg, rep_index, _mean_y(cfg)))


def _bootstrap_seed(cfg: McConfig, rep_index: int, est_index: int) -> int:
    ss = np.random.SeedSequence(
        entropy=cfg.seed, spawn_key=(_STREAM_BOOT, rep_index, est_index)
    )
    return int(ss.generate_state(1, np.uint64)[0])


def _variant_labels(lambda_grid) -> list:
    return ["rearranged", "isotonized"] + [
        "blend_" + _format_cell(lam) for lam in lambda_grid
    ]


def _blocks(cfg: McConfig, size: int) -> list:
    """The replications in blocks: a block's fits of every estimator and
    variants of one, on grids of at most size nodes, hold about
    BLOCK_ELEMENTS numbers."""
    return _parts(cfg.reps, size * (len(cfg.estimators) + 3 + len(cfg.lambda_grid)), BLOCK_ELEMENTS)


def _variants(f: GriddedFunction, orderings, lambda_grid) -> list:
    """The report's variant family of each replication of the block f:
    rearranged, isotonized, then each blend."""
    rearranged = _average(f, orderings, rearrange_axis, lead=1)
    isotonized = _average(f, orderings, isotonize_axis, lead=1)
    return [rearranged, isotonized] + [
        blend(rearranged, isotonized, lam) for lam in lambda_grid
    ]


def _no_worse(mono, orig, what: str) -> tuple:
    """The check that each replication's mono is no worse than its orig."""
    bad = mono > orig * (1.0 + IMPROVE_RTOL) + IMPROVE_ATOL
    return bad, lambda i: f"{what} came out {float(mono[i])!r} > original {float(orig[i])!r}"


def _measured(out, funcs, measure, labels, what: str) -> list:
    """Fill out, block rows x (1 + variants) x p, with measure(g, p) for g in
    funcs, the original and then its variants, and return the checks that
    each variant is no worse than the original, in the order of the
    variants and then of p.  what names a check, with {label} and {p} to
    fill in."""
    checks = []
    for vi, g in enumerate(funcs):
        for pi, p in enumerate(REPORT_PS):
            out[:, vi, pi] = measure(g, p)
            if vi:
                name = what.format(label=labels[vi - 1], p=_format_p(p))
                checks.append(_no_worse(out[:, vi, pi], out[:, 0, pi], name))
    return checks


def _enforce(reps: range, checks) -> None:
    """Raise for the lowest replication of the block that fails a check,
    naming the first check it fails in the order given.  A check is (its
    failing rows of the block, the message for a row)."""
    bad = np.array([rows for rows, _ in checks])
    failing = np.flatnonzero(np.any(bad, axis=0))
    if failing.size:
        i = int(failing[0])
        text = checks[int(np.argmax(bad[:, i]))][1]
        raise ImprovementViolationError(f"replication {reps[i]}: {text(i)}")


def _rows(specs, cells) -> list:
    """One report row per (method, p); cells(ei, pi) gives the rest of the
    row, so that the keys of a row, in order, are the report's columns."""
    return [
        {"method": spec.method, "p": _format_p(p), **cells(ei, pi)}
        for ei, spec in enumerate(specs)
        for pi, p in enumerate(REPORT_PS)
    ]


def _ratios(prefix: str, labels, values) -> dict:
    """Each variant's value over the original's, values[0]; an exactly zero
    original reports 1."""
    orig = values[0]
    return {
        prefix + lab: 1.0 if orig == 0.0 else values[1 + vi] / orig
        for vi, lab in enumerate(labels)
    }


def _mean_truths(cfg: McConfig) -> tuple:
    """The estimators under mean loss, and the true mean on each one's grid."""
    specs = [replace(s, loss=MEAN_LOSS) for s in cfg.estimators]
    truths = [
        GriddedFunction([s.eval_axis], true_cef(s.eval_axis.coords, cfg.beta))
        for s in specs
    ]
    return specs, truths


def _run_errors_table(cfg: McConfig, table: int) -> McReport:
    if table == 1:
        (specs, truths), taus, orderings = _mean_truths(cfg), None, _PI_1D
    else:
        specs, taus, orderings = cfg.estimators, cfg.taus, _PI_2D
        truth = lambda s: true_cqf(taus[:, None], s.eval_axis.coords[None, :], cfg.beta, cfg.sigma)
        truths = [GriddedFunction([Axis(taus), s.eval_axis], truth(s)) for s in specs]
    labels = _variant_labels(cfg.lambda_grid)
    errors = np.empty((cfg.reps, len(specs), 1 + len(labels), len(REPORT_PS)))
    y_mean = _mean_y(cfg)
    for reps in _blocks(cfg, max(t.values.size for t in truths)):
        y = np.array([_draw_y(cfg, r, y_mean) for r in reps])
        fits = [_fits(cfg.x_design, y, spec, taus)[0] for spec in specs]
        checks = []
        for ei, (spec, truth) in enumerate(zip(specs, truths)):
            # the replication index leads, as the draw index of bootstrap's draws does
            fhat = GriddedFunction([Axis(reps), *truth.axes], fits[ei])
            distance = lambda g, p: _lp_rows(g.values, truth.values[None], truth.axes, p)
            out = errors[reps.start : reps.stop, ei]
            what = spec.method + " {label} L^{p} error"
            funcs = [fhat] + _variants(fhat, orderings, cfg.lambda_grid)
            checks += _measured(out, funcs, distance, labels, what)
            if len(orderings) > 1:
                # the averaged rearrangement must also beat the mean of its members
                members = [_compose(fhat, o, rearrange_axis, lead=1) for o in orderings]
                for pi, p in enumerate(REPORT_PS):
                    mean = np.mean([distance(m, p) for m in members], axis=0)
                    name = (
                        f"{spec.method} averaged rearrangement vs mean of "
                        f"single-ordering L^{_format_p(p)} errors"
                    )
                    checks.append(_no_worse(out[:, 1, pi], mean, name))
        # a replication's checks, estimator by estimator
        _enforce(reps, checks)

    avg = errors.mean(axis=0)
    rows = _rows(
        specs,
        lambda ei, pi: {
            "error_original": avg[ei, 0, pi],
            **_ratios("ratio_", labels, avg[ei, :, pi]),
        },
    )
    return McReport(table, list(rows[0]), rows, per_rep={"errors": errors})


def _run_bands_table(cfg: McConfig) -> McReport:
    specs, truths = _mean_truths(cfg)
    labels = _variant_labels(cfg.lambda_grid)

    # the critical value of a method pools the max-t statistics of every
    # replication, so all fits and bootstrap stderrs come first
    y_mean = _mean_y(cfg)
    y = np.array([_draw_y(cfg, r, y_mean) for r in range(cfg.reps)])
    centers = [_fits(cfg.x_design, y, spec)[0] for spec in specs]
    stderrs = [np.empty_like(c) for c in centers]
    for r in range(cfg.reps):
        data = Dataset(cfg.x_design, y[r])
        for ei, spec in enumerate(specs):
            seed = _bootstrap_seed(cfg, r, ei)
            stderrs[ei][r] = bootstrap(data, spec, cfg.bootstrap_B, seed)[0].values

    coverage = np.empty((cfg.reps, len(specs), 1 + len(labels)), dtype=bool)
    lengths = np.empty((cfg.reps, len(specs), 1 + len(labels), len(REPORT_PS)))
    criticals = []
    for ei, (spec, truth) in enumerate(zip(specs, truths)):
        stats = []
        for r in range(cfg.reps):
            fhat, stderr = (truth.with_values(v[ei][r]) for v in (centers, stderrs))
            try:
                stats.append(max_t(truth, fhat, stderr))
            except AllNodesDegenerateError as exc:
                raise AllNodesDegenerateError(f"replication {r}: {exc}") from None
        critical = order_statistic_quantile(stats, cfg.alpha)
        criticals.append(critical)
        for reps in _blocks(cfg, truth.values.size):
            center, stderr = (
                GriddedFunction([Axis(reps), *truth.axes], v[ei][reps.start : reps.stop])
                for v in (centers, stderrs)
            )
            band = assemble_band(center, stderr, critical)
            # each end-point through the same operator, as bands.monotonize_band does
            lowers = _variants(band.lower, _PI_1D, cfg.lambda_grid)
            uppers = _variants(band.upper, _PI_1D, cfg.lambda_grid)
            ends = [(band.lower.values, band.upper.values)] + [
                (lower.values, upper.values) for lower, upper in zip(lowers, uppers)
            ]
            # a variant band keeps its order, then any coverage the original had
            checks = [
                (_crossing(*vband),
                 lambda i, lab=lab: f"{spec.method} {lab} band crossed its end-points")
                for lab, vband in zip(labels, ends[1:])
            ]
            covered = np.stack([_covered(*vband, truth.values[None]) for vband in ends], axis=1)
            coverage[reps.start : reps.stop, ei] = covered
            checks += [
                (covered[:, 0] & ~covered[:, vi],
                 lambda i, lab=lab: f"{spec.method} {lab} band lost coverage the original band had")
                for vi, lab in enumerate(labels, 1)
            ]
            length = lambda vband, p: _lp_rows(*vband, truth.axes, p)
            what = spec.method + " {label} band L^{p} length"
            out = lengths[reps.start : reps.stop, ei]
            checks += _measured(out, ends, length, labels, what)
            _enforce(reps, checks)

    cov_freq = coverage.mean(axis=0)
    len_avg = lengths.mean(axis=0)
    rows = _rows(
        specs,
        lambda ei, pi: {
            "coverage_original": cov_freq[ei, 0],
            **{"coverage_" + lab: cov_freq[ei, 1 + vi] for vi, lab in enumerate(labels)},
            "length_original": len_avg[ei, 0, pi],
            **_ratios("length_ratio_", labels, len_avg[ei, :, pi]),
        },
    )
    per_rep = {"coverage": coverage, "lengths": lengths, "criticals": np.asarray(criticals)}
    return McReport(3, list(rows[0]), rows, per_rep=per_rep)


def run_experiment(cfg: McConfig, table: int = 1) -> McReport:
    """Run one experiment and reduce it to a report table.

    table selects the report: 1 for mean-fit errors, 2 for quantile-process
    errors, 3 for confidence bands.  Replications run in blocks (see
    _blocks): tables 1 and 2 fit a block in one call per estimator, table 3
    all replications in one call per estimator and then bootstraps one
    replication at a time, and repairs and checks take a block at once,
    each replication with its own bits.  A failed check raises
    ImprovementViolationError for the lowest failing replication (in table
    3, of the first method with one).
    """
    table = _integer("table", table, 1)
    if table not in (1, 2, 3):
        raise OutOfRangeError(f"table must be 1, 2 or 3, got {table}")
    if table in (1, 2):
        return _run_errors_table(cfg, table)
    return _run_bands_table(cfg)


def config_from_dict(d: dict) -> McConfig:
    """Build an McConfig from the JSON configuration schema.

    Top-level keys mirror McConfig fields: beta, sigma, n, x_design, reps,
    seed, taus, alpha, bootstrap_B, lambda_grid.  Two conveniences: "grid"
    sets the number of evaluation nodes (default 100) for the default or
    dict-specified estimators, and "taus" accepts either an explicit list or
    {"lo", "hi", "step"} (see parse_tau_net).  Each entry of "estimators" is
    a dict with "method" plus the method's settings (bandwidth, knots,
    n_terms, fourier_linear); fourier_linear defaults to true there, while
    the default four use the purely periodic Fourier basis.
    """
    known = {f.name for f in fields(McConfig)} | {"grid"}
    unknown = set(d) - known
    if unknown:
        raise OutOfRangeError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {k: d[k] for k in known & set(d) if k not in ("estimators", "taus", "grid")}
    taus = d.get("taus")
    if isinstance(taus, dict):
        kwargs["taus"] = parse_tau_net(taus)
    elif taus is not None:
        kwargs["taus"] = taus
    cfg = McConfig(**kwargs)
    eval_axis = span_axis(cfg.x_design, d.get("grid", 100))
    ests = d.get("estimators")
    if ests is None:
        specs = default_estimators(eval_axis)
    elif not (isinstance(ests, list) and ests and all(isinstance(e, dict) for e in ests)):
        raise OutOfRangeError(f"estimators must be a non-empty list of objects, got {ests!r}")
    else:
        specs = []
        for e in ests:
            settings = dict(e)
            method = settings.pop("method", None)
            if method is None:
                raise OutOfRangeError("each estimator entry needs a method")
            unknown = set(settings) - {"bandwidth", "knots", "n_terms", "fourier_linear"}
            if unknown:
                raise OutOfRangeError(f"unknown estimator keys: {sorted(unknown)}")
            specs.append(EstimatorSpec(method, MEAN_LOSS, eval_axis, **settings))
    return replace(cfg, estimators=tuple(specs))
