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
and bootstrap streams are derived from (seed, r, estimator); replications
run serially and are reduced in replication order, so a report depends only
on the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .bands import (
    DEGENERATE_STDERR,
    Band,
    BandRecipe,
    assemble_band,
    covers,
    order_statistic_quantile,
)
from .errors import (
    AllNodesDegenerateError,
    ImprovementViolationError,
    NonFiniteValueError,
    OutOfRangeError,
    ShapeMismatchError,
)
from .estimators import (
    MEAN_LOSS,
    Dataset,
    EstimatorSpec,
    bootstrap,
    fit,
    fit_quantile_process,
    span_axis,
)
from .grid import INF, Axis, GriddedFunction, lp_distance, lp_length
from .isotonic import blend, isotonize_average
from .rearrange import rearrange_average, rearrange_pi

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
        fields = net.split(":")
    elif isinstance(net, dict) and set(net) == {"lo", "hi", "step"}:
        fields = [net["lo"], net["hi"], net["step"]]
    else:
        fields = []
    try:
        lo, hi, step = (float(f) for f in fields)
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


def _integer(name: str, value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise OutOfRangeError(f"{name} must be an integer, got {value!r}") from None


def _real(name: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise OutOfRangeError(f"{name} must be a number, got {value!r}") from None


def _reals(name: str, value) -> np.ndarray:
    try:
        out = np.array(value, dtype=float)
        if out.ndim:
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise OutOfRangeError(f"{name} must be a list of numbers, got {value!r}")


def design_vector(x):
    """Regressor vector z(x); vectorized, returns shape x.shape + (5,)."""
    x = np.asarray(x, dtype=float)
    hinge = lambda knot: np.where(x > knot, x - knot, 0.0)
    return np.stack(
        [np.ones_like(x), x, hinge(5.0), hinge(10.0), hinge(15.0)], axis=-1
    )


def true_cef(x, beta=BENCHMARK_BETA):
    """True conditional mean at age x."""
    out = design_vector(x) @ np.asarray(beta, dtype=float)
    return float(out) if np.isscalar(x) else out


def true_cqf(u, x, beta=BENCHMARK_BETA, sigma=DEFAULT_SIGMA):
    """True conditional u-quantile at age x under gaussian noise."""
    u = np.asarray(u, dtype=float)
    if not (np.all(u > 0.0) and np.all(u < 1.0)):
        raise OutOfRangeError("quantile levels must lie in (0, 1)")
    # imported here so that only this function loads scipy; ndtri is
    # scipy.stats.norm.ppf bit for bit
    from scipy.special import ndtri

    out = true_cef(x, beta) + float(sigma) * ndtri(u)
    return float(out) if np.isscalar(x) and u.ndim == 0 else out


def default_estimators(
    eval_axis: Axis,
    bandwidth: float = 1.0,
    knots: Sequence[float] = DEFAULT_KNOTS,
    n_terms: int = 4,
    fourier_linear: bool = False,
) -> tuple:
    """The benchmark's four estimators on a common evaluation grid.

    The Fourier entry defaults to the purely periodic basis (no linear
    carrier), matching the benchmark configuration; pass fourier_linear=True
    for the augmented basis.
    """
    return (
        EstimatorSpec("kernel", MEAN_LOSS, eval_axis, bandwidth=bandwidth),
        EstimatorSpec("loclinear", MEAN_LOSS, eval_axis, bandwidth=bandwidth),
        EstimatorSpec("bspline", MEAN_LOSS, eval_axis, knots=tuple(knots)),
        EstimatorSpec(
            "fourier", MEAN_LOSS, eval_axis, n_terms=n_terms, fourier_linear=fourier_linear
        ),
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
        if not sigma >= 0.0:
            raise OutOfRangeError(f"sigma must be non-negative, got {self.sigma!r}")
        object.__setattr__(self, "sigma", sigma)
        if self.x_design is None:
            n = BENCHMARK_N if self.n is None else _integer("n", self.n)
            if n < 1:
                raise OutOfRangeError("n must be at least 1")
            x = np.linspace(AGE_RANGE[0], AGE_RANGE[1], n)
        else:
            x = _reals("x_design", self.x_design)
            if x.ndim != 1 or x.size < 1:
                raise ShapeMismatchError(
                    f"x_design must be a non-empty 1-d array, got shape {x.shape}"
                )
            n = x.size if self.n is None else _integer("n", self.n)
            if x.size != n:
                raise ShapeMismatchError(
                    f"x_design must hold n={n} ages, got shape {x.shape}"
                )
            if np.any(x < AGE_RANGE[0]) or np.any(x > AGE_RANGE[1]):
                raise OutOfRangeError(
                    f"design ages must lie within {AGE_RANGE}"
                )
        object.__setattr__(self, "n", n)
        x.setflags(write=False)
        object.__setattr__(self, "x_design", x)
        reps = _integer("reps", self.reps)
        if reps < 1:
            raise OutOfRangeError("reps must be at least 1")
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if not self.estimators:
            object.__setattr__(self, "estimators", default_estimators(span_axis(x, 100)))
        else:
            for s in self.estimators:
                if not isinstance(s, EstimatorSpec):
                    raise OutOfRangeError("estimators must be EstimatorSpec instances")
            object.__setattr__(self, "estimators", tuple(self.estimators))
        taus = _reals("taus", self.taus)
        if taus.ndim != 1 or taus.size == 0:
            raise ShapeMismatchError("taus must be a non-empty 1-d sequence")
        if np.any(np.diff(taus) <= 0.0):
            raise OutOfRangeError("taus must be strictly increasing")
        if not (np.all(taus > 0.0) and np.all(taus < 1.0)):
            raise OutOfRangeError("every tau must lie in (0, 1)")
        taus.setflags(write=False)
        object.__setattr__(self, "taus", taus)
        alpha = _real("alpha", self.alpha)
        if not 0.0 < alpha < 1.0:
            raise OutOfRangeError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        object.__setattr__(self, "alpha", alpha)
        b_draws = _integer("bootstrap_B", self.bootstrap_B)
        if b_draws < 2:
            raise OutOfRangeError("bootstrap_B must be at least 2")
        object.__setattr__(self, "bootstrap_B", b_draws)
        lams = _reals("lambda_grid", self.lambda_grid)
        if lams.ndim != 1 or not lams.size:
            raise OutOfRangeError("lambda_grid must be a non-empty list of numbers")
        lams = tuple(float(l) for l in lams)
        if any(not 0.0 <= l <= 1.0 for l in lams):
            raise OutOfRangeError("every lambda must lie in [0, 1]")
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


def simulate_rep(cfg: McConfig, rep_index: int) -> Dataset:
    """Draw one replication's dataset from the stream (seed, rep_index)."""
    rep_index = int(rep_index)
    if rep_index < 0:
        raise OutOfRangeError("rep_index must be non-negative")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(_STREAM_DATA, rep_index))
    )
    y = true_cef(cfg.x_design, cfg.beta) + cfg.sigma * rng.standard_normal(cfg.n)
    return Dataset(cfg.x_design, y)


def _bootstrap_seed(cfg: McConfig, rep_index: int, est_index: int) -> int:
    ss = np.random.SeedSequence(
        entropy=cfg.seed, spawn_key=(_STREAM_BOOT, rep_index, est_index)
    )
    return int(ss.generate_state(1, np.uint64)[0])


def _safe_ratio(num: float, den: float) -> float:
    """Monotonized-to-original ratio; an exactly zero denominator reports 1."""
    return 1.0 if den == 0.0 else num / den


def _variant_labels(lambda_grid) -> list:
    return ["rearranged", "isotonized"] + [
        "blend_" + _format_cell(lam) for lam in lambda_grid
    ]


def _require_no_worse(mono: float, orig: float, what: str, rep: int) -> None:
    if mono > orig * (1.0 + IMPROVE_RTOL) + IMPROVE_ATOL:
        raise ImprovementViolationError(
            f"replication {rep}: {what} came out {mono!r} > original {orig!r}"
        )


def _monotone_variants(f: GriddedFunction, orderings, lambda_grid) -> list:
    """The report's variant family: rearranged, isotonized, then each blend."""
    rearranged = rearrange_average(f, orderings)
    isotonized = isotonize_average(f, orderings)
    return [rearranged, isotonized] + [
        blend(rearranged, isotonized, lam) for lam in lambda_grid
    ]


def _error_rows(cfg: McConfig, errors: np.ndarray) -> tuple:
    """Reduce a (reps, est, variant, p) error array to report rows."""
    labels = _variant_labels(cfg.lambda_grid)
    columns = ["method", "p", "error_original"] + ["ratio_" + l for l in labels]
    avg = errors.mean(axis=0)
    rows = []
    for ei, spec in enumerate(cfg.estimators):
        for pi, p in enumerate(REPORT_PS):
            row = {
                "method": spec.method,
                "p": _format_p(p),
                "error_original": avg[ei, 0, pi],
            }
            for vi, lab in enumerate(labels):
                row["ratio_" + lab] = _safe_ratio(avg[ei, 1 + vi, pi], avg[ei, 0, pi])
            rows.append(row)
    return columns, rows


def _run_errors_table(cfg: McConfig, table: int) -> McReport:
    lambda_grid = cfg.lambda_grid
    if table == 1:
        specs = [replace(s, loss=MEAN_LOSS) for s in cfg.estimators]
        truths = [
            GriddedFunction([s.eval_axis], true_cef(s.eval_axis.coords, cfg.beta))
            for s in specs
        ]
        orderings = _PI_1D
    else:
        specs = list(cfg.estimators)
        truths = [
            GriddedFunction(
                [Axis(cfg.taus), s.eval_axis],
                true_cqf(cfg.taus[:, None], s.eval_axis.coords[None, :], cfg.beta, cfg.sigma),
            )
            for s in specs
        ]
        orderings = _PI_2D

    labels = _variant_labels(lambda_grid)
    errors = np.empty((cfg.reps, len(specs), 1 + len(labels), len(REPORT_PS)))
    for r in range(cfg.reps):
        data = simulate_rep(cfg, r)
        out = errors[r]
        for ei, (spec, truth) in enumerate(zip(specs, truths)):
            if table == 1:
                fhat = fit(data, spec).estimate
            else:
                fhat = fit_quantile_process(data, spec, cfg.taus)
            variants = _monotone_variants(fhat, orderings, lambda_grid)
            for vi, g in enumerate([fhat] + variants):
                for pi, p in enumerate(REPORT_PS):
                    out[ei, vi, pi] = lp_distance(g, truth, p)
            for vi, lab in enumerate(labels):
                for pi, p in enumerate(REPORT_PS):
                    _require_no_worse(
                        out[ei, 1 + vi, pi],
                        out[ei, 0, pi],
                        f"{spec.method} {lab} L^{_format_p(p)} error",
                        r,
                    )
            if table == 2:
                # the averaged rearrangement must also beat the mean of its members
                per_pi_err = np.array(
                    [
                        [lp_distance(rearrange_pi(fhat, pi), truth, p) for p in REPORT_PS]
                        for pi in orderings
                    ]
                )
                for pi_, p in enumerate(REPORT_PS):
                    _require_no_worse(
                        out[ei, 1, pi_],
                        float(per_pi_err[:, pi_].mean()),
                        f"{spec.method} averaged rearrangement vs mean of "
                        f"single-ordering L^{_format_p(p)} errors",
                        r,
                    )

    columns, rows = _error_rows(cfg, errors)
    return McReport(table, columns, rows, per_rep={"errors": errors})


def _run_bands_table(cfg: McConfig) -> McReport:
    specs = [replace(s, loss=MEAN_LOSS) for s in cfg.estimators]
    truths = [
        GriddedFunction([s.eval_axis], true_cef(s.eval_axis.coords, cfg.beta))
        for s in specs
    ]

    fits = []
    for r in range(cfg.reps):
        data = simulate_rep(cfg, r)
        fits.append([])
        for ei, spec in enumerate(specs):
            fhat = fit(data, spec).estimate
            stderr, _ = bootstrap(
                data, spec, cfg.bootstrap_B, _bootstrap_seed(cfg, r, ei)
            )
            fits[r].append((fhat, stderr))

    labels = _variant_labels(cfg.lambda_grid)
    n_var = len(labels)
    coverage = np.empty((cfg.reps, len(specs), 1 + n_var), dtype=bool)
    lengths = np.empty((cfg.reps, len(specs), 1 + n_var, len(REPORT_PS)))
    criticals = []
    for ei, (spec, truth) in enumerate(zip(specs, truths)):
        stats = []
        for r in range(cfg.reps):
            fhat, stderr = fits[r][ei]
            valid = stderr.values > DEGENERATE_STDERR
            if not np.any(valid):
                raise AllNodesDegenerateError(
                    f"replication {r}: every node's bootstrap stderr is near zero"
                )
            stats.append(
                float(
                    np.max(
                        np.abs(fhat.values[valid] - truth.values[valid])
                        / stderr.values[valid]
                    )
                )
            )
        critical = order_statistic_quantile(stats, cfg.alpha)
        criticals.append(critical)
        for r in range(cfg.reps):
            fhat, stderr = fits[r][ei]
            band = assemble_band(BandRecipe(fhat, stderr, critical, cfg.alpha))
            # each end-point through the same operator, as bands.monotonize_band does
            lowers = _monotone_variants(band.lower, _PI_1D, cfg.lambda_grid)
            uppers = _monotone_variants(band.upper, _PI_1D, cfg.lambda_grid)
            variants = [Band(lower, upper) for lower, upper in zip(lowers, uppers)]
            coverage[r, ei, 0] = covers(band, truth)
            for pi, p in enumerate(REPORT_PS):
                lengths[r, ei, 0, pi] = lp_length(band, p)
            for vi, vband in enumerate(variants):
                coverage[r, ei, 1 + vi] = covers(vband, truth)
                if coverage[r, ei, 0] and not coverage[r, ei, 1 + vi]:
                    raise ImprovementViolationError(
                        f"replication {r}: {spec.method} {labels[vi]} band lost "
                        "coverage the original band had"
                    )
                for pi, p in enumerate(REPORT_PS):
                    lengths[r, ei, 1 + vi, pi] = lp_length(vband, p)
                    _require_no_worse(
                        lengths[r, ei, 1 + vi, pi],
                        lengths[r, ei, 0, pi],
                        f"{spec.method} {labels[vi]} band L^{_format_p(p)} length",
                        r,
                    )

    columns = (
        ["method", "p", "coverage_original"]
        + ["coverage_" + l for l in labels]
        + ["length_original"]
        + ["length_ratio_" + l for l in labels]
    )
    rows = []
    cov_freq = coverage.mean(axis=0)
    len_avg = lengths.mean(axis=0)
    for ei, spec in enumerate(specs):
        for pi, p in enumerate(REPORT_PS):
            row = {
                "method": spec.method,
                "p": _format_p(p),
                "coverage_original": cov_freq[ei, 0],
                "length_original": len_avg[ei, 0, pi],
            }
            for vi, lab in enumerate(labels):
                row["coverage_" + lab] = cov_freq[ei, 1 + vi]
                row["length_ratio_" + lab] = _safe_ratio(
                    len_avg[ei, 1 + vi, pi], len_avg[ei, 0, pi]
                )
            rows.append(row)
    return McReport(
        3,
        columns,
        rows,
        per_rep={
            "coverage": coverage,
            "lengths": lengths,
            "criticals": np.asarray(criticals),
            "variant_labels": labels,
        },
    )


def run_experiment(cfg: McConfig, table: int = 1) -> McReport:
    """Run one experiment and reduce it to a report table.

    table selects the report: 1 for mean-fit errors, 2 for quantile-process
    errors, 3 for confidence bands.  The replications run serially, in
    replication order.
    """
    table = int(table)
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
    n_terms, fourier_linear).
    """
    known = {
        "beta", "sigma", "n", "x_design", "reps", "seed", "estimators",
        "taus", "alpha", "bootstrap_B", "lambda_grid", "grid",
    }
    unknown = set(d) - known
    if unknown:
        raise OutOfRangeError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {k: d[k] for k in known & set(d) if k not in ("estimators", "taus", "grid")}
    taus = d.get("taus")
    if isinstance(taus, dict):
        kwargs["taus"] = parse_tau_net(taus)
    elif taus is not None:
        kwargs["taus"] = taus
    grid = _integer("grid", d.get("grid", 100))
    if grid < 2:
        raise OutOfRangeError("grid must be at least 2")
    cfg = McConfig(**kwargs)
    eval_axis = span_axis(cfg.x_design, grid)
    ests = d.get("estimators")
    if ests is not None:
        specs = []
        for e in ests:
            e = dict(e)
            method = e.pop("method", None)
            if method is None:
                raise OutOfRangeError("each estimator entry needs a method")
            knots = e.pop("knots", None)
            specs.append(
                EstimatorSpec(
                    method,
                    MEAN_LOSS,
                    eval_axis,
                    bandwidth=e.pop("bandwidth", None),
                    knots=tuple(knots) if knots is not None else None,
                    n_terms=e.pop("n_terms", None),
                    fourier_linear=bool(e.pop("fourier_linear", True)),
                )
            )
            if e:
                raise OutOfRangeError(f"unknown estimator keys: {sorted(e)}")
        return replace(cfg, estimators=tuple(specs))
    if "grid" in d:
        return replace(cfg, estimators=default_estimators(eval_axis))
    return cfg
