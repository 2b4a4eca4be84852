"""Command-line interface.

Subcommands:

    rearrange   monotone rearrangement of a gridded function
    isotonize   isotonic projection of a gridded function
    band        assemble and/or monotonize a confidence band
    estimate    fit an estimator to x,y data, optionally with bootstrap bands
    simulate    run a simulation experiment from a JSON config

Exit status: 0 on success, 1 for invalid input or usage, 2 for numerical
failure.  Diagnostics go to stderr as a single line.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import csvio
from .bands import Band, assemble_band, critical_value_max_t, monotonize_band
from .errors import NumericalError, OutOfRangeError, ValidationError
from .estimators import (
    MEAN_LOSS,
    EstimatorSpec,
    Loss,
    bootstrap,
    fit,
    fit_quantile_process,
    span_axis,
)
from .grid import INF, lp_length
from .isotonic import monotonize
from .montecarlo import config_from_dict, parse_tau_net, run_experiment


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors on stderr and exits with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="monotonize", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_monotonize_args(p, default_lam):
        p.add_argument("--input", required=True, help="grid-function CSV to read")
        p.add_argument("--out", required=True, help="grid-function CSV to write")
        p.add_argument(
            "--orderings",
            default="all",
            help="'all' or explicit axis orderings like '1,2;2,1'",
        )
        p.add_argument(
            "--lambda",
            dest="lam",
            type=float,
            default=default_lam,
            help="blend weight on the rearrangement (default %(default)s)",
        )

    p = sub.add_parser("rearrange", help="sort a gridded function monotone")
    add_monotonize_args(p, 1.0)
    p = sub.add_parser("isotonize", help="project a gridded function to monotone")
    add_monotonize_args(p, 0.0)

    p = sub.add_parser("band", help="monotonize a confidence band")
    p.add_argument("--input", help="band CSV with lower and upper columns")
    p.add_argument("--lower", help="grid-function CSV with the lower endpoint")
    p.add_argument("--upper", help="grid-function CSV with the upper endpoint")
    p.add_argument("--center", help="grid-function CSV with the band center")
    p.add_argument("--stderr", dest="stderr_file", help="grid-function CSV with stderrs")
    p.add_argument("--critical", type=float, help="critical value for center/stderr")
    p.add_argument("--draws", help="bootstrap draws CSV for the critical value")
    p.add_argument("--alpha", type=float, default=0.1, help="miscoverage level")
    p.add_argument(
        "--method",
        choices=("rearrange", "isotonize", "blend"),
        default="rearrange",
    )
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--orderings", default="all")
    p.add_argument("--out", help="band CSV to write")

    p = sub.add_parser("estimate", help="fit an estimator to x,y data")
    p.add_argument("--data", required=True, help="dataset CSV with x,y columns")
    p.add_argument(
        "--method", required=True, choices=("kernel", "loclinear", "bspline", "fourier")
    )
    p.add_argument("--loss", choices=("mean", "quantile"), default="mean")
    p.add_argument("--tau", type=float, help="quantile level for --loss quantile")
    p.add_argument(
        "--taus", help="lo:hi:step net of levels; fits the whole quantile process"
    )
    p.add_argument("--bandwidth", type=float, help="window half-width")
    p.add_argument("--knots", help="comma-separated interior knots")
    p.add_argument("--nterms", type=int, help="number of sine/cosine frequency pairs")
    p.add_argument(
        "--fourier-no-linear",
        action="store_true",
        help="drop the linear carrier from the periodic basis",
    )
    p.add_argument("--grid", type=int, default=100, help="evaluation nodes")
    p.add_argument("--bootstrap", type=int, help="number of bootstrap draws")
    p.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    p.add_argument("--alpha", type=float, default=0.1, help="band miscoverage level")
    p.add_argument("--out", required=True, help="grid-function CSV for the estimate")
    p.add_argument("--stderr-out", help="grid-function CSV for bootstrap stderrs")
    p.add_argument("--draws-out", help="draws CSV for the bootstrap estimates")
    p.add_argument("--band-out", help="band CSV for the max-t confidence band")

    p = sub.add_parser("simulate", help="run a simulation experiment")
    p.add_argument("--config", help="JSON config file (defaults apply if omitted)")
    p.add_argument("--table", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--out", required=True, help="report CSV to write")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; replications always run serially",
    )

    return parser


def _parse_orderings(text: str):
    """'all' -> None; '1,2;2,1' -> ((1, 2), (2, 1))."""
    text = text.strip()
    if text == "all":
        return None
    try:
        return tuple(
            tuple(int(t) for t in part.split(",")) for part in text.split(";") if part
        )
    except ValueError:
        raise OutOfRangeError(
            f"cannot parse orderings {text!r}; expected 'all' or '1,2;2,1'"
        ) from None


def _cmd_monotonize(args) -> int:
    f = csvio.read_grid_function(args.input)
    orderings = _parse_orderings(args.orderings)
    out = monotonize(f, method="blend", orderings=orderings, lam=args.lam)
    csvio.write_grid_function(out, args.out)
    print(f"wrote {args.out}")
    return 0


def _length_report(before, after) -> None:
    for p, label in ((1.0, "L1"), (2.0, "L2"), (INF, "Linf")):
        b, a = lp_length(before, p), lp_length(after, p)
        ratio = 1.0 if b == 0.0 else a / b
        print(f"{label} length: original {b!r} monotonized {a!r} ratio {ratio!r}")


def _cmd_band(args) -> int:
    if args.input:
        band = csvio.read_band(args.input)
    elif args.lower and args.upper:
        band = Band(
            csvio.read_grid_function(args.lower), csvio.read_grid_function(args.upper)
        )
    elif args.center and args.stderr_file:
        center = csvio.read_grid_function(args.center)
        stderr = csvio.read_grid_function(args.stderr_file)
        if args.critical is not None:
            critical = args.critical
        elif args.draws:
            draws = csvio.read_draws(args.draws)
            critical = critical_value_max_t(center, draws, stderr, args.alpha)
            print(f"critical value: {critical!r}")
        else:
            raise OutOfRangeError("band: --center/--stderr needs --critical or --draws")
        band = assemble_band(center, stderr, critical)
    else:
        raise OutOfRangeError("band: give --input, --lower/--upper, or --center/--stderr")
    mono = monotonize_band(
        band, method=args.method, orderings=_parse_orderings(args.orderings), lam=args.lam
    )
    if args.out:
        csvio.write_band(mono, args.out)
        print(f"wrote {args.out}")
    _length_report(band, mono)
    return 0


def _cmd_estimate(args) -> int:
    # an option the fit would ignore is refused before anything is read
    levels = [a for a in (args.tau, args.taus) if a is not None]
    if len(levels) != (args.loss == "quantile"):
        raise OutOfRangeError(
            "--loss quantile needs --tau or --taus (not both); --loss mean takes neither"
        )
    if args.bootstrap is None and any((args.stderr_out, args.draws_out, args.band_out)):
        raise OutOfRangeError("--stderr-out/--draws-out/--band-out need --bootstrap")
    if args.bootstrap is not None and args.taus is not None:
        raise OutOfRangeError("--bootstrap does not apply to --taus processes")
    data = csvio.read_dataset(args.data)
    eval_axis = span_axis(data.x, args.grid)
    tau = 0.5 if args.tau is None else args.tau  # a --taus process sets its own levels
    loss = Loss("quantile", tau) if args.loss == "quantile" else MEAN_LOSS
    knots = None
    if args.knots:
        try:
            knots = tuple(float(t) for t in args.knots.split(","))
        except ValueError:
            raise OutOfRangeError(f"cannot parse knots {args.knots!r}") from None
    spec = EstimatorSpec(
        args.method,
        loss,
        eval_axis,
        bandwidth=args.bandwidth,
        knots=knots,
        n_terms=args.nterms,
        fourier_linear=not args.fourier_no_linear,
    )
    if args.taus is not None:
        proc = fit_quantile_process(data, spec, parse_tau_net(args.taus))
        csvio.write_grid_function(proc, args.out)
        print(f"wrote {args.out}")
        return 0
    result = fit(data, spec)
    # everything that can refuse the input runs before the first file is written
    if args.bootstrap is not None:
        stderr, draws = bootstrap(data, spec, args.bootstrap, args.seed)
        if args.band_out:
            critical = critical_value_max_t(result.estimate, draws, stderr, args.alpha)
            band = assemble_band(result.estimate, stderr, critical)
    csvio.write_grid_function(result.estimate, args.out)
    print(f"wrote {args.out}")
    if args.bootstrap is None:
        return 0
    if args.stderr_out:
        csvio.write_grid_function(stderr, args.stderr_out)
        print(f"wrote {args.stderr_out}")
    if args.draws_out:
        csvio.write_draws(draws, args.draws_out)
        print(f"wrote {args.draws_out}")
    if args.band_out:
        csvio.write_band(band, args.band_out)
        print(f"critical value: {critical!r}")
        print(f"wrote {args.band_out}")
    return 0


def _cmd_simulate(args) -> int:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise OutOfRangeError(f"{args.config}: invalid JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise OutOfRangeError(csvio._not_utf8(args.config, exc)) from None
        if not isinstance(raw, dict):
            raise OutOfRangeError(f"{args.config}: config must be a JSON object")
    else:
        raw = {}
    cfg = config_from_dict(raw)
    if args.threads < 1:
        raise OutOfRangeError("threads must be at least 1")
    report = run_experiment(cfg, table=args.table)
    report.write_csv(args.out)
    print(f"wrote table {args.table} report ({len(report.rows)} rows) to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("rearrange", "isotonize"):
            return _cmd_monotonize(args)
        if args.command == "band":
            return _cmd_band(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        return _cmd_simulate(args)
    except SystemExit as exc:
        # argparse signals usage problems this way; --help arrives as code 0
        if exc.code in (0, None):
            return 0
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return int(exc.code)
    except ValidationError as exc:
        print(f"monotonize: invalid input: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"monotonize: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"monotonize: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
