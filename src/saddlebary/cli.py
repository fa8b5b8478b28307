"""Command-line front end: data ingestion, benchmark suite, solver runs.

Subcommands
-----------
barycenter      run one algorithm (mp, de or ibp) on a CSV problem or the
                Gaussian suite; writes report.csv, barycenter.csv and
                iterates.csv into the output directory.
gap             replay the exact duality-gap certificate of saved iterates.
gaussian-bench  run all three algorithms sequentially on the Gaussian suite
                with the exact-barycenter optimality-gap column filled in.

Exit codes: 0 success, 2 parse/configuration error (among them a cost
whose largest entry is subnormal, for mp and de, and, for every solver and
for `gap`, one too large for the certificate: 10 max(m, 2) times its
largest entry past the largest double), 3 numerical failure,
4 underflow-degenerate (naive IBP).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .area_convex import THETA_VARIANTS, run_dual_extrapolation
from .core import (
    BarycenterProblem,
    ConfigError,
    CostData,
    NumericalFailure,
    SaddlebaryError,
    duality_gap,
)
from .data import GaussianSuiteSpec, gaussian_suite, load_cost_csv, load_histograms
from .ibp import IBPConfig, ibp_barycenter
from .mirror_prox import SCALING_VARIANTS, run_mirror_prox
from .oracles_1d import Grid1D, barycenter_1d_quantile, grid_cost, optimality_gap
from .report import (
    read_iterates_csv,
    write_barycenter_csv,
    write_iterates_csv,
    write_report_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNDERFLOW = 4


def _build_inputs(args):
    """Problem, grid (a :class:`Grid1D` or None), and the cost-normalization factor."""
    if args.input is not None:
        measures, points = load_histograms(args.input, normalize=args.normalize)
    elif args.gaussian:
        spec = GaussianSuiteSpec(seed=args.seed)
        measures, points = gaussian_suite(spec)
    else:
        raise ConfigError("supply --input <csv> or --gaussian")
    grid = None if points is None else Grid1D(points=points)

    if args.cost == "sqdist":
        if grid is None:
            raise ConfigError("squared-distance cost needs support points; supply a grid header")
        cost = grid_cost(grid)
    elif args.cost.startswith("csv:"):
        cost = CostData(C=load_cost_csv(args.cost[4:]))
    else:
        raise ConfigError(f"unknown cost specification {args.cost!r}")
    scale = 1.0
    if args.normalize_cost:
        scale = cost.d_inf
        if scale <= 0:
            raise ConfigError("cannot normalize an all-zero cost matrix")
        cost = CostData(C=cost.C / scale)
    prob = BarycenterProblem(measures=measures, cost=cost)
    return prob, grid, scale


def _make_oracle(args, prob, grid, scale):
    """Exact optimality-gap callback, available on squared-distance grids.

    Reported in the solver's cost units: the raw quantile-oracle value is
    divided by the normalization factor when the cost was rescaled.
    """
    if grid is None or args.cost != "sqdist":
        return None
    p_star = barycenter_1d_quantile(prob.measures, grid)
    return lambda bary: optimality_gap(bary, p_star, prob, grid) / scale


def _timer(args):
    return (lambda: 0.0) if args.timing == "off" else time.perf_counter


def _make_outdir(path):
    """Create the output directory up front, so a bad --out fails before the solve."""
    outdir = Path(path)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _write_outputs(outdir, prefix, report, prob):
    write_report_csv(report, outdir / f"{prefix}report.csv")
    if report.final_bary is not None:
        write_barycenter_csv(report.final_bary, outdir / f"{prefix}barycenter.csv")
    if report.final_x is not None and report.final_y is not None:
        write_iterates_csv(prob, report.final_x, report.final_y, outdir / f"{prefix}iterates.csv")


def _run_algorithm(algo, args, prob, oracle, timer):
    """Dispatch one solver run; returns (exit_code, report)."""
    driver = {"log_stride": args.log_stride, "oracle": oracle, "timer": timer}
    if algo == "mp":
        _, _, report = run_mirror_prox(
            prob, args.eps, variant=args.scaling, max_iters=args.max_iters, **driver
        )
        return EXIT_OK, report
    if algo == "de":
        _, _, report = run_dual_extrapolation(
            prob, args.eps, theta_variant=args.theta, max_outer=args.max_iters, **driver
        )
        return EXIT_OK, report
    # IBPConfig owns the default sweep cap and rejects a cap below 1.
    iters = {} if args.max_iters is None else {"iters": args.max_iters}
    cfg = IBPConfig(reg=args.reg, stabilized=args.stabilized, **iters)
    _, report = ibp_barycenter(prob, cfg, **driver)
    code = EXIT_UNDERFLOW if report.status == "underflow-degenerate" else EXIT_OK
    return code, report


def run_bench(args):
    """The `barycenter` subcommand: build, solve, emit files, print the gap."""
    prob, grid, scale = _build_inputs(args)
    oracle = _make_oracle(args, prob, grid, scale)
    outdir = _make_outdir(args.out)
    code, report = _run_algorithm(args.algo, args, prob, oracle, _timer(args))
    _write_outputs(outdir, "", report, prob)
    if report.final_gap is not None:
        print(f"final duality gap: {report.final_gap!r}")
    print(f"status: {report.status}")
    return code


def cmd_gap(args):
    prob, x, y = read_iterates_csv(args.iterates)
    print(f"duality gap: {duality_gap(x, y, prob)!r}")
    return EXIT_OK


def cmd_gaussian_bench(args):
    if args.input is None:
        args.gaussian = True
    prob, grid, scale = _build_inputs(args)
    if grid is None:
        raise ConfigError("gaussian-bench needs support points for the exact-barycenter column")
    oracle = _make_oracle(args, prob, grid, scale)
    timer = _timer(args)
    outdir = _make_outdir(args.out)
    write_barycenter_csv(barycenter_1d_quantile(prob.measures, grid), outdir / "true_barycenter.csv")
    worst = EXIT_OK
    for algo in ("mp", "de", "ibp"):
        code, report = _run_algorithm(algo, args, prob, oracle, timer)
        _write_outputs(outdir, f"{algo}_", report, prob)
        gap_text = "n/a" if report.final_gap is None else repr(report.final_gap)
        print(f"{algo}: status={report.status} final_gap={gap_text}")
        if algo != "ibp":
            worst = max(worst, code)
    return worst


def build_parser():
    parser = argparse.ArgumentParser(
        prog="saddlebary",
        description="Wasserstein barycenter solvers with exact duality-gap certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--eps", type=float, default=0.05,
            help="target duality gap (mp, de); ibp ignores it and stops on its marginal tolerance",
        )
        p.add_argument("--max-iters", type=int, default=None, help="iteration cap/override")
        p.add_argument("--input", type=str, default=None, help="CSV of histogram rows")
        p.add_argument("--normalize", action="store_true", help="rescale input rows onto the simplex")
        p.add_argument("--gaussian", action="store_true", help="use the Gaussian benchmark suite")
        p.add_argument("--seed", type=int, default=0, help="suite seed")
        p.add_argument("--cost", type=str, default="sqdist", help="'sqdist' or 'csv:<path>'")
        p.add_argument("--normalize-cost", action="store_true", help="rescale cost to max entry 1")
        p.add_argument("--reg", type=float, default=0.01, help="entropic regularization (ibp)")
        p.add_argument(
            "--stabilized", action="store_true", help="ibp by absorbed-kernel scaling (small reg)"
        )
        p.add_argument(
            "--scaling", choices=SCALING_VARIANTS, default="derived",
            help="mirror-prox step scaling variant",
        )
        p.add_argument(
            "--theta", choices=THETA_VARIANTS, default="exact",
            help="regularizer range constant (dual extrapolation)",
        )
        p.add_argument("--out", type=str, default=".", help="output directory")
        p.add_argument("--log-stride", type=int, default=None, help="record every k-th iteration")
        p.add_argument(
            "--timing", choices=("wall", "off"), default="wall",
            help="elapsed-seconds source ('off' writes zeros for reproducible bytes)",
        )

    p_bary = sub.add_parser("barycenter", help="run one solver")
    p_bary.add_argument("--algo", choices=("mp", "de", "ibp"), required=True)
    add_common(p_bary)

    p_gap = sub.add_parser("gap", help="replay a stored certificate")
    p_gap.add_argument("--iterates", type=str, required=True, help="iterates.csv to evaluate")

    p_bench = sub.add_parser("gaussian-bench", help="run mp, de and ibp on the Gaussian suite")
    add_common(p_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "input", None) is not None and getattr(args, "gaussian", False):
        print("error: --input and --gaussian are mutually exclusive", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "barycenter":
            return run_bench(args)
        if args.command == "gap":
            return cmd_gap(args)
        return cmd_gaussian_bench(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SaddlebaryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
