"""The benchmark's workloads: their inputs, solver calls and expected outcomes.

Each workload solves one or more problem inputs with one or more solver
calls, exactly as `saddlebary barycenter` would on the same input.  Inputs
are made from the benchmark seed:

* `gaussian`: the Gaussian suite (10 Gaussians on 100 grid points) with the
  suite seed equal to the benchmark seed; the CLI reads it as
  `--gaussian --seed <seed>`.  mp's iteration count barely depends on the
  suite (2,478 or 2,520 across suite seeds 0-7).
* `gaussian-reordered`: the suite of seed 0 with its measures put in an
  order drawn from the benchmark seed, written to a CSV with a grid header
  that the CLI reads with `--input`.  The work of de and IBP depends on the
  suite: de's AM sweeps in 20 outer steps range from 2,034 to 4,283 across
  suite seeds 0-11, and stabilized IBP's sweeps from 110 to 125 across
  seeds 0-9.  A reordering leaves the work unchanged (2,588 sweeps for every
  order tried) while the input bytes and the summation order do change.
* `criterion2`: acceptance criterion 2's random non-grid instances 1 and 2,
  with the support points and the measures relabelled by a permutation
  drawn from the benchmark seed.  Fresh instances would move the outer-step
  count by up to 2.8x (625 to 1,725 across criterion 2's 20 seeds);
  relabelling keeps it and changes the sweep count by a few percent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Solve:
    """One solver call per input, with what its report must show."""

    label: str
    algo: str  # "mp", "de" or "ibp"
    expect_status: str
    eps: float | None = None
    max_iters: int | None = None
    reg: float | None = None
    stabilized: bool = False
    timed: bool = True  # counts toward solve_s, iterations and ns_per_entry
    gap_within_eps: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    source: str  # "gaussian", "gaussian-reordered" or "criterion2"
    solves: tuple
    instances: tuple = field(default=())  # criterion-2 instance seeds


IBP_ITERS = 10000  # the CLI's sweep cap for ibp when --max-iters is absent

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mp-gauss100",
            source="gaussian",
            solves=(Solve("mp", "mp", "ok", eps=0.05, gap_within_eps=True),),
        ),
        Workload(
            name="de-gauss100",
            source="gaussian-reordered",
            solves=(Solve("de", "de", "iteration-cap", eps=0.25, max_iters=20),),
        ),
        Workload(
            name="de-small",
            source="criterion2",
            instances=(1, 2),
            solves=(Solve("de", "de", "ok", eps=0.25, gap_within_eps=True),),
        ),
        Workload(
            name="ibp-gauss100",
            source="gaussian-reordered",
            solves=(
                Solve("stabilized", "ibp", "ok", reg=1e-3, stabilized=True),
                Solve("naive", "ibp", "underflow-degenerate", reg=1e-5, timed=False),
            ),
        ),
    )
}

CRITERION2_SIZES = [(n, m) for n in (4, 8, 16) for m in (2, 5)]


def criterion2_instance(seed):
    """Acceptance criterion 2's instance `seed`: random cost, Dirichlet measures."""
    n, m = CRITERION2_SIZES[seed % len(CRITERION2_SIZES)]
    rng = np.random.default_rng(seed)
    C = rng.uniform(0.0, 1.0, (n, n))
    C /= C.max()
    measures = rng.dirichlet(np.ones(n), m)
    return measures, C


def _csv_row(values):
    return ",".join(repr(float(v)) for v in values)


def _write_hists(path, measures, grid=None):
    lines = [] if grid is None else ["# grid: " + _csv_row(grid)]
    lines += [_csv_row(q) for q in measures]
    Path(path).write_text("\n".join(lines) + "\n")


def make_inputs(workload, seed, workdir, sb):
    """Problem inputs for one run: dicts the worker and the CLI both read.

    `sb` is the imported package; only public names are used.
    """
    workdir = Path(workdir)
    if workload.source == "gaussian":
        return [{"gaussian_seed": int(seed)}]
    if workload.source == "gaussian-reordered":
        measures, grid = sb.gaussian_suite(sb.GaussianSuiteSpec(seed=0))
        order = np.random.default_rng(seed).permutation(len(measures))
        path = workdir / "gauss100.csv"
        _write_hists(path, measures[order], grid)
        return [{"hists": str(path)}]
    if workload.source == "criterion2":
        inputs = []
        for instance in workload.instances:
            measures, C = criterion2_instance(instance)
            rng = np.random.default_rng([int(seed), instance])
            support = rng.permutation(C.shape[0])
            order = rng.permutation(measures.shape[0])
            hists = workdir / f"c2-{instance}.csv"
            cost = workdir / f"c2-{instance}-cost.csv"
            _write_hists(hists, measures[order][:, support])
            cost.write_text("\n".join(_csv_row(r) for r in C[np.ix_(support, support)]) + "\n")
            inputs.append({"hists": str(hists), "cost": str(cost)})
        return inputs
    raise ValueError(f"unknown input source {workload.source!r}")


def cli_argv(inp, solve, outdir):
    """`saddlebary barycenter` arguments equivalent to one worker solve."""
    argv = ["barycenter", "--algo", solve.algo, "--timing", "off", "--out", str(outdir)]
    if "gaussian_seed" in inp:
        argv += ["--gaussian", "--seed", str(inp["gaussian_seed"])]
    else:
        argv += ["--input", inp["hists"]]
    if "cost" in inp:
        argv += ["--cost", "csv:" + inp["cost"]]
    else:
        argv += ["--normalize-cost"]
    if solve.eps is not None:
        argv += ["--eps", repr(solve.eps)]
    if solve.max_iters is not None:
        argv += ["--max-iters", str(solve.max_iters)]
    if solve.reg is not None:
        argv += ["--reg", repr(solve.reg)]
    if solve.stabilized:
        argv += ["--stabilized"]
    return argv


def expected_exit_code(solve):
    return 4 if solve.expect_status == "underflow-degenerate" else 0


def theory_budget(solve, n, d_inf):
    """The paper's iteration budget, independent of the solver's own config.

    mp: ceil(8 d_inf sqrt(6 n ln n) / eps); de: ceil(12 theta / eps) with
    theta = (50 ln n + 6) d_inf; ibp: its sweep cap.  A cap set by the
    workload lowers the budget.
    """
    if solve.algo == "mp":
        budget = math.ceil(8.0 * d_inf * math.sqrt(6.0 * n * math.log(n)) / solve.eps)
    elif solve.algo == "de":
        budget = math.ceil(12.0 * (50.0 * math.log(n) + 6.0) * d_inf / solve.eps)
    else:
        budget = IBP_ITERS
    return budget if solve.max_iters is None else min(budget, solve.max_iters)
