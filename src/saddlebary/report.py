"""Per-run convergence records, the certified driver loop, and CSV emission.

Every solver runs through :func:`run_certified`, which owns the iteration
budget, the recording cadence, the clock, the exact certificate and the
early stop, so the three solvers share one definition of a record.

All files are plain RFC-4180-style CSV with '.' decimals.  Floats are written
with `repr`, which round-trips exactly in IEEE double precision, so a stored
certificate can be re-derived from the stored iterates without loss.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BarycenterProblem,
    ConfigError,
    DualPoint,
    ParseError,
    PrimalPoint,
    certificate_values,
    vectorize_cost,
)

REPORT_COLUMNS = ("iteration", "elapsed_seconds", "duality_gap", "objective", "optimality_gap")


@dataclass(frozen=True)
class RunRecord:
    iteration: int
    elapsed_seconds: float
    duality_gap: float
    objective: float
    optimality_gap: float | None = None


@dataclass
class RunReport:
    """Convergence log of a single solver run plus its final iterates.

    `final_x`/`final_y` hold the certified pair the final gap was evaluated
    at, so every stored certificate can be replayed from disk.
    """

    algorithm: str  # "mp", "de" or "ibp"
    config: dict
    records: list[RunRecord] = field(default_factory=list)
    final_bary: np.ndarray | None = None
    final_x: PrimalPoint | None = None
    final_y: DualPoint | None = None
    final_gap: float | None = None
    iterations_run: int = 0
    converged: bool = False
    status: str = "ok"

    def add(self, iteration, elapsed_seconds, duality_gap, objective, optimality_gap=None):
        if self.records and iteration <= self.records[-1].iteration:
            raise ValueError("record iterations must be strictly increasing")
        self.records.append(
            RunRecord(iteration, elapsed_seconds, duality_gap, objective, optimality_gap)
        )

    @property
    def failed(self):
        return self.status not in ("ok", "iteration-cap")


def run_certified(report, prob, eps, total, step, certified, log_stride=None, oracle=None, timer=None):
    """Step a solver, recording and stopping on its exact duality gap.

    `step(k)` advances the solver to step k and returns True once the
    solver's own stop rule holds.  `certified()` returns `(x, y, objective)`:
    the pair whose exact gap is the certificate, and the objective column
    (None logs the primal value).  A record is taken every `log_stride`-th
    step (default: about 200 records over `total`), at the last step and
    where the solver stops itself; the run ends early once a recorded gap
    reaches `eps`.  `final_x`/`final_y` follow every record, so a run that
    raises mid-way still holds its last certified pair.  Returns `report`.
    """
    if total < 1:
        raise ConfigError("iteration budget must be at least 1")
    stride = max(1, total // 200) if log_stride is None else int(log_stride)
    if stride < 1:
        raise ConfigError("log stride must be at least 1")
    report.config["log_stride"] = stride
    clock = timer if timer is not None else time.perf_counter
    t0 = clock()

    gap = math.inf
    for k in range(1, total + 1):
        report.iterations_run = k
        stopped = bool(step(k))
        if stopped or k % stride == 0 or k == total:
            x, y, objective = certified()
            primal_value, dual_value = certificate_values(x, y, prob)
            gap = primal_value - dual_value
            report.add(
                k,
                clock() - t0,
                gap,
                primal_value if objective is None else objective,
                None if oracle is None else oracle(x.bary),
            )
            report.final_x, report.final_y = x, y
            if stopped or gap <= eps:
                break
    report.final_bary = report.final_x.bary
    report.final_gap = gap
    report.converged = stopped or gap <= eps
    if not report.converged:
        report.status = "iteration-cap"
    return report


def _fmt(value):
    return repr(float(value))


def write_report_csv(report, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for rec in report.records:
            writer.writerow(
                [
                    rec.iteration,
                    f"{rec.elapsed_seconds:.6f}",
                    _fmt(rec.duality_gap),
                    _fmt(rec.objective),
                    "" if rec.optimality_gap is None else _fmt(rec.optimality_gap),
                ]
            )


def write_barycenter_csv(bary, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([_fmt(v) for v in np.asarray(bary, dtype=float)])


def write_iterates_csv(prob, x, y, path):
    """Self-contained dump of a problem and a primal/dual pair.

    One labeled row per vector: the rebuilt problem and points reproduce any
    certificate evaluated on them to full double precision.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "index", "values..."])
        for j, row in enumerate(prob.cost.C):
            writer.writerow(["cost_row", j] + [_fmt(v) for v in row])
        for i, q in enumerate(prob.measures):
            writer.writerow(["measure", i] + [_fmt(v) for v in q])
        for i, plan in enumerate(x.plans):
            writer.writerow(["plan", i] + [_fmt(v) for v in plan])
        writer.writerow(["bary", 0] + [_fmt(v) for v in x.bary])
        for i, dual in enumerate(y.duals):
            writer.writerow(["dual", i] + [_fmt(v) for v in dual])


def read_iterates_csv(path):
    """Inverse of :func:`write_iterates_csv`."""
    groups = {"cost_row": [], "measure": [], "plan": [], "dual": []}
    bary = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or row[0] == "kind":
                continue
            kind = row[0]
            try:
                values = np.array([float(v) for v in row[2:]])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            if kind == "bary":
                bary = values
            elif kind in groups:
                groups[kind].append((int(row[1]), values))
            else:
                raise ParseError(f"{path}: line {lineno}: unknown row kind {kind!r}")
    if bary is None or not groups["cost_row"] or not groups["measure"] or not groups["plan"]:
        raise ParseError(f"{path}: incomplete iterates file")

    def ordered(kind):
        return np.array([v for _, v in sorted(groups[kind], key=lambda t: t[0])])

    cost = vectorize_cost(ordered("cost_row"))
    measures = ordered("measure")
    prob = BarycenterProblem(
        n=measures.shape[1], m=measures.shape[0], measures=measures, cost=cost
    )
    x = PrimalPoint(plans=ordered("plan"), bary=bary)
    y = DualPoint(duals=ordered("dual"))
    return prob, x, y
