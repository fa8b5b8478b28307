"""Per-run convergence records, the certified driver loop, and CSV emission.

Every solver runs through :func:`run_certified`, which owns the iteration
budget, the recording cadence, the clock, the exact certificate and the
early stop, so the three solvers share one definition of a record.

All files are plain CSV with '.' decimals, CRLF line endings and no quoted
fields.  Floats are written with `repr`, which round-trips exactly in IEEE
double precision, so a stored certificate can be re-derived from the stored
iterates without loss.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    SIMPLEX_ATOL,
    BarycenterProblem,
    ConfigError,
    DomainError,
    DualPoint,
    ParseError,
    PrimalPoint,
    certificate_values,
    vectorize_cost,
)
from .data import _open_text, _parse_floats

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

    config: dict
    records: list[RunRecord] = field(default_factory=list)
    final_bary: np.ndarray | None = None
    final_x: PrimalPoint | None = None
    final_y: DualPoint | None = None
    final_gap: float | None = None
    iterations_run: int = 0
    status: str = "ok"

    def add(self, iteration, elapsed_seconds, duality_gap, objective, optimality_gap=None):
        if self.records and iteration <= self.records[-1].iteration:
            raise ValueError("record iterations must be strictly increasing")
        self.records.append(
            RunRecord(iteration, elapsed_seconds, duality_gap, objective, optimality_gap)
        )


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
    if not (stopped or gap <= eps):
        report.status = "iteration-cap"
    return report


def _fmt(value):
    return repr(float(value))


def _row(values):
    """Floats as one CSV row, each value's repr: the repr of their list, formatted in C."""
    return repr(np.asarray(values, dtype=float).tolist())[1:-1].replace(", ", ",")


def write_report_csv(report, path):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\r\n")
        for rec in report.records:
            optimality = "" if rec.optimality_gap is None else _fmt(rec.optimality_gap)
            fh.write(
                f"{rec.iteration},{rec.elapsed_seconds:.6f},{_fmt(rec.duality_gap)},"
                f"{_fmt(rec.objective)},{optimality}\r\n"
            )


def write_barycenter_csv(bary, path):
    with open(path, "w", newline="") as fh:
        fh.write(_row(bary) + "\r\n")


def write_iterates_csv(prob, x, y, path):
    """Self-contained dump of a problem and a primal/dual pair.

    One labeled row per vector: the rebuilt problem and points reproduce any
    certificate evaluated on them to full double precision.  Rows are
    written one at a time, so no more than a row's text is held.
    """
    with open(path, "w", newline="") as fh:
        fh.write("kind,index,values...\r\n")
        for kind, rows in (
            ("cost_row", prob.cost.C),
            ("measure", prob.measures),
            ("plan", x.plans),
            ("bary", x.bary[None]),
            ("dual", y.duals),
        ):
            for i, row in enumerate(rows):
                fh.write(f"{kind},{i},{_row(row)}\r\n")


def read_iterates_csv(path):
    """Inverse of :func:`write_iterates_csv`.

    With n the length of the first cost row and m the number of measures,
    a file must hold n cost rows, m measures and m plans, one barycenter and
    m duals, of n, n, n^2, n and 2n finite values, each kind indexed exactly
    0..k-1.  Lines are split on commas, as the writer writes them, so a
    quoted field is not a value.  Anything else raises a ParseError naming
    the line.  The measures are then validated like every other input, and
    the point must lie in the feasible domain, or a DomainError names the
    line: plans and barycenter nonnegative with mass within SIMPLEX_ATOL of
    1, duals in [-1, 1].  A gap evaluated off that domain certifies nothing.
    """
    groups = {kind: [] for kind in ("cost_row", "measure", "plan", "bary", "dual")}
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            row = line.strip().split(",")
            if row == [""] or row[0] == "kind":
                continue
            kind = row[0]
            if kind not in groups:
                raise ParseError(f"{path}: line {lineno}: unknown row kind {kind!r}")
            try:
                index = int(row[1])
            except (IndexError, ValueError):
                raise ParseError(f"{path}: line {lineno}: index is not an integer") from None
            groups[kind].append((index, lineno, _parse_floats(path, lineno, row[2:])))
    if not all(groups.values()):
        raise ParseError(f"{path}: incomplete iterates file")

    n = groups["cost_row"][0][2].shape[0]
    m = len(groups["measure"])
    shapes = {
        "cost_row": (n, n), "measure": (m, n), "plan": (m, n * n), "bary": (1, n), "dual": (m, 2 * n),
    }
    arrays, lines = {}, {}
    for kind, (count, width) in shapes.items():
        rows = sorted(groups[kind])
        for position, (index, lineno, values) in enumerate(rows):
            if index != position:
                raise ParseError(f"{path}: line {lineno}: {kind} index {index}, expected {position}")
            if position >= count:
                raise ParseError(f"{path}: line {lineno}: more than {count} {kind} rows")
            if values.shape[0] != width:
                raise ParseError(f"{path}: line {lineno}: {kind} row length is not {width}")
        if len(rows) < count:
            last = rows[-1][1]
            raise ParseError(f"{path}: line {last}: {len(rows)} {kind} rows, expected {count}")
        arrays[kind] = np.array([values for _, _, values in rows])
        lines[kind] = [lineno for _, lineno, _ in rows]

    prob = BarycenterProblem.create(arrays["measure"], vectorize_cost(arrays["cost_row"]))
    checks = [
        ("plan", (arrays["plan"] >= 0).all(axis=1), "has a negative entry"),
        ("bary", (arrays["bary"] >= 0).all(axis=1), "has a negative entry"),
        ("plan", abs(arrays["plan"].sum(axis=1) - 1.0) <= SIMPLEX_ATOL, "mass is not 1"),
        ("bary", abs(arrays["bary"].sum(axis=1) - 1.0) <= SIMPLEX_ATOL, "mass is not 1"),
        ("dual", (abs(arrays["dual"]) <= 1.0).all(axis=1), "has an entry outside [-1, 1]"),
    ]
    for kind, ok, problem in checks:
        for lineno, good in zip(lines[kind], ok):
            if not good:
                raise DomainError(f"{path}: line {lineno}: {kind} {problem}")
    x = PrimalPoint(plans=arrays["plan"], bary=arrays["bary"][0])
    y = DualPoint(duals=arrays["dual"])
    return prob, x, y
