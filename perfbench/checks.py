"""Output checks: one list of failure messages per sample or parity run.

A sample is failed when any message is returned.  Nothing is retried.
"""

from __future__ import annotations

import math

SIMPLEX_TOL = 1e-9


def solve_failures(record, solve):
    """Checks on one solver call's record, as the worker reports it.

    The record carries `status`, `iterations`, `budget`, `final_gap`,
    `replay_gaps` (the distinct certificates replayed from iterates.csv)
    and `bary` (`finite`, `min`, `sum`), the last three absent when
    the solver returned no barycenter.
    """
    where = solve.label
    failures = []
    if record["status"] != solve.expect_status:
        failures.append(f"{where}: status {record['status']!r}, expected {solve.expect_status!r}")
    if record["iterations"] > record["budget"]:
        failures.append(f"{where}: {record['iterations']} iterations exceed the budget {record['budget']}")
    if solve.expect_status == "underflow-degenerate":
        return failures
    gap = record.get("final_gap")
    if gap is None or not math.isfinite(gap):
        failures.append(f"{where}: final gap {gap!r} is not a finite number")
    elif solve.gap_within_eps and not gap <= solve.eps:
        failures.append(f"{where}: final gap {gap!r} above eps {solve.eps!r}")
    replays = record.get("replay_gaps") or []
    if not replays:
        failures.append(f"{where}: no certificate replayed from iterates.csv")
    for replayed in replays:
        if replayed != gap:
            failures.append(f"{where}: replayed gap {replayed!r} differs from final gap {gap!r}")
            break
    bary = record.get("bary")
    if bary is None:
        failures.append(f"{where}: no barycenter")
    elif not (
        bary["finite"] and bary["min"] >= 0.0 and abs(bary["sum"] - 1.0) <= SIMPLEX_TOL
    ):
        failures.append(f"{where}: barycenter off the simplex: {bary}")
    return failures


def sample_failures(sample, workload):
    """All failures of one timed sample: a worker crash or any solve check."""
    if sample.get("error"):
        return [sample["error"]]
    records = sample.get("solves", [])
    expected = len(workload.solves) * sample.get("inputs", 1)
    if len(records) != expected:
        return [f"{len(records)} solver records, expected {expected}"]
    failures = []
    for i, record in enumerate(records):
        failures += solve_failures(record, workload.solves[i % len(workload.solves)])
    return failures


def parity_failures(cli, worker_record, worker_bary_bytes, solve, expected_code):
    """Compare a `saddlebary barycenter --timing off` run with the worker's solve.

    Only the exit code, the printed final gap and the barycenter.csv bytes
    are compared; stderr is ignored.
    """
    where = f"cli parity ({solve.label})"
    failures = []
    if cli["code"] != expected_code:
        failures.append(f"{where}: exit code {cli['code']}, expected {expected_code}")
    printed = cli.get("final_gap")
    worker_gap = worker_record.get("final_gap")
    if printed != worker_gap:
        failures.append(f"{where}: printed gap {printed!r}, worker gap {worker_gap!r}")
    if cli.get("bary_bytes") != worker_bary_bytes:
        failures.append(f"{where}: barycenter.csv bytes differ")
    return failures


def parse_cli_gap(stdout):
    """The float after 'final duality gap:' in the CLI's stdout, or None."""
    for line in stdout.splitlines():
        if line.startswith("final duality gap:"):
            return float(line.split(":", 1)[1])
    return None
