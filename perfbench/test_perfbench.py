"""Self-tests of the benchmark's own logic.

Run with: python3 -m pytest perfbench/test_perfbench.py
"""

import pytest

import checks
from spans import Span, Tracer, covered, self_time
from workloads import WORKLOADS, Solve, cli_argv, theory_budget


def good_record(**changes):
    record = {
        "label": "mp",
        "status": "ok",
        "iterations": 2520,
        "budget": 8411,
        "final_gap": 0.0496,
        "replay_gaps": [0.0496, 0.0496, 0.0496],
        "bary": {"finite": True, "min": 0.0, "sum": 1.0},
    }
    record.update(changes)
    return record


MP = WORKLOADS["mp-gauss100"]
IBP = WORKLOADS["ibp-gauss100"]


def sample(*records):
    return {"inputs": 1, "solves": list(records)}


def test_good_sample_passes():
    assert checks.sample_failures(sample(good_record()), MP) == []


@pytest.mark.parametrize(
    "changes",
    [
        {"replay_gaps": [0.0496, 0.0496000000000001, 0.0496]},  # replay mismatch
        {"replay_gaps": []},  # nothing replayed
        {"status": "iteration-cap"},  # wrong status
        {"final_gap": 0.0501},  # above eps
        {"final_gap": float("nan"), "replay_gaps": [float("nan")]},
        {"iterations": 8412},  # over the theory budget
        {"bary": {"finite": True, "min": -1e-3, "sum": 1.0}},
        {"bary": {"finite": True, "min": 0.0, "sum": 1.001}},
        {"bary": {"finite": False, "min": 0.0, "sum": 1.0}},
        {"bary": None},
    ],
)
def test_bad_sample_counts_as_failed(changes):
    assert checks.sample_failures(sample(good_record(**changes)), MP)


def test_worker_crash_and_missing_records_fail():
    assert checks.sample_failures({"error": "worker exited with code 1"}, MP)
    assert checks.sample_failures(sample(), MP)


def test_naive_ibp_must_underflow():
    stabilized = good_record(label="stabilized", budget=10000, iterations=117)
    naive = {"label": "naive", "status": "underflow-degenerate", "iterations": 9, "budget": 10000}
    assert checks.sample_failures(sample(stabilized, naive), IBP) == []
    converged = dict(naive, status="ok")
    assert checks.sample_failures(sample(stabilized, converged), IBP)


def test_parity_compares_code_gap_and_bytes():
    solve = MP.solves[0]
    record = good_record()
    cli = {"code": 0, "final_gap": 0.0496, "bary_bytes": b"0.5,0.5\r\n"}
    assert checks.parity_failures(cli, record, b"0.5,0.5\r\n", solve, 0) == []
    assert checks.parity_failures(dict(cli, code=3), record, b"0.5,0.5\r\n", solve, 0)
    assert checks.parity_failures(dict(cli, final_gap=0.0497), record, b"0.5,0.5\r\n", solve, 0)
    assert checks.parity_failures(cli, record, b"0.5,0.50\r\n", solve, 0)


def test_parse_cli_gap():
    out = "final duality gap: 0.049605240892788244\nstatus: ok\n"
    assert checks.parse_cli_gap(out) == 0.049605240892788244
    assert checks.parse_cli_gap("status: underflow-degenerate\n") is None


def test_self_time_on_hand_built_tree():
    spans = [
        Span("solve", 0.0, 10.0, -1),
        Span("step", 1.0, 3.0, 0),
        Span("step", 2.5, 4.0, 0),  # overlaps the previous child: counted once
        Span("inner", 1.5, 2.0, 1),  # a grandchild does not reduce the root's self time
        Span("cert", 9.0, 11.0, 0),  # clipped to the parent's end
    ]
    assert self_time(spans, 0) == pytest.approx(10.0 - 3.0 - 1.0)
    assert self_time(spans, 1) == pytest.approx(2.0 - 0.5)
    assert self_time(spans, 3) == pytest.approx(0.5)


def test_covered_merges_overlaps():
    assert covered([(0, 1), (0.5, 2), (3, 4), (3.2, 3.5)]) == pytest.approx(3.0)
    assert covered([]) == 0.0


def test_tracer_nests_spans_and_counts_work():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tick = tracer.counting("sweep", lambda: None)

    def inner():
        tick()
        tick()

    inner_traced = tracer.wrap("inner", inner, work_counter="sweep")
    outer = tracer.wrap("outer", lambda: [inner_traced(), inner_traced()])
    outer()
    names = [(s.name, s.parent, s.work) for s in tracer.spans]
    assert names == [("outer", -1, None), ("inner", 0, 2), ("inner", 0, 2)]
    assert tracer.counts["sweep"] == 4
    assert self_time(tracer.spans, 0) == pytest.approx(5.0 - 2.0)


def test_patch_reports_missing_hook():
    class Module:
        present = staticmethod(lambda: 1)

    tracer = Tracer()
    assert tracer.patch(Module, "present", "p")
    assert Module.present() == 1 and tracer.spans[0].name == "p"
    assert not tracer.patch(Module, "absent", "a")


def test_budgets_follow_the_paper():
    mp = Solve("mp", "mp", "ok", eps=0.05)
    de = Solve("de", "de", "ok", eps=0.25)
    assert theory_budget(mp, 100, 1.0) == 8411
    assert theory_budget(de, 100, 1.0) == 11341
    capped = Solve("de", "de", "iteration-cap", eps=0.25, max_iters=20)
    assert theory_budget(capped, 100, 1.0) == 20


def test_cli_argv_matches_the_worker_solve():
    stabilized, naive = IBP.solves
    argv = cli_argv({"gaussian_seed": 7}, stabilized, "out")
    assert argv[:2] == ["barycenter", "--algo"] and "--stabilized" in argv
    assert argv[argv.index("--seed") + 1] == "7" and "--normalize-cost" in argv
    argv = cli_argv({"hists": "h.csv", "cost": "c.csv"}, WORKLOADS["de-small"].solves[0], "out")
    assert "csv:c.csv" in argv and "--normalize-cost" not in argv
    assert "--stabilized" not in cli_argv({"gaussian_seed": 0}, naive, "out")
