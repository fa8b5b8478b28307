"""The certified driver shared by mp, de and ibp: record, stop and finalise."""

import csv
from dataclasses import asdict

import numpy as np
import pytest

import saddlebary as sb
from saddlebary.cli import main
from conftest import random_problem, zero_dual

TOTAL, STRIDE = 10, 3


def _run(algo, prob):
    """One run of `algo` that never stops early: TOTAL steps, a record every STRIDE."""
    if algo == "mp":
        return sb.run_mirror_prox(prob, 1e-12, max_iters=TOTAL, log_stride=STRIDE)[2]
    if algo == "de":
        return sb.run_dual_extrapolation(prob, 1e-12, max_outer=TOTAL, log_stride=STRIDE)[2]
    cfg = sb.IBPConfig(reg=0.1, iters=TOTAL, stabilized=algo == "ibp-stabilized")
    return sb.ibp_barycenter(prob, cfg, log_stride=STRIDE)[1]


@pytest.mark.parametrize("algo", ["mp", "de", "ibp-naive", "ibp-stabilized"])
def test_driver_contract(algo):
    prob = random_problem(31, 3, 2, zero_diagonal=True)
    report = _run(algo, prob)
    assert [r.iteration for r in report.records] == [3, 6, 9, 10]
    assert report.iterations_run == TOTAL
    assert report.status == "iteration-cap"
    assert report.final_gap == report.records[-1].duality_gap
    assert report.final_gap == sb.duality_gap(report.final_x, report.final_y, prob)


@pytest.mark.parametrize("algo", ["mp", "de", "ibp-naive", "ibp-stabilized"])
def test_report_config_holds_the_config_as_built(algo):
    prob = random_problem(37, 3, 2, zero_diagonal=True)
    if algo == "mp":
        cfg = sb.mp_config(prob, 1e-12)
    elif algo == "de":
        cfg = sb.de_config(prob, 1e-12)
    else:
        cfg = sb.IBPConfig(reg=0.1, iters=TOTAL, stabilized=algo == "ibp-stabilized")
    assert asdict(cfg).items() <= _run(algo, prob).config.items()


class _Constant:
    """A stand-in solver whose certified pair never changes."""

    def __init__(self, prob, stop_at=None):
        self.prob, self.stop_at, self.steps = prob, stop_at, 0
        rng = np.random.default_rng(5)
        self.x = sb.PrimalPoint(
            plans=rng.dirichlet(np.ones(prob.n**2), prob.m), bary=rng.dirichlet(np.ones(prob.n))
        )
        self.y = zero_dual(prob.n, prob.m)

    def step(self, k):
        self.steps = k
        return k == self.stop_at

    def certified(self):
        return self.x, self.y, None

    def run(self, eps, total, log_stride=None):
        report = sb.RunReport(config={})
        return sb.run_certified(
            report, self.prob, eps, total, self.step, self.certified,
            log_stride=log_stride, timer=lambda: 0.0,
        )


class TestRunCertified:
    def test_records_where_the_stop_rule_fires(self):
        prob = random_problem(32, 3, 2)
        solver = _Constant(prob, stop_at=5)
        report = solver.run(-np.inf, 20, log_stride=3)
        assert [r.iteration for r in report.records] == [3, 5]
        assert solver.steps == 5 and report.iterations_run == 5
        assert report.status == "ok"

    def test_stops_at_first_record_within_eps(self):
        prob = random_problem(33, 3, 2)
        solver = _Constant(prob)
        gap = sb.duality_gap(solver.x, solver.y, prob)
        report = solver.run(gap, 20, log_stride=4)
        assert [r.iteration for r in report.records] == [4]
        assert report.status == "ok" and report.final_gap == gap
        # the objective column falls back to the primal value
        assert report.records[0].objective == sb.certificate_values(solver.x, solver.y, prob)[0]
        assert np.array_equal(report.final_bary, solver.x.bary)

    def test_default_stride(self):
        prob = random_problem(34, 3, 2)
        report = _Constant(prob).run(-np.inf, 1000)
        assert report.config["log_stride"] == 5
        assert len(report.records) == 200

    @pytest.mark.parametrize("stride", [0, -3])
    def test_rejects_stride_below_one(self, stride):
        prob = random_problem(35, 3, 2)
        with pytest.raises(sb.ConfigError):
            _Constant(prob).run(0.1, 10, log_stride=stride)

    def test_rejects_empty_budget(self):
        prob = random_problem(36, 3, 2)
        with pytest.raises(sb.ConfigError):
            _Constant(prob).run(0.1, 0)


def test_naive_ibp_underflow_after_a_record_keeps_iterates(tmp_path, capsys):
    out = tmp_path / "u"
    code = main(
        ["barycenter", "--algo", "ibp", "--reg", "1e-5", "--log-stride", "1", "--gaussian",
         "--normalize-cost", "--out", str(out), "--timing", "off"]
    )
    assert code == 4
    rows = list(csv.reader(open(out / "report.csv")))
    assert len(rows) == 1 + 8
    assert (out / "iterates.csv").exists()
    assert not (out / "barycenter.csv").exists()
    printed = capsys.readouterr().out
    assert "final duality gap" not in printed
    assert "status: underflow-degenerate" in printed
    # the stored pair is the last recorded one and replays to its gap
    prob, x, y = sb.read_iterates_csv(out / "iterates.csv")
    assert sb.duality_gap(x, y, prob) == float(rows[-1][2])
