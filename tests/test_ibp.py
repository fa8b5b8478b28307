import math

import numpy as np
import pytest
from scipy.special import logsumexp, xlogy

import saddlebary as sb
import saddlebary.ibp as ibp
from saddlebary.cli import GaussianSuiteSpec, gaussian_suite
from conftest import random_problem


@pytest.fixture(scope="module")
def gaussian_problem():
    measures, grid = gaussian_suite(GaussianSuiteSpec(seed=0))
    g = sb.Grid1D(points=grid, power=2.0)
    return sb.BarycenterProblem.create(measures, sb.grid_cost(g, normalize=True))


class TestConfig:
    def test_rejects_bad_reg(self):
        with pytest.raises(sb.ConfigError):
            sb.IBPConfig(reg=0.0, iters=10)

    def test_rejects_bad_iters(self):
        with pytest.raises(sb.ConfigError):
            sb.IBPConfig(reg=0.1, iters=0)

    @pytest.mark.parametrize("iters", [2.5, 3.0])
    def test_rejects_non_integer_iters(self, iters):
        # the sweep loop's range() takes integers only
        with pytest.raises(sb.ConfigError):
            sb.IBPConfig(reg=0.1, iters=iters)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-6])
    def test_rejects_bad_tol(self, tol):
        # nan never stops a run early and inf stops it after one sweep
        with pytest.raises(sb.ConfigError):
            sb.IBPConfig(reg=0.1, iters=10, tol=tol)


class TestInstability:
    def test_naive_tiny_reg_degenerates(self, gaussian_problem):
        bary, report = sb.ibp_barycenter(gaussian_problem, sb.IBPConfig(reg=1e-5, iters=2000))
        assert bary is None
        assert report.status == "underflow-degenerate"
        assert report.failed

    def test_stabilized_tiny_reg_stays_on_simplex(self, gaussian_problem):
        bary, report = sb.ibp_barycenter(
            gaussian_problem, sb.IBPConfig(reg=1e-5, iters=30, stabilized=True)
        )
        assert bary is not None
        assert np.all(np.isfinite(bary))
        assert np.all(bary >= 0)
        assert bary.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_kernel_row_detected(self):
        # strictly positive off-diagonal costs with a huge scale: every
        # kernel entry underflows, including full rows
        C = np.full((3, 3), 1.0)
        prob = sb.BarycenterProblem.create(
            np.full((2, 3), 1.0 / 3.0), sb.vectorize_cost(C)
        )
        bary, report = sb.ibp_barycenter(prob, sb.IBPConfig(reg=1e-6, iters=5))
        assert bary is None
        assert report.status == "underflow-degenerate"
        assert report.iterations_run == 0


class TestAgreement:
    def test_modes_agree_at_moderate_reg(self, gaussian_problem):
        cfg_args = dict(reg=0.05, iters=300)
        naive, rep_naive = sb.ibp_barycenter(gaussian_problem, sb.IBPConfig(**cfg_args))
        stab, rep_stab = sb.ibp_barycenter(
            gaussian_problem, sb.IBPConfig(stabilized=True, **cfg_args)
        )
        assert rep_naive.status != "underflow-degenerate"
        assert 0.5 * np.abs(naive - stab).sum() <= 1e-8

    def test_modes_agree_on_random_small_problem(self):
        prob = random_problem(70, 12, 3, zero_diagonal=True)
        naive, _ = sb.ibp_barycenter(prob, sb.IBPConfig(reg=0.1, iters=400))
        stab, _ = sb.ibp_barycenter(prob, sb.IBPConfig(reg=0.1, iters=400, stabilized=True))
        assert 0.5 * np.abs(naive - stab).sum() <= 1e-8


class TestMonotoneObjective:
    @pytest.mark.parametrize("stabilized", [False, True])
    def test_objective_non_increasing(self, gaussian_problem, stabilized):
        _, report = sb.ibp_barycenter(
            gaussian_problem,
            sb.IBPConfig(reg=0.1, iters=150, stabilized=stabilized),
            log_stride=1,
        )
        objectives = np.array([r.objective for r in report.records])
        assert np.all(np.diff(objectives) <= 1e-12)

    @pytest.mark.filterwarnings("error")
    def test_stabilized_merit_quiet_on_zero_mass(self):
        # log(0) = -inf in psi must be masked before it meets a zero mass
        grid = sb.Grid1D(points=np.array([0.0, 0.5, 1.0]), power=2.0)
        prob = sb.BarycenterProblem.create(
            np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]), sb.grid_cost(grid)
        )
        _, report = sb.ibp_barycenter(
            prob, sb.IBPConfig(reg=0.01, iters=20, stabilized=True), log_stride=1
        )
        assert all(np.isfinite(r.objective) for r in report.records)

    def test_gap_column_finite(self, gaussian_problem):
        _, report = sb.ibp_barycenter(gaussian_problem, sb.IBPConfig(reg=0.1, iters=100))
        assert all(np.isfinite(r.duality_gap) for r in report.records)


class TestSingleMeasure:
    def test_entropic_bias_shrinks_with_reg(self):
        rng = np.random.default_rng(71)
        n = 20
        pts = np.linspace(0.0, 1.0, n)
        grid = sb.Grid1D(points=pts, power=2.0)
        q = rng.dirichlet(np.ones(n))
        prob = sb.BarycenterProblem.create(q[None, :], sb.grid_cost(grid))
        gaps = []
        for reg in (0.1, 0.01, 0.001):
            bary, report = sb.ibp_barycenter(prob, sb.IBPConfig(reg=reg, iters=3000))
            assert report.status in ("ok", "iteration-cap")
            gaps.append(sb.optimality_gap(bary, q, prob, grid))
        assert all(g >= -1e-10 for g in gaps)
        assert gaps[-1] <= gaps[0]
        assert gaps[-1] <= 5e-4


class TestIterationCap:
    def test_cap_reported(self, gaussian_problem):
        bary, report = sb.ibp_barycenter(gaussian_problem, sb.IBPConfig(reg=0.05, iters=3))
        assert bary is not None
        assert report.status == "iteration-cap"
        assert not report.converged
        assert not report.failed


class TestCertifiedBarycenter:
    @pytest.mark.parametrize("stabilized", [False, True])
    def test_returned_barycenter_is_the_certified_one(self, gaussian_problem, stabilized):
        # the stabilized runner used to return its own normalisation of the
        # log barycenter, which differed from the certified one in last bits
        cfg = sb.IBPConfig(reg=1e-3 if stabilized else 0.05, stabilized=stabilized)
        bary, report = sb.ibp_barycenter(gaussian_problem, cfg)
        assert report.status == "ok"
        assert np.array_equal(bary, report.final_x.bary)
        assert np.array_equal(report.final_bary, report.final_x.bary)


def _reference_naive(prob, cfg, run):
    """Naive sweep that forms `u @ K` afresh at the start of every sweep."""
    n, m = prob.n, prob.m
    C, Q = prob.cost.C, prob.measures
    K = np.exp(-C / cfg.reg)
    u = np.full((m, n), 1.0 / n)
    v = p = None

    def step(k):
        nonlocal u, v, p
        v = Q / (u @ K)
        UKv = u * (v @ K.T)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.exp(np.log(UKv).mean(axis=0))
            u = u * p[None, :] / UKv
        return np.abs(v * (u @ K) - Q).sum(axis=1).max() <= cfg.tol

    def certified():
        plans = u[:, :, None] * K[None, :, :] * v[:, None, :]
        merit = ibp._scaling_merit(
            float((u * (v @ K.T)).sum()), float(xlogy(Q, v).sum()), cfg.reg, m
        )
        return (*ibp._normalized_pair(plans.reshape(m, n * n), p, prob), merit)

    run(step, certified)


def _reference_stabilized(prob, cfg, run):
    """Stabilized sweep with three log-sum-exp reductions over all plan entries."""
    n, m = prob.n, prob.m
    C, Q = prob.cost.C, prob.measures
    logK = -C / cfg.reg
    with np.errstate(divide="ignore"):
        logQ = np.log(Q)
    phi = np.full((m, n), -math.log(n))
    log_p = np.full(n, -math.log(n))
    psi = log_row = None

    def step(k):
        nonlocal phi, log_p, psi, log_row
        psi = logQ - logsumexp(logK[None, :, :] + phi[:, :, None], axis=1)
        log_row = logsumexp(logK[None, :, :] + psi[:, None, :], axis=2)
        log_p = (phi + log_row).mean(axis=0)
        phi = log_p[None, :] - log_row
        col = np.exp(psi + logsumexp(logK[None, :, :] + phi[:, :, None], axis=1))
        return np.abs(col - Q).sum(axis=1).max() <= cfg.tol

    def certified():
        plans = np.exp(phi[:, :, None] + logK[None, :, :] + psi[:, None, :])
        merit = ibp._scaling_merit(
            float(np.exp(phi + log_row).sum()),
            float((Q * np.where(Q > 0, psi, 0.0)).sum()),
            cfg.reg,
            m,
        )
        return (*ibp._normalized_pair(plans.reshape(m, n * n), np.exp(log_p), prob), merit)

    run(step, certified)


class TestCarriedColumnReduction:
    @pytest.mark.parametrize("stabilized", [False, True])
    def test_records_bitwise_equal_to_recomputing_sweep(
        self, gaussian_problem, monkeypatch, stabilized
    ):
        # a sweep reuses the column reduction of the previous sweep's stop
        # test; recomputing it instead must not change a single bit
        cfg = sb.IBPConfig(reg=1e-3, stabilized=stabilized)
        bary, report = sb.ibp_barycenter(gaussian_problem, cfg, log_stride=1, timer=lambda: 0.0)
        name = "_ibp_stabilized" if stabilized else "_ibp_naive"
        monkeypatch.setattr(ibp, name, _reference_stabilized if stabilized else _reference_naive)
        ref_bary, ref = sb.ibp_barycenter(gaussian_problem, cfg, log_stride=1, timer=lambda: 0.0)
        assert report.status == ref.status == "ok"
        assert len(report.records) == report.iterations_run > 100
        assert report.records == ref.records
        assert bary.tobytes() == ref_bary.tobytes()
