import numpy as np
import pytest

import saddlebary as sb
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
