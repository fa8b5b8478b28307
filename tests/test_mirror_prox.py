import dataclasses
import math

import numpy as np
import pytest

import saddlebary as sb
from saddlebary.core import (
    _adjoint_stack,
    _constraint_blocks,
    _log_normalize,
    _marginals_stack,
    _target_blocks,
)
from saddlebary.mirror_prox import mp_initial_state, mp_iteration
from conftest import dense_incidence, random_problem

TINY = np.finfo(float).tiny


def oracle_step(state, cfg, prob):
    """One extragradient step evaluated with dense matrices, literal formulas."""
    n, m = prob.n, prob.m
    A = dense_incidence(n)
    d, d_inf = prob.cost.d, prob.cost.d_inf
    x, p, y = state.x.plans, state.x.bary, state.y.duals
    v = np.zeros_like(y)
    u = np.zeros_like(x)
    for i in range(m):
        target = np.concatenate([p, prob.measures[i]])
        v[i] = np.clip(y[i] + cfg.alpha * (A @ x[i] - target), -1, 1)
        w = x[i] * np.exp(-cfg.gamma_mult * (d + 2 * d_inf * (A.T @ y[i])))
        u[i] = w / w.sum()
    s = p * np.exp(cfg.beta * y[:, :n].sum(axis=0))
    s = s / s.sum()
    y_new = np.zeros_like(y)
    x_new = np.zeros_like(x)
    for i in range(m):
        target = np.concatenate([s, prob.measures[i]])
        y_new[i] = np.clip(y[i] + cfg.alpha * (A @ u[i] - target), -1, 1)
        w = x[i] * np.exp(-cfg.gamma_mult * (d + 2 * d_inf * (A.T @ v[i])))
        x_new[i] = w / w.sum()
    p_new = p * np.exp(cfg.beta * v[:, :n].sum(axis=0))
    p_new = p_new / p_new.sum()
    return u, s, v, x_new, p_new, y_new


def _log_domain_step(ref, cfg, prob):
    """The dense log-domain extragradient step: every plan entry is kept as a
    log weight and renormalized by exp/log over all m n^2 entries.

    `ref` holds x, log_plans, log_bary, y, sum_plans, sum_bary and
    sum_duals; returns the next such dict plus the extrapolation pair.
    """
    n = prob.n
    d, d_inf = prob.cost.d, prob.cost.d_inf
    targets = _target_blocks(prob.measures)
    duals = ref["y"]

    residual = _constraint_blocks(ref["x"].plans, ref["x"].bary) - targets
    v = np.clip(duals + cfg.alpha * residual, -1.0, 1.0)

    log_u = ref["log_plans"] - cfg.gamma_mult * (
        d[None, :] + 2.0 * d_inf * _adjoint_stack(duals, n)
    )
    _, u_plans = _log_normalize(log_u)
    _, s_bary = _log_normalize(ref["log_bary"] + cfg.beta * duals[:, :n].sum(axis=0))

    residual_u = _constraint_blocks(u_plans, s_bary) - targets
    y_new = np.clip(duals + cfg.alpha * residual_u, -1.0, 1.0)

    log_x = ref["log_plans"] - cfg.gamma_mult * (
        d[None, :] + 2.0 * d_inf * _adjoint_stack(v, n)
    )
    log_x, x_plans = _log_normalize(log_x)
    log_p, p_bary = _log_normalize(ref["log_bary"] + cfg.beta * v[:, :n].sum(axis=0))

    nxt = {
        "x": sb.PrimalPoint(plans=x_plans, bary=p_bary),
        "log_plans": log_x,
        "log_bary": log_p,
        "y": y_new,
        "sum_plans": ref["sum_plans"] + u_plans,
        "sum_bary": ref["sum_bary"] + s_bary,
        "sum_duals": ref["sum_duals"] + v,
    }
    return nxt, sb.PrimalPoint(plans=u_plans, bary=s_bary), v


def _has_subnormal(a):
    return bool(np.any((a != 0) & (np.abs(a) < TINY)))


def _state_arrays(state):
    return (
        state.x.plans, state.x.bary, state.y.duals, state.u.plans, state.u.bary,
        state.v.duals, state.x_marginals, state.log_bary, state.sum_plans,
        state.sum_bary, state.sum_duals,
    )


class TestConfig:
    def test_iteration_count_example(self):
        prob = random_problem(0, 4, 2)  # cost normalized to sup 1
        cfg = sb.mp_config(prob, 0.1)
        assert cfg.iters == math.ceil(80 * math.sqrt(24 * math.log(4)))
        assert cfg.iters == 462

    def test_learning_rate_example(self, t1_problem):
        cfg = sb.mp_config(t1_problem, 0.1)
        assert cfg.eta == pytest.approx(1 / (4 * math.sqrt(12 * math.log(2))))

    @pytest.mark.parametrize("variant", ["printed", "derived"])
    def test_step_relations(self, variant):
        prob = random_problem(1, 5, 3)
        cfg = sb.mp_config(prob, 0.2, variant)
        d_inf, n, m = prob.cost.d_inf, prob.n, prob.m
        assert cfg.alpha == pytest.approx(2 * d_inf * cfg.eta * n)
        scale = 1.0 if variant == "printed" else 1.0 / m
        assert cfg.beta == pytest.approx(6 * d_inf * cfg.eta * math.log(n) * scale)
        assert cfg.gamma_mult == pytest.approx(3 * m * cfg.eta * math.log(n) * scale)

    def test_printed_example_constants(self):
        # n=2, m=3, unit sup-norm cost: printed constants at learning rate eta
        prob = random_problem(2, 2, 3)
        cfg = sb.mp_config(prob, 0.1, "printed")
        eta = cfg.eta
        assert cfg.alpha == pytest.approx(0.4 * eta / 0.1)
        assert cfg.beta == pytest.approx(0.6 * math.log(2) * eta / 0.1)
        assert cfg.gamma_mult == pytest.approx(0.9 * math.log(2) * eta / 0.1)

    def test_config_errors(self, t1_problem):
        with pytest.raises(sb.ConfigError):
            sb.mp_config(t1_problem, 0.0)
        zero_cost = sb.BarycenterProblem.create(
            t1_problem.measures, sb.vectorize_cost(np.zeros((2, 2)))
        )
        with pytest.raises(sb.ConfigError):
            sb.mp_config(zero_cost, 0.1)
        with pytest.raises(sb.ConfigError):
            sb.mp_config(t1_problem, 0.1, "bogus")


class TestIteration:
    def test_fixed_point_zero_cost(self):
        # uniform everything with a zero cost: every step is a no-op
        prob = sb.BarycenterProblem.create(
            np.full((2, 2), 0.5), sb.vectorize_cost(np.zeros((2, 2)))
        )
        cfg = sb.MPConfig(
            eta=0.1, alpha=0.4, beta=0.2, gamma_mult=0.3, iters=5, scaling_variant="derived"
        )
        state = mp_initial_state(prob)
        new = mp_iteration(state, cfg, prob)
        assert np.allclose(new.x.plans, state.x.plans, atol=1e-15)
        assert np.allclose(new.x.bary, state.x.bary, atol=1e-15)
        assert np.array_equal(new.y.duals, state.y.duals)
        assert np.allclose(new.u.plans, state.x.plans, atol=1e-15)

    def test_first_step_t1(self, t1_problem):
        cfg = sb.mp_config(t1_problem, 0.5)
        state = mp_iteration(mp_initial_state(t1_problem), cfg, t1_problem)
        expected_v = np.clip(cfg.alpha * np.array([0.0, 0.0, -0.5, 0.5]), -1, 1)
        assert np.allclose(state.v.duals[0], expected_v, atol=1e-15)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("n", [2, 5, 16])
    @pytest.mark.parametrize("variant", ["derived", "printed"])
    def test_matches_dense_oracle(self, variant, n, m):
        prob = random_problem(3, n, m)
        cfg = sb.mp_config(prob, 0.3, variant)
        state = mp_initial_state(prob)
        for _ in range(4):
            u, s, v, x_new, p_new, y_new = oracle_step(state, cfg, prob)
            state = mp_iteration(state, cfg, prob)
            assert np.allclose(state.u.plans, u, atol=1e-12)
            assert np.allclose(state.u.bary, s, atol=1e-12)
            assert np.allclose(state.v.duals, v, atol=1e-13)
            assert np.allclose(state.x.plans, x_new, atol=1e-12)
            assert np.allclose(state.x.bary, p_new, atol=1e-12)
            assert np.allclose(state.y.duals, y_new, atol=1e-13)

    def test_feasibility_every_iteration(self):
        prob = random_problem(4, 4, 3)
        cfg = sb.mp_config(prob, 0.1)
        state = mp_initial_state(prob)
        for _ in range(50):
            state = mp_iteration(state, cfg, prob)
            for point in (state.x, state.u):
                assert np.all(point.plans >= 0)
                assert np.allclose(point.plans.sum(axis=1), 1.0, atol=1e-12)
                assert np.all(point.bary >= 0)
                assert point.bary.sum() == pytest.approx(1.0, abs=1e-12)
            for dual in (state.y, state.v):
                assert np.all(np.abs(dual.duals) <= 1.0)
            # the carried marginals are those of the plans they came with
            dense = _marginals_stack(state.x.plans, prob.n)
            assert np.allclose(state.x_marginals, dense, rtol=0, atol=1e-14)

    def test_matches_log_domain_reference_through_underflow(self):
        # the printed scaling on m=3 drives plan entries below 1e-308 well
        # within the run, where the log-domain step leaves subnormals
        prob = random_problem(7, 16, 3)
        cfg = sb.mp_config(prob, 0.01, "printed")
        state = mp_initial_state(prob)
        ref = {
            "x": state.x,
            "log_plans": np.log(state.x.plans),
            "log_bary": np.log(state.x.bary),
            "y": state.y.duals,
            "sum_plans": state.sum_plans,
            "sum_bary": state.sum_bary,
            "sum_duals": state.sum_duals,
        }
        for k in range(1, 2001):
            state = mp_iteration(state, cfg, prob)
            ref, u_ref, v_ref = _log_domain_step(ref, cfg, prob)
            if k == 10:
                kept, kept_copies = state, [a.copy() for a in _state_arrays(state)]
            assert np.allclose(state.x.plans, ref["x"].plans, rtol=0, atol=1e-12)
            assert np.allclose(state.x.bary, ref["x"].bary, rtol=0, atol=1e-12)
            assert np.allclose(state.u.plans, u_ref.plans, rtol=0, atol=1e-12)
            assert np.allclose(state.u.bary, u_ref.bary, rtol=0, atol=1e-12)
            assert np.allclose(state.y.duals, ref["y"], rtol=0, atol=1e-12)
            assert np.allclose(state.v.duals, v_ref, rtol=0, atol=1e-12)
            for plans in (state.x.plans, state.u.plans, state.sum_plans):
                assert not _has_subnormal(plans), k
            if k % 250 == 0:
                ref_pair = (
                    sb.PrimalPoint(plans=ref["sum_plans"] / k, bary=ref["sum_bary"] / k),
                    sb.DualPoint(duals=ref["sum_duals"] / k),
                )
                gap = sb.duality_gap(*state.averaged_pair(), prob)
                assert gap == pytest.approx(sb.duality_gap(*ref_pair, prob), abs=1e-10)
        assert ref["log_plans"].min() < math.log(1e-308)
        assert np.any(state.x.plans == 0.0)
        # later steps never write into the arrays of an earlier state
        for before, after in zip(kept_copies, _state_arrays(kept)):
            assert np.array_equal(before, after)


class TestRun:
    def test_certificate_self_verified(self, t1_problem):
        x, y, report = sb.run_mirror_prox(t1_problem, 0.5)
        assert report.final_gap <= 0.5
        assert sb.duality_gap(x, y, t1_problem) == pytest.approx(report.final_gap, abs=1e-12)

    def test_single_measure_recovers_input(self):
        rng = np.random.default_rng(20)
        pts = np.linspace(0, 1, 6)
        grid = sb.Grid1D(points=pts, power=2.0)
        q = rng.dirichlet(np.ones(6))
        prob = sb.BarycenterProblem.create(q[None, :], sb.grid_cost(grid, normalize=True))
        eps = 0.02
        x, _, report = sb.run_mirror_prox(prob, eps)
        assert report.final_gap <= eps
        # q is the exact barycenter of itself; the certificate bounds the
        # optimality gap of the returned candidate
        assert sb.optimality_gap(x.bary, q, prob, grid) <= eps

    def test_average_of_one_is_first_extrapolation(self, t1_problem):
        cfg = sb.mp_config(t1_problem, 0.5)
        first = mp_iteration(mp_initial_state(t1_problem), cfg, t1_problem)
        x, y, report = sb.run_mirror_prox(t1_problem, 1e-9, max_iters=1)
        assert np.array_equal(x.plans, first.u.plans)
        assert np.array_equal(x.bary, first.u.bary)
        assert np.array_equal(y.duals, first.v.duals)

    def test_deterministic_reports(self):
        prob = random_problem(5, 4, 2)
        _, _, r1 = sb.run_mirror_prox(prob, 0.1, timer=lambda: 0.0)
        _, _, r2 = sb.run_mirror_prox(prob, 0.1, timer=lambda: 0.0)
        assert len(r1.records) == len(r2.records)
        for a, b in zip(r1.records, r2.records):
            assert a == b

    def test_theory_budget_on_random_instances(self):
        # default scaling reaches the target within the theory budget; the
        # printed scaling gets the same chance, at least one must land
        for seed, (n, m) in enumerate([(4, 1), (4, 3), (8, 2), (16, 5)]):
            prob = random_problem(30 + seed, n, m)
            results = {}
            for variant in ("derived", "printed"):
                _, _, rep = sb.run_mirror_prox(prob, 0.2, variant=variant)
                results[variant] = rep
            assert results["derived"].converged
            assert results["derived"].iterations_run <= results["derived"].config["theory_iters"]
            assert any(rep.converged for rep in results.values())

    def test_gap_quasi_monotone(self):
        prob = random_problem(6, 6, 2)
        _, _, report = sb.run_mirror_prox(prob, 1e-9, max_iters=1500, log_stride=25)
        gaps = np.array([r.duality_gap for r in report.records])
        assert np.all(gaps[1:] <= 1.1 * gaps[:-1])

    def test_iteration_budget_validation(self, t1_problem):
        with pytest.raises(sb.ConfigError):
            sb.run_mirror_prox(t1_problem, 0.1, max_iters=0)


class TestFailurePaths:
    def test_non_finite_state_raises_with_iteration(self, t1_problem):
        cfg = sb.mp_config(t1_problem, 0.5)
        state = mp_initial_state(t1_problem)
        nan_plans = np.full_like(state.x.plans, np.nan)
        poisoned = dataclasses.replace(
            state, x=sb.PrimalPoint(plans=nan_plans, bary=state.x.bary), k=4
        )
        with pytest.raises(sb.NumericalFailure) as info:
            mp_iteration(poisoned, cfg, t1_problem)
        assert info.value.iteration == 5
