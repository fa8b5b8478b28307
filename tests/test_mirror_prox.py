import dataclasses
import math

import numpy as np
import pytest
from scipy.special import xlogy

import saddlebary as sb
from saddlebary.core import _adjoint_stack, _log_normalize, _marginals_stack
from saddlebary.mirror_prox import mp_initial_state, mp_iteration
from conftest import (
    dense_big_operator,
    dense_incidence,
    primal_vector,
    random_problem,
    uniform_primal,
)

TINY = np.finfo(float).tiny


def main_iterate(state, cfg, prob):
    """The main iterate x of `state` as a dense `PrimalPoint` (new arrays).

    In Gibbs form plan i is exp(f_i (+) g_i - k gamma C) normalized, with
    [f, g] = `state.log_factors`: formed here in the log domain, max-shifted,
    with entries below the smallest normal double set to 0 as the package
    sets its plans'.
    """
    if state.plans is not None:
        return sb.PrimalPoint(plans=state.plans.copy(), bary=state.bary.copy())
    n = prob.n
    f, g = state.log_factors[:, :n], state.log_factors[:, n:]
    logw = f[:, :, None] + g[:, None, :] - (state.average.k * cfg.gamma_mult) * prob.cost.C
    w = np.exp(logw - logw.max(axis=(1, 2), keepdims=True))
    plans = (w / w.sum(axis=(1, 2), keepdims=True)).reshape(prob.m, n * n)
    plans[plans < TINY] = 0.0
    return sb.PrimalPoint(plans=plans, bary=state.bary.copy())


def oracle_step(state, cfg, prob):
    """One extragradient step evaluated with dense matrices, literal formulas."""
    n, m = prob.n, prob.m
    A = dense_incidence(n)
    d, d_inf = prob.cost.d, prob.cost.d_inf
    x = main_iterate(state, cfg, prob)
    x, p, y = x.plans, x.bary, state.duals[:, 0]
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
    n, m = prob.n, prob.m
    d, d_inf = prob.cost.d, prob.cost.d_inf
    targets = np.concatenate([np.zeros((m, n)), prob.measures], axis=1)
    big = dense_big_operator(n, m)
    duals = ref["y"]

    residual = (big @ primal_vector(ref["x"])).reshape(m, 2 * n) - targets
    v = np.clip(duals + cfg.alpha * residual, -1.0, 1.0)

    log_u = ref["log_plans"] - cfg.gamma_mult * (
        d[None, :] + 2.0 * d_inf * _adjoint_stack(duals, n)
    )
    _, u_plans = _log_normalize(log_u)
    _, s_bary = _log_normalize(ref["log_bary"] + cfg.beta * duals[:, :n].sum(axis=0))

    u = sb.PrimalPoint(plans=u_plans, bary=s_bary)
    residual_u = (big @ primal_vector(u)).reshape(m, 2 * n) - targets
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
    return nxt, u, v


def _has_subnormal(a):
    return bool(np.any((a != 0) & (np.abs(a) < TINY)))


def _primal_reference(x, m):
    """sum_i <x_i, ln x_i> + m <p, ln p>, the primal prox reference function."""
    return float(xlogy(x.plans, x.plans).sum() + m * xlogy(x.bary, x.bary).sum())


def _primal_radius(n, m):
    """Range of the primal reference: max over simplex vertices (one-hot
    blocks, enumerated) minus its value at the uniform point, its minimum."""
    tops = []
    for cell in range(n * n):
        plans = np.zeros((m, n * n))
        plans[:, cell] = 1.0
        for b in range(n):
            bary = np.zeros(n)
            bary[b] = 1.0
            tops.append(_primal_reference(sb.PrimalPoint(plans=plans, bary=bary), m))
    return max(tops), _primal_reference(uniform_primal(n, m), m)


def _dual_radius(n, m):
    """Sup of the half squared norm over the dual box, at a corner."""
    corner = sb.DualPoint(duals=np.ones((m, 2 * n)))
    return 0.5 * float(np.sum(corner.duals**2))


class TestConfig:
    # mp_config's constants are functions of the two prox radii:
    # eta = m / (4 d_inf sqrt(2 Rx^2 Ry^2)), alpha = 2 d_inf eta Ry^2 / m,
    # gamma_mult = eta Rx^2 / m and beta = 2 d_inf eta Rx^2 / m^2 (both
    # times m under `printed`), iters = ceil(8 d_inf sqrt(2 Rx^2 Ry^2) / (m eps)).

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 3)])
    def test_primal_radius_matches_vertex_sweep(self, n, m):
        top, bottom = _primal_radius(n, m)
        assert top == 0.0
        assert bottom == pytest.approx(-2 * m * math.log(n) - m * math.log(n))
        rx_sq = top - bottom
        prob = random_problem(n + m, n, m, normalized=False)
        d_inf = prob.cost.d_inf
        for variant, scale in (("derived", 1), ("printed", m)):
            cfg = sb.mp_config(prob, 0.1, variant)
            assert cfg.gamma_mult == pytest.approx(scale * cfg.eta * rx_sq / m, rel=1e-14)
            assert cfg.beta == pytest.approx(
                scale * 2 * d_inf * cfg.eta * rx_sq / m**2, rel=1e-14
            )

    def test_dual_radius_is_box_sup(self):
        eps = 0.1
        for n, m in ((3, 2), (5, 1)):
            ry_sq = _dual_radius(n, m)
            assert ry_sq == n * m
            top, bottom = _primal_radius(n, m)
            root = math.sqrt(2 * (top - bottom) * ry_sq)
            prob = random_problem(n + m, n, m, normalized=False)
            d_inf = prob.cost.d_inf
            for variant in ("derived", "printed"):
                cfg = sb.mp_config(prob, eps, variant)
                assert cfg.eta == pytest.approx(m / (4 * d_inf * root), rel=1e-14)
                assert cfg.alpha == pytest.approx(2 * d_inf * cfg.eta * ry_sq / m, rel=1e-14)
                assert cfg.theory_iters == math.ceil(8 * d_inf * root / (m * eps))

    def test_iteration_count_example(self):
        prob = random_problem(0, 4, 2)  # cost normalized to sup 1
        cfg = sb.mp_config(prob, 0.1)
        assert cfg.theory_iters == math.ceil(80 * math.sqrt(24 * math.log(4)))
        assert cfg.theory_iters == 462

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
        zero_cost = sb.BarycenterProblem(
            measures=t1_problem.measures, cost=sb.CostData(C=np.zeros((2, 2)))
        )
        with pytest.raises(sb.ConfigError):
            sb.mp_config(zero_cost, 0.1)
        with pytest.raises(sb.ConfigError):
            sb.mp_config(t1_problem, 0.1, "bogus")


class TestIteration:
    def test_fixed_point_zero_cost(self):
        # uniform everything with a zero cost: every step is a no-op
        prob = sb.BarycenterProblem(
            measures=np.full((2, 2), 0.5), cost=sb.CostData(C=np.zeros((2, 2)))
        )
        cfg = sb.MPConfig(
            eta=0.1, alpha=0.4, beta=0.2, gamma_mult=0.3, theory_iters=5, scaling_variant="derived"
        )
        state = mp_initial_state(prob)
        start = uniform_primal(2, 2)
        mp_iteration(state, cfg, prob)
        x = main_iterate(state, cfg, prob)
        assert np.allclose(x.plans, start.plans, atol=1e-15)
        assert np.allclose(x.bary, start.bary, atol=1e-15)
        assert np.array_equal(state.duals[:, 0], np.zeros((2, 4)))
        assert np.allclose(state.average.step_plans, start.plans, atol=1e-15)

    def test_first_step_t1(self, t1_problem):
        cfg = sb.mp_config(t1_problem, 0.5)
        state = mp_initial_state(t1_problem)
        mp_iteration(state, cfg, t1_problem)
        expected_v = np.clip(cfg.alpha * np.array([0.0, 0.0, -0.5, 0.5]), -1, 1)
        assert np.allclose(state.duals[:, 1][0], expected_v, atol=1e-15)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("n", [2, 5, 16])
    @pytest.mark.parametrize("variant", ["derived", "printed"])
    def test_matches_dense_oracle(self, variant, n, m):
        prob = random_problem(3, n, m)
        cfg = sb.mp_config(prob, 0.3, variant)
        state = mp_initial_state(prob)
        for _ in range(4):
            u, s, v, x_new, p_new, y_new = oracle_step(state, cfg, prob)
            bary_total = state.average.bary.copy()
            mp_iteration(state, cfg, prob)
            x = main_iterate(state, cfg, prob)
            assert np.allclose(state.average.step_plans, u, atol=1e-12)
            assert np.allclose(state.average.bary - bary_total, s, atol=1e-12)
            assert np.allclose(state.duals[:, 1], v, atol=1e-13)
            assert np.allclose(x.plans, x_new, atol=1e-12)
            assert np.allclose(x.bary, p_new, atol=1e-12)
            assert np.allclose(state.duals[:, 0], y_new, atol=1e-13)

    def test_feasibility_every_iteration(self):
        prob = random_problem(4, 4, 3)
        cfg = sb.mp_config(prob, 0.1)
        state = mp_initial_state(prob)
        def plan_arrays():
            return state.average.step_plans, state.average.plans

        buffers = plan_arrays()
        for _ in range(50):
            bary_total = state.average.bary.copy()
            mp_iteration(state, cfg, prob)
            # a step writes the plan arrays of the state it is given, and
            # keeps x in Gibbs form: no dense plans of x
            assert all(a is b for a, b in zip(buffers, plan_arrays()))
            assert state.plans is None
            x = main_iterate(state, cfg, prob)
            u = sb.PrimalPoint(plans=state.average.step_plans, bary=state.average.bary - bary_total)
            for point in (x, u):
                assert np.all(point.plans >= 0)
                assert np.allclose(point.plans.sum(axis=1), 1.0, atol=1e-12)
                assert np.all(point.bary >= 0)
                assert point.bary.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.abs(state.duals) <= 1.0)
            # the carried marginals are those of the plans they came with
            dense = _marginals_stack(x.plans, prob.n)
            assert np.allclose(state.x_marginals, dense, rtol=0, atol=1e-14)

    def test_matches_log_domain_reference_through_underflow(self):
        # the printed scaling on m=3 drives plan entries below 1e-308 well
        # within the run, where the log-domain step leaves subnormals; x's
        # Gibbs form spans more than FACTOR_SPAN_MAX from step 882 on, so
        # the run crosses from the shared kernel to the dense x step
        prob = random_problem(7, 16, 3)
        cfg = sb.mp_config(prob, 0.01, "printed")
        state = mp_initial_state(prob)
        x = main_iterate(state, cfg, prob)
        # the step overwrites the state's arrays, so the reference takes copies
        ref = {
            "x": x,
            "log_plans": np.log(x.plans),
            "log_bary": np.log(x.bary),
            "y": state.duals[:, 0].copy(),
            "sum_plans": state.average.plans.copy(),
            "sum_bary": state.average.bary.copy(),
            "sum_duals": state.average.duals.copy(),
        }
        switched_at = None
        for k in range(1, 2001):
            bary_total = state.average.bary.copy()
            mp_iteration(state, cfg, prob)
            if switched_at is None and state.plans is not None:
                switched_at = k
            ref, u_ref, v_ref = _log_domain_step(ref, cfg, prob)
            x = main_iterate(state, cfg, prob)
            assert np.allclose(x.plans, ref["x"].plans, rtol=0, atol=1e-12)
            assert np.allclose(x.bary, ref["x"].bary, rtol=0, atol=1e-12)
            assert np.allclose(state.average.step_plans, u_ref.plans, rtol=0, atol=1e-12)
            assert np.allclose(state.average.bary - bary_total, u_ref.bary, rtol=0, atol=1e-12)
            assert np.allclose(state.duals[:, 0], ref["y"], rtol=0, atol=1e-12)
            assert np.allclose(state.duals[:, 1], v_ref, rtol=0, atol=1e-12)
            for plans in (x.plans, state.average.step_plans, state.average.plans):
                assert not _has_subnormal(plans), k
            if k % 250 == 0:
                ref_pair = (
                    sb.PrimalPoint(plans=ref["sum_plans"] / k, bary=ref["sum_bary"] / k),
                    sb.DualPoint(duals=ref["sum_duals"] / k),
                )
                gap = sb.duality_gap(*state.average.pair(), prob)
                assert gap == pytest.approx(sb.duality_gap(*ref_pair, prob), abs=1e-10)
        # both sides of the switch were checked, each for hundreds of steps
        assert switched_at is not None and 250 <= switched_at <= 1750, switched_at
        assert ref["log_plans"].min() < math.log(1e-308)
        assert np.any(x.plans == 0.0)


class TestRun:
    def test_certificate_self_verified(self, t1_problem):
        x, y, report = sb.run_mirror_prox(t1_problem, 0.5)
        assert report.final_gap <= 0.5
        assert sb.duality_gap(x, y, t1_problem) == pytest.approx(report.final_gap, abs=1e-12)

    def test_single_measure_recovers_input(self):
        rng = np.random.default_rng(20)
        pts = np.linspace(0, 1, 6)
        grid = sb.Grid1D(points=pts)
        q = rng.dirichlet(np.ones(6))
        cost = sb.grid_cost(grid)
        prob = sb.BarycenterProblem(measures=q[None, :], cost=sb.CostData(C=cost.C / cost.d_inf))
        eps = 0.02
        x, _, report = sb.run_mirror_prox(prob, eps)
        assert report.final_gap <= eps
        # q is the exact barycenter of itself; the certificate bounds the
        # optimality gap of the returned candidate
        assert sb.optimality_gap(x.bary, q, prob, grid) <= eps

    def test_average_of_one_is_first_extrapolation(self, t1_problem):
        cfg = sb.mp_config(t1_problem, 0.5)
        first = mp_initial_state(t1_problem)
        mp_iteration(first, cfg, t1_problem)
        x, y, report = sb.run_mirror_prox(t1_problem, 1e-9, max_iters=1)
        assert np.array_equal(x.plans, first.average.step_plans)
        assert np.array_equal(x.bary, first.average.bary)
        assert np.array_equal(y.duals, first.duals[:, 1])

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
            assert results["derived"].status == "ok"
            assert results["derived"].iterations_run <= results["derived"].config["theory_iters"]
            assert any(rep.status == "ok" for rep in results.values())

    def test_gap_quasi_monotone(self):
        prob = random_problem(6, 6, 2)
        _, _, report = sb.run_mirror_prox(prob, 1e-9, max_iters=1500, log_stride=25)
        gaps = np.array([r.duality_gap for r in report.records])
        assert np.all(gaps[1:] <= 1.1 * gaps[:-1])

    def test_steps_to_eps_scale_like_sqrt_n(self):
        # The theory budget grows like sqrt(n ln n).  On the seed-0 Gaussian
        # suite mp certifies eps 0.25 in 220, 300, 420 and 590 steps at
        # n = 25 to 200, a log-log slope of 0.48.
        sizes = (25, 50, 100, 200)
        steps = []
        for n in sizes:
            measures, grid = sb.gaussian_suite(sb.GaussianSuiteSpec(support=n, seed=0))
            cost = sb.grid_cost(sb.Grid1D(points=grid))
            prob = sb.BarycenterProblem(measures=measures, cost=sb.CostData(C=cost.C / cost.d_inf))
            _, _, report = sb.run_mirror_prox(prob, 0.25, log_stride=10, timer=lambda: 0.0)
            assert report.status == "ok", n
            steps.append(report.iterations_run)
        slope = np.polyfit(np.log(sizes), np.log(steps), 1)[0]
        assert 0.35 <= slope <= 0.65, steps

    def test_iteration_budget_validation(self, t1_problem):
        with pytest.raises(sb.ConfigError):
            sb.run_mirror_prox(t1_problem, 0.1, max_iters=0)


class TestFailurePaths:
    def test_non_finite_state_raises_with_iteration(self, t1_problem):
        cfg = sb.mp_config(t1_problem, 0.5)
        state = mp_initial_state(t1_problem)
        state.average.k = 4
        # x in Gibbs form, then as dense plans
        for changes in (
            {"log_factors": np.full_like(state.log_factors, np.nan)},
            {"plans": np.full_like(state.average.step_plans, np.nan)},
        ):
            poisoned = dataclasses.replace(state, **changes)
            with pytest.raises(sb.NumericalFailure) as info:
                mp_iteration(poisoned, cfg, t1_problem)
            assert info.value.iteration == 5
