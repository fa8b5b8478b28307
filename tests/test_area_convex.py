import math

import numpy as np
import pytest

import saddlebary as sb
from saddlebary.area_convex import AMProblem, _box_quadratic_argmin, am_prox
from conftest import random_dual, random_primal, random_problem


def full_direction(rng, n, m):
    return rng.normal(size=m * n * n + n + 2 * m * n)


def second_difference(x, y, w, cost, h):
    """Finite-difference quadratic form of the regularizer along w."""
    n, m = x.n, x.m

    def r_at(t):
        z = np.concatenate([x.plans.ravel(), x.bary, y.duals.ravel()]) + t * w
        xp = sb.PrimalPoint(plans=z[: m * n * n].reshape(m, n * n), bary=z[m * n * n : m * n * n + n])
        yp = sb.DualPoint(duals=z[m * n * n + n :].reshape(m, 2 * n))
        return sb.regularizer(xp, yp, cost)

    return (r_at(h) - 2.0 * r_at(0.0) + r_at(-h)) / h**2


class TestTheta:
    def test_paper_variant(self):
        assert sb.theta(2, 1.0, "paper") == pytest.approx(40 * math.log(2) + 6)

    def test_exact_variant(self):
        assert sb.theta(2, 1.0, "exact") == pytest.approx(50 * math.log(2) + 6)

    def test_zero_cost_scale(self):
        assert sb.theta(7, 0.0, "paper") == 0.0
        assert sb.theta(7, 0.0, "exact") == 0.0

    def test_unknown_variant(self):
        with pytest.raises(sb.ConfigError):
            sb.theta(2, 1.0, "tight")


class TestRegularizer:
    def test_value_at_canonical_minimizer(self, t1_problem):
        x = sb.uniform_primal(2, 1)
        y = sb.zero_dual(2, 1)
        assert sb.regularizer(x, y, t1_problem.cost) == pytest.approx(-50 * math.log(2))

    def test_zero_at_vertices(self, t1_problem):
        plans = np.zeros((1, 4))
        plans[0, 2] = 1.0
        x = sb.PrimalPoint(plans=plans, bary=np.array([0.0, 1.0]))
        assert sb.regularizer(x, sb.zero_dual(2, 1), t1_problem.cost) == 0.0

    def test_quadratic_part_nonnegative(self):
        rng = np.random.default_rng(40)
        cost = random_problem(40, 3, 2).cost
        for _ in range(100):
            x = random_primal(rng, 3, 2)
            y = random_dual(rng, 3, 2)
            with_duals = sb.regularizer(x, y, cost)
            without = sb.regularizer(x, sb.zero_dual(3, 2), cost)
            assert with_duals >= without - 1e-12


class TestGradAtMin:
    def test_plan_entries(self):
        gx, gy = sb.regularizer_grad_at_min(2, 1, 1.0)
        assert np.allclose(gx[:4], 10 * (-4 * math.log(2) + 2))
        assert np.allclose(gx[4:], 10 * (-math.log(2) + 1))
        assert np.array_equal(gy, np.zeros(4))

    def test_dual_gradient_always_zero(self):
        for n, m in ((2, 1), (5, 3)):
            _, gy = sb.regularizer_grad_at_min(n, m, 2.5)
            assert np.array_equal(gy, np.zeros(2 * m * n))

    def test_matches_central_differences(self):
        n, m = 3, 2
        cost = random_problem(41, n, m).cost
        x = sb.uniform_primal(n, m)
        y = sb.zero_dual(n, m)
        gx, gy = sb.regularizer_grad_at_min(n, m, cost.d_inf)
        grad = np.concatenate([gx, gy])
        h = 1e-5
        base = np.concatenate([x.plans.ravel(), x.bary, y.duals.ravel()])
        for idx in range(0, base.size, 5):
            e = np.zeros_like(base)
            e[idx] = 1.0

            def r_at(t):
                z = base + t * e
                xp = sb.PrimalPoint(
                    plans=z[: m * n * n].reshape(m, n * n), bary=z[m * n * n : m * n * n + n]
                )
                yp = sb.DualPoint(duals=z[m * n * n + n :].reshape(m, 2 * n))
                return sb.regularizer(xp, yp, cost)

            fd = (r_at(h) - r_at(-h)) / (2 * h)
            assert fd == pytest.approx(grad[idx], abs=1e-6)


class TestAMObjective:
    def test_zero_linear_terms(self, t1_problem):
        rng = np.random.default_rng(42)
        x, y = random_primal(rng, 2, 1), random_dual(rng, 2, 1)
        amp = AMProblem(v_plans=np.zeros((1, 4)), v_bary=np.zeros(2), u=np.zeros((1, 4)))
        assert sb.am_objective(amp, x, y, t1_problem.cost) == pytest.approx(
            sb.regularizer(x, y, t1_problem.cost)
        )

    def test_value_at_canonical_point(self, t1_problem):
        amp = AMProblem(v_plans=np.zeros((1, 4)), v_bary=np.zeros(2), u=np.zeros((1, 4)))
        value = sb.am_objective(
            amp, sb.uniform_primal(2, 1), sb.zero_dual(2, 1), t1_problem.cost
        )
        assert value == pytest.approx(-50 * math.log(2))

    def test_per_block_constant_shift(self, t1_problem):
        rng = np.random.default_rng(43)
        x, y = random_primal(rng, 2, 1), random_dual(rng, 2, 1)
        amp = AMProblem(
            v_plans=rng.normal(size=(1, 4)), v_bary=rng.normal(size=2), u=rng.normal(size=(1, 4))
        )
        shifted = AMProblem(v_plans=amp.v_plans + 7.0, v_bary=amp.v_bary, u=amp.u)
        before = sb.am_objective(amp, x, y, t1_problem.cost)
        after = sb.am_objective(shifted, x, y, t1_problem.cost)
        assert after - before == pytest.approx(7.0, abs=1e-10)


class TestBoxQuadraticArgmin:
    def test_interior_solution(self):
        # linear coefficient -4, curvature 2: unclipped minimizer is exactly 1
        assert _box_quadratic_argmin(np.array([-4.0]), np.array([2.0]))[0] == 1.0

    def test_clipping(self):
        assert _box_quadratic_argmin(np.array([-40.0]), np.array([2.0]))[0] == 1.0
        assert _box_quadratic_argmin(np.array([40.0]), np.array([2.0]))[0] == -1.0

    def test_degenerate_zero_curvature(self):
        out = _box_quadratic_argmin(np.array([3.0, -3.0, 0.0]), np.zeros(3))
        assert np.array_equal(out, [-1.0, 1.0, 0.0])


class TestAMProx:
    def test_zero_dual_linear_term_gives_zero_duals(self, t1_problem):
        rng = np.random.default_rng(44)
        amp = AMProblem(
            v_plans=rng.normal(size=(1, 4)), v_bary=rng.normal(size=2), u=np.zeros((1, 4))
        )
        _, y = am_prox(amp, 3, t1_problem.cost, 1, 2)
        assert np.array_equal(y.duals, np.zeros((1, 4)))

    def test_fixed_point_at_zero_problem(self, t1_problem):
        amp = AMProblem(v_plans=np.zeros((1, 4)), v_bary=np.zeros(2), u=np.zeros((1, 4)))
        x, y = am_prox(amp, 1, t1_problem.cost, 1, 2)
        assert np.allclose(x.plans, 0.25)
        assert np.allclose(x.bary, 0.5)
        assert np.array_equal(y.duals, np.zeros((1, 4)))

    def test_outputs_feasible(self):
        rng = np.random.default_rng(45)
        n, m = 4, 3
        cost = random_problem(45, n, m).cost
        for _ in range(20):
            amp = AMProblem(
                v_plans=rng.normal(0, 10, (m, n * n)),
                v_bary=rng.normal(0, 10, n),
                u=rng.normal(0, 10, (m, 2 * n)),
            )
            x, y = am_prox(amp, 7, cost, m, n)
            assert np.allclose(x.plans.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(x.plans >= 0)
            assert x.bary.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.abs(y.duals) <= 1.0)

    def test_sweep_budget_validation(self, t1_problem):
        amp = AMProblem(v_plans=np.zeros((1, 4)), v_bary=np.zeros(2), u=np.zeros((1, 4)))
        with pytest.raises(sb.ConfigError):
            am_prox(amp, 0, t1_problem.cost, 1, 2)

    def test_monotone_and_contracting(self):
        # objective decreases every sweep and the suboptimality contraction
        # beats the guaranteed 23/24 factor by a wide margin
        rng = np.random.default_rng(46)
        n, m = 4, 2
        cost = random_problem(46, n, m).cost
        ratios = []
        for _ in range(10):
            amp = AMProblem(
                v_plans=rng.normal(0, 5, (m, n * n)),
                v_bary=rng.normal(0, 5, n),
                u=rng.normal(0, 3, (m, 2 * n)),
            )
            values = [
                sb.am_objective(amp, *am_prox(amp, t, cost, m, n), cost)
                for t in range(1, 26)
            ]
            values = np.array(values)
            assert np.all(np.diff(values) <= 1e-9 * np.maximum(1.0, np.abs(values[:-1])))
            star = sb.am_objective(amp, *am_prox(amp, 400, cost, m, n), cost)
            sub = values - star
            good = sub[:-1] > 1e-11
            ratios.extend((sub[1:][good] / sub[:-1][good]).tolist())
        assert np.median(ratios) <= 23.0 / 24.0 + 0.02


class TestInnerIterations:
    def test_reference_value(self):
        # 24*ln((88/0.25 + 8)*33.7259 + 72) = 24*ln(12213.36) = 225.85
        theta_paper = 40 * math.log(2) + 6
        assert sb.am_inner_iterations(0.5, theta_paper, 1.0) == 226

    def test_monotone_in_eps(self):
        theta_val = sb.theta(8, 1.0)
        values = [sb.am_inner_iterations(e, theta_val, 1.0) for e in (0.05, 0.1, 0.5, 1.0)]
        assert values == sorted(values, reverse=True)

    def test_theta_doubling_growth(self):
        theta_val = sb.theta(8, 1.0)
        before = sb.am_inner_iterations(0.2, theta_val, 1.0)
        after = sb.am_inner_iterations(0.2, 2 * theta_val, 1.0)
        assert after - before <= 24 * math.log(2) + 1

    def test_rejects_bad_eps(self):
        with pytest.raises(sb.ConfigError):
            sb.am_inner_iterations(0.0, 10.0, 1.0)


class TestDEConfig:
    def test_invariants(self, t1_problem):
        cfg = sb.de_config(t1_problem, 0.25)
        assert cfg.kappa == 3.0
        assert cfg.outer_iters == math.ceil(12 * cfg.theta / 0.25)
        assert cfg.inner_iters == sb.am_inner_iterations(0.25, cfg.theta, 1.0)
        assert cfg.eps_prime == 0.125

    def test_theta_variant_flows_through(self, t1_problem):
        cfg = sb.de_config(t1_problem, 0.25, "paper")
        assert cfg.theta == pytest.approx(sb.theta(2, 1.0, "paper"))

    def test_initial_error_bound(self):
        theta_val = sb.theta(4, 1.0)
        bound = sb.de_initial_error_bound(0.5, theta_val, 1.0)
        assert bound == pytest.approx((44 / 0.5 + 2) * theta_val + 18)


class TestHessianForms:
    def test_zero_direction(self):
        rng = np.random.default_rng(47)
        n, m = 3, 2
        cost = random_problem(47, n, m).cost
        x, y = random_primal(rng, n, m), random_dual(rng, n, m)
        q_hess, q_diag = sb.hessian_forms(x, y, np.zeros(m * n * n + n + 2 * m * n), cost, m)
        assert q_hess == 0.0 and q_diag == 0.0

    def test_zero_duals_dual_direction_doubles_surrogate(self):
        # at y=0 the cross blocks vanish; a direction supported on the dual
        # block sees exactly twice the surrogate's diagonal
        rng = np.random.default_rng(48)
        n, m = 3, 2
        cost = random_problem(48, n, m).cost
        x = random_primal(rng, n, m)
        w = np.zeros(m * n * n + n + 2 * m * n)
        w[m * n * n + n :] = rng.normal(size=2 * m * n)
        q_hess, q_diag = sb.hessian_forms(x, sb.zero_dual(n, m), w, cost, m)
        assert q_hess == pytest.approx(2.0 * q_diag, rel=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(49)
        n, m = 3, 2
        cost = random_problem(49, n, m).cost
        # interior point keeps the fourth derivative tame for the stencil
        x = sb.PrimalPoint(
            plans=(random_primal(rng, n, m).plans + 1.0 / (n * n)) / 2.0,
            bary=(random_primal(rng, n, m).bary + 1.0 / n) / 2.0,
        )
        y = sb.DualPoint(duals=0.5 * random_dual(rng, n, m).duals)
        w = full_direction(rng, n, m)
        w /= np.linalg.norm(w)
        q_hess, _ = sb.hessian_forms(x, y, w, cost, m)
        fd = second_difference(x, y, w, cost, h=1e-5)
        assert q_hess == pytest.approx(fd, rel=1e-5)

    def test_sandwich_on_random_points(self):
        rng = np.random.default_rng(50)
        n, m = 4, 2
        cost = random_problem(50, n, m).cost
        for _ in range(300):
            x = random_primal(rng, n, m)
            plans = np.maximum(x.plans, 1e-6)
            bary = np.maximum(x.bary, 1e-6)
            x = sb.PrimalPoint(plans=plans / plans.sum(1, keepdims=True), bary=bary / bary.sum())
            y = random_dual(rng, n, m)
            w = full_direction(rng, n, m)
            q_hess, q_diag = sb.hessian_forms(x, y, w, cost, m)
            assert q_diag <= q_hess * (1 + 1e-8) + 1e-12
            assert q_hess <= 6 * q_diag * (1 + 1e-8) + 1e-12

    def test_domain_and_shape_errors(self):
        rng = np.random.default_rng(51)
        n, m = 2, 1
        cost = random_problem(51, n, m).cost
        x = sb.PrimalPoint(plans=np.array([[1.0, 0.0, 0.0, 0.0]]), bary=np.array([0.5, 0.5]))
        w = np.zeros(m * n * n + n + 2 * m * n)
        with pytest.raises(sb.DomainError):
            sb.hessian_forms(x, sb.zero_dual(n, m), w, cost, m)
        with pytest.raises(sb.ConfigError):
            sb.hessian_forms(random_primal(rng, n, m), sb.zero_dual(n, m), np.zeros(3), cost, m)


class TestAreaConvexity:
    def test_degenerate_triple(self):
        rng = np.random.default_rng(52)
        n, m = 3, 2
        cost = random_problem(52, n, m).cost
        z = (random_primal(rng, n, m), random_dual(rng, n, m))
        assert abs(sb.area_convexity_residual(z, z, z, cost)) <= 1e-12

    def test_zero_cost_reduces_to_jensen(self):
        rng = np.random.default_rng(53)
        n, m = 2, 1
        cost = sb.vectorize_cost(np.zeros((n, n)))
        triple = [(random_primal(rng, n, m), random_dual(rng, n, m)) for _ in range(3)]
        # the regularizer and the operator both scale with the sup-norm of
        # the cost, so everything vanishes
        assert sb.area_convexity_residual(*triple, cost) == 0.0

    def test_nonnegative_on_random_triples(self):
        rng = np.random.default_rng(54)
        for n, m in ((2, 1), (3, 2)):
            cost = random_problem(54 + n, n, m).cost
            for _ in range(300):
                triple = [(random_primal(rng, n, m), random_dual(rng, n, m)) for _ in range(3)]
                assert sb.area_convexity_residual(*triple, cost) >= -1e-9


class TestRegularizerRange:
    def test_sampled_range(self):
        rng = np.random.default_rng(55)
        n, m = 4, 2
        cost = random_problem(55, n, m).cost
        base = sb.regularizer(sb.uniform_primal(n, m), sb.zero_dual(n, m), cost)
        top = sb.theta(n, cost.d_inf, "exact")
        for trial in range(500):
            if trial % 10 == 0:
                plans = np.zeros((m, n * n))
                plans[np.arange(m), rng.integers(0, n * n, m)] = 1.0
                bary = np.zeros(n)
                bary[rng.integers(0, n)] = 1.0
                x = sb.PrimalPoint(plans=plans, bary=bary)
                y = sb.DualPoint(duals=np.sign(rng.uniform(-1, 1, (m, 2 * n))))
            else:
                x = random_primal(rng, n, m, alpha=rng.choice([1.0, 0.05]))
                y = random_dual(rng, n, m)
            value = sb.regularizer(x, y, cost) - base
            assert value >= 0.0
            assert value <= top + 1e-9


class TestDualExtrapolation:
    def test_self_certified_on_t1(self, t1_problem):
        wx, wy, report = sb.run_dual_extrapolation(t1_problem, 0.5)
        assert report.final_gap <= 0.5
        assert sb.duality_gap(wx, wy, t1_problem) == pytest.approx(report.final_gap, abs=1e-12)

    def test_single_outer_step_matches_manual_composition(self, t1_problem):
        n, m = 2, 1
        cost = t1_problem.cost
        cfg = sb.de_config(t1_problem, 0.5)
        gx, gy = sb.regularizer_grad_at_min(n, m, cost.d_inf)
        base = AMProblem.from_flat(-gx, -gy, n, m)
        z = am_prox(base, cfg.inner_iters, cost, m, n)
        g_primal, g_dual = sb.gradient_operator(*z, t1_problem)
        advanced = AMProblem.from_flat(
            -gx + g_primal / cfg.kappa, -gy + g_dual / cfg.kappa, n, m
        )
        wx_manual, wy_manual = am_prox(advanced, cfg.inner_iters, cost, m, n)
        wx, wy, _ = sb.run_dual_extrapolation(t1_problem, 0.5, max_outer=1)
        assert np.array_equal(wx.plans, wx_manual.plans)
        assert np.array_equal(wx.bary, wx_manual.bary)
        assert np.array_equal(wy.duals, wy_manual.duals)

    def test_deterministic(self):
        prob = random_problem(56, 3, 2)
        _, _, r1 = sb.run_dual_extrapolation(prob, 0.4, timer=lambda: 0.0)
        _, _, r2 = sb.run_dual_extrapolation(prob, 0.4, timer=lambda: 0.0)
        assert r1.records == r2.records

    def test_certificate_within_budget_small_instances(self):
        for seed, (n, m) in enumerate([(3, 1), (4, 2)]):
            prob = random_problem(60 + seed, n, m)
            _, _, report = sb.run_dual_extrapolation(prob, 0.4, log_stride=10)
            assert report.converged
            assert report.iterations_run <= report.config["outer_iters"]

    def test_gap_slope_near_minus_one(self):
        # the 1/k decay of the averaged-iterate certificate sets in after a
        # burn-in, so measure the final decade of a longer run
        prob = random_problem(5, 4, 2, zero_diagonal=True)
        _, _, report = sb.run_dual_extrapolation(prob, 1e-9, max_outer=4000, log_stride=25)
        its = np.array([r.iteration for r in report.records], dtype=float)
        gaps = np.array([r.duality_gap for r in report.records])
        window = its >= its[-1] / 10
        design = np.vstack([np.log(its[window]), np.ones(window.sum())]).T
        slope = np.linalg.lstsq(design, np.log(gaps[window]), rcond=None)[0][0]
        assert -1.25 <= slope <= -0.75

    def test_budget_validation(self, t1_problem):
        with pytest.raises(sb.ConfigError):
            sb.run_dual_extrapolation(t1_problem, 0.5, max_outer=0)
        with pytest.raises(sb.ConfigError):
            sb.run_dual_extrapolation(t1_problem, -1.0)


class TestFailurePaths:
    def test_gradient_sum_guard_trips_on_corrupt_state(self):
        from saddlebary.area_convex import DEState, _check_gradient_sums

        n, m = 3, 2
        state = DEState(
            s_plans=np.full((m, n * n), 1e6),
            s_bary=np.zeros(n),
            s_duals=np.zeros((m, 2 * n)),
            sum_w_plans=np.zeros((m, n * n)),
            sum_w_bary=np.zeros(n),
            sum_w_duals=np.zeros((m, 2 * n)),
            k=1,
        )
        with pytest.raises(sb.NumericalFailure):
            _check_gradient_sums(state, 3.0, 1.0, m)

    def test_am_prox_non_finite_linear_term(self, t1_problem):
        amp = AMProblem(
            v_plans=np.full((1, 4), np.nan), v_bary=np.zeros(2), u=np.zeros((1, 4))
        )
        with pytest.raises(sb.NumericalFailure):
            am_prox(amp, 3, t1_problem.cost, 1, 2)
