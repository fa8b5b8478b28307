import math

import numpy as np
import pytest

import saddlebary as sb
import saddlebary.core as core
from saddlebary.area_convex import (
    FactoredAMProblem,
    _box_quadratic_argmin,
    _sweep_signs,
    am_prox,
)
from saddlebary.core import _adjoint_stack
from conftest import (
    dense_big_operator,
    dense_plans,
    factored_draw,
    primal_vector,
    prox_point,
    random_dual,
    random_primal,
    random_problem,
    uniform_primal,
    zero_dual,
)
from paper_checks import (
    am_objective,
    area_convexity_residual,
    hessian_forms,
    paper_theta,
    regularizer,
)


def full_direction(rng, n, m):
    return rng.normal(size=m * n * n + n + 2 * m * n)


def second_difference(x, y, w, cost, h):
    """Finite-difference quadratic form of the regularizer along w."""
    n, m = x.bary.shape[0], x.plans.shape[0]

    def r_at(t):
        z = np.concatenate([x.plans.ravel(), x.bary, y.duals.ravel()]) + t * w
        xp = sb.PrimalPoint(plans=z[: m * n * n].reshape(m, n * n), bary=z[m * n * n : m * n * n + n])
        yp = sb.DualPoint(duals=z[m * n * n + n :].reshape(m, 2 * n))
        return regularizer(xp, yp, cost)

    return (r_at(h) - 2.0 * r_at(0.0) + r_at(-h)) / h**2


class TestTheta:
    def test_paper_variant(self):
        assert paper_theta(2, 1.0) == pytest.approx(40 * math.log(2) + 6)

    def test_exact_variant(self):
        assert sb.theta(2, 1.0) == pytest.approx(50 * math.log(2) + 6)

    def test_zero_cost_scale(self):
        assert paper_theta(7, 0.0) == 0.0
        assert sb.theta(7, 0.0) == 0.0


class TestRegularizer:
    def test_value_at_canonical_minimizer(self, t1_problem):
        x = uniform_primal(2, 1)
        y = zero_dual(2, 1)
        assert regularizer(x, y, t1_problem.cost) == pytest.approx(-50 * math.log(2))

    def test_zero_at_vertices(self, t1_problem):
        plans = np.zeros((1, 4))
        plans[0, 2] = 1.0
        x = sb.PrimalPoint(plans=plans, bary=np.array([0.0, 1.0]))
        assert regularizer(x, zero_dual(2, 1), t1_problem.cost) == 0.0

    def test_quadratic_part_nonnegative(self):
        rng = np.random.default_rng(40)
        cost = random_problem(40, 3, 2).cost
        for _ in range(100):
            x = random_primal(rng, 3, 2)
            y = random_dual(rng, 3, 2)
            with_duals = regularizer(x, y, cost)
            without = regularizer(x, zero_dual(3, 2), cost)
            assert with_duals >= without - 1e-12


def _zero_problem(n, m):
    return FactoredAMProblem(
        alpha=0.0, potentials=np.zeros((m, 2 * n)), v_bary=np.zeros(n), u=np.zeros((m, 2 * n))
    )


def _shift_rows(amp, shift):
    """`amp` with `shift[i]` added to every row potential of measure i."""
    n = amp.v_bary.shape[0]
    potentials = amp.potentials.copy()
    potentials[:, :n] += shift
    return FactoredAMProblem(amp.alpha, potentials, amp.v_bary, amp.u)


class TestAMObjective:
    def test_zero_linear_terms(self, t1_problem):
        rng = np.random.default_rng(42)
        x, y = random_primal(rng, 2, 1), random_dual(rng, 2, 1)
        amp = _zero_problem(2, 1)
        assert am_objective(amp, x, y, t1_problem.cost) == pytest.approx(
            regularizer(x, y, t1_problem.cost)
        )

    def test_value_at_canonical_point(self, t1_problem):
        value = am_objective(
            _zero_problem(2, 1), uniform_primal(2, 1), zero_dual(2, 1), t1_problem.cost
        )
        assert value == pytest.approx(-50 * math.log(2))

    def test_per_block_constant_shift(self, t1_problem):
        # a shift of every row potential is a shift of the whole plan block
        rng = np.random.default_rng(43)
        x, y = random_primal(rng, 2, 1), random_dual(rng, 2, 1)
        amp = factored_draw(rng, 2, 1, 1.0, 1.0)
        shifted = _shift_rows(amp, 7.0)
        before = am_objective(amp, x, y, t1_problem.cost)
        after = am_objective(shifted, x, y, t1_problem.cost)
        assert after - before == pytest.approx(7.0, abs=1e-10)


def _box_argmin(lin, curvature):
    """The dual argmin as an AM sweep calls it: -2 times the curvature and the sweep's signs."""
    lin = np.array(lin)
    with np.errstate(divide="ignore"):
        return _box_quadratic_argmin(
            lin, -2.0 * np.array(curvature), _sweep_signs(lin), np.empty_like(lin)
        )


class TestBoxQuadraticArgmin:
    def test_interior_solution(self):
        # linear coefficient -4, curvature 2: unclipped minimizer is exactly 1
        assert _box_argmin([-4.0], [2.0])[0] == 1.0

    def test_clipping(self):
        assert _box_argmin([-40.0], [2.0])[0] == 1.0
        assert _box_argmin([40.0], [2.0])[0] == -1.0

    def test_degenerate_zero_curvature(self):
        out = _box_argmin([3.0, -3.0, 0.0], np.zeros(3))
        assert np.array_equal(out, [-1.0, 1.0, 0.0])


class TestAMProx:
    def test_zero_dual_linear_term_gives_zero_duals(self, t1_problem):
        rng = np.random.default_rng(44)
        amp = FactoredAMProblem(
            alpha=rng.uniform(), potentials=rng.normal(size=(1, 4)), v_bary=rng.normal(size=2),
            u=np.zeros((1, 4)),
        )
        _, y = am_prox(amp, 3, t1_problem.cost)
        assert np.array_equal(y.duals, np.zeros((1, 4)))

    def test_fixed_point_at_zero_problem(self, t1_problem):
        x, y = prox_point(_zero_problem(2, 1), 1, t1_problem.cost)
        assert np.allclose(x.plans, 0.25)
        assert np.allclose(x.bary, 0.5)
        assert np.array_equal(y.duals, np.zeros((1, 4)))

    def test_outputs_feasible(self):
        rng = np.random.default_rng(45)
        n, m = 4, 3
        cost = random_problem(45, n, m).cost
        for _ in range(20):
            x, y = prox_point(factored_draw(rng, n, m, 10.0, 10.0), 7, cost)
            assert np.allclose(x.plans.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(x.plans >= 0)
            assert x.bary.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.abs(y.duals) <= 1.0)

    def test_invariant_to_constant_shift_per_block(self):
        # a constant on one measure's plan block (on its row potentials) or
        # on the barycenter block shifts the objective by a constant on the
        # simplices, so the prox point does not move
        rng = np.random.default_rng(47)
        n, m = 4, 3
        cost = random_problem(47, n, m).cost
        for _ in range(5):
            amp = factored_draw(rng, n, m, 5.0, 3.0)
            x, y = prox_point(amp, 300, cost)
            plan_shift = np.zeros((m, 1))
            plan_shift[rng.integers(m)] = rng.uniform(-20, 20)
            shifted = [
                _shift_rows(amp, plan_shift),
                FactoredAMProblem(
                    amp.alpha, amp.potentials, amp.v_bary + rng.uniform(-20, 20), amp.u
                ),
            ]
            for other in shifted:
                xs, ys = prox_point(other, 300, cost)
                np.testing.assert_allclose(xs.plans, x.plans, rtol=0, atol=1e-12)
                np.testing.assert_allclose(xs.bary, x.bary, rtol=0, atol=1e-12)
                np.testing.assert_allclose(ys.duals, y.duals, rtol=0, atol=1e-12)

    def test_sweep_budget_validation(self, t1_problem):
        with pytest.raises(sb.ConfigError):
            am_prox(_zero_problem(2, 1), 0, t1_problem.cost)

    def test_monotone_and_contracting(self):
        # objective decreases every sweep and the suboptimality contraction
        # beats the guaranteed 23/24 factor by a wide margin
        rng = np.random.default_rng(46)
        n, m = 4, 2
        cost = random_problem(46, n, m).cost
        ratios = []
        for _ in range(10):
            amp = factored_draw(rng, n, m, 5.0, 3.0)
            values = [
                am_objective(amp, *prox_point(amp, t, cost), cost)
                for t in range(1, 26)
            ]
            values = np.array(values)
            assert np.all(np.diff(values) <= 1e-9 * np.maximum(1.0, np.abs(values[:-1])))
            star = am_objective(amp, *prox_point(amp, 400, cost), cost)
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

    @pytest.mark.parametrize("eps", [1000.0, 2000.0, 10000.0])
    def test_eps_above_twice_the_start_bound_needs_one_sweep(self, eps):
        # on the normalized n = 100 suite 2 E0 is about 1,000, so
        # 24 ln(2 E0 / eps) is 0.04, -16.8 and -55.7 at these eps
        assert sb.am_inner_iterations(eps, sb.theta(100, 1.0), 1.0) == 1

    def test_theta_doubling_growth(self):
        theta_val = sb.theta(8, 1.0)
        before = sb.am_inner_iterations(0.2, theta_val, 1.0)
        after = sb.am_inner_iterations(0.2, 2 * theta_val, 1.0)
        assert after - before <= 24 * math.log(2) + 1

    def test_rejects_bad_eps(self):
        # eps not positive and finite, or an all-zero cost (d_inf 0)
        for eps, theta_val, d_inf in [
            (0.0, 10.0, 1.0), (math.inf, 10.0, 1.0), (math.nan, 10.0, 1.0),
            (0.1, 10.0, 0.0), (0.1, 0.0, 0.0),
        ]:
            with pytest.raises(sb.ConfigError):
                sb.am_inner_iterations(eps, theta_val, d_inf)


class TestDEConfig:
    def test_invariants(self, t1_problem):
        cfg = sb.de_config(t1_problem, 0.25)
        assert cfg.outer_iters == math.ceil(12 * cfg.theta / 0.25)
        assert cfg.inner_iters == sb.am_inner_iterations(0.25, cfg.theta, 1.0)

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
        q_hess, q_diag = hessian_forms(x, y, np.zeros(m * n * n + n + 2 * m * n), cost, m)
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
        q_hess, q_diag = hessian_forms(x, zero_dual(n, m), w, cost, m)
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
        q_hess, _ = hessian_forms(x, y, w, cost, m)
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
            q_hess, q_diag = hessian_forms(x, y, w, cost, m)
            assert q_diag <= q_hess * (1 + 1e-8) + 1e-12
            assert q_hess <= 6 * q_diag * (1 + 1e-8) + 1e-12

    def test_domain_and_shape_errors(self):
        rng = np.random.default_rng(51)
        n, m = 2, 1
        cost = random_problem(51, n, m).cost
        x = sb.PrimalPoint(plans=np.array([[1.0, 0.0, 0.0, 0.0]]), bary=np.array([0.5, 0.5]))
        w = np.zeros(m * n * n + n + 2 * m * n)
        with pytest.raises(sb.DomainError):
            hessian_forms(x, zero_dual(n, m), w, cost, m)
        with pytest.raises(sb.ConfigError):
            hessian_forms(random_primal(rng, n, m), zero_dual(n, m), np.zeros(3), cost, m)


class TestAreaConvexity:
    def test_degenerate_triple(self):
        rng = np.random.default_rng(52)
        n, m = 3, 2
        cost = random_problem(52, n, m).cost
        z = (random_primal(rng, n, m), random_dual(rng, n, m))
        assert abs(area_convexity_residual(z, z, z, cost)) <= 1e-12

    def test_zero_cost_reduces_to_jensen(self):
        rng = np.random.default_rng(53)
        n, m = 2, 1
        cost = sb.CostData(C=np.zeros((n, n)))
        triple = [(random_primal(rng, n, m), random_dual(rng, n, m)) for _ in range(3)]
        # the regularizer and the operator both scale with the sup-norm of
        # the cost, so everything vanishes
        assert area_convexity_residual(*triple, cost) == 0.0

    def test_nonnegative_on_random_triples(self):
        rng = np.random.default_rng(54)
        for n, m in ((2, 1), (3, 2)):
            cost = random_problem(54 + n, n, m).cost
            for _ in range(300):
                triple = [(random_primal(rng, n, m), random_dual(rng, n, m)) for _ in range(3)]
                assert area_convexity_residual(*triple, cost) >= -1e-9


class TestRegularizerRange:
    def test_sampled_range(self):
        rng = np.random.default_rng(55)
        n, m = 4, 2
        cost = random_problem(55, n, m).cost
        base = regularizer(uniform_primal(n, m), zero_dual(n, m), cost)
        top = sb.theta(n, cost.d_inf)
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
            value = regularizer(x, y, cost) - base
            assert value >= 0.0
            assert value <= top + 1e-9


def _gaussian_suite_problem(support=100):
    measures, grid = sb.gaussian_suite(sb.GaussianSuiteSpec(support=support, seed=0))
    cost = sb.grid_cost(sb.Grid1D(points=grid))
    return sb.BarycenterProblem(measures=measures, cost=sb.CostData(C=cost.C / cost.d_inf))


class TestDualExtrapolation:
    def test_self_certified_on_t1(self, t1_problem):
        wx, wy, report = sb.run_dual_extrapolation(t1_problem, 0.5)
        assert report.final_gap <= 0.5
        assert report.config["kappa"] == 3.0 and report.config["eps"] == 0.5
        assert sb.duality_gap(wx, wy, t1_problem) == pytest.approx(report.final_gap, abs=1e-12)

    def test_single_outer_step_matches_manual_composition(self, t1_problem):
        # the first step's prox calls see zero linear terms, then one
        # extrapolated gradient over kappa = 3: C / m on the plans, and the
        # scaled duals as potentials
        n, m = 2, 1
        cost = t1_problem.cost
        cfg = sb.de_config(t1_problem, 0.5)
        scale = 2.0 * cost.d_inf / m
        base = FactoredAMProblem(
            alpha=0.0, potentials=np.zeros((m, 2 * n)), v_bary=np.zeros(n), u=np.zeros((m, 2 * n))
        )
        zp, zy = am_prox(base, cfg.inner_iters, cost)
        residual = zp.marginals.copy()
        residual[:, :n] -= zp.bary
        target = np.concatenate([np.zeros((m, n)), t1_problem.measures], axis=1)
        advanced = FactoredAMProblem(
            alpha=0.0 + 1.0 / (3.0 * m),
            potentials=base.potentials + (scale * zy.duals) / 3.0,
            v_bary=base.v_bary + (-scale * zy.duals[:, :n].sum(axis=0)) / 3.0,
            u=base.u + (scale * (target - residual)) / 3.0,
        )
        wp, wy_manual = am_prox(advanced, cfg.inner_iters, cost)
        wx, wy, _ = sb.run_dual_extrapolation(t1_problem, 0.5, max_outer=1)
        assert np.array_equal(wx.plans, 0.0 + dense_plans(wp))
        assert np.array_equal(wx.bary, 0.0 + wp.bary)
        assert np.array_equal(wy.duals, 0.0 + wy_manual.duals)
        # the factored composition is the dense one: C / m + adj(scaled duals)
        big = dense_big_operator(n, m)
        adjoint = (big.T @ zy.duals.ravel())[: m * n * n]
        g_primal = (np.tile(cost.d, m) + 2.0 * cost.d_inf * adjoint) / m
        zx = sb.PrimalPoint(plans=dense_plans(zp), bary=zp.bary)
        g_dual = -scale * (big @ primal_vector(zx) - target.ravel())
        v_plans = advanced.alpha * cost.d + _adjoint_stack(advanced.potentials, n)
        np.testing.assert_allclose(v_plans, g_primal.reshape(m, n * n) / 3.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(advanced.u, g_dual.reshape(m, 2 * n) / 3.0, rtol=0, atol=1e-15)

    def test_deterministic(self):
        prob = random_problem(56, 3, 2)
        _, _, r1 = sb.run_dual_extrapolation(prob, 0.4, timer=lambda: 0.0)
        _, _, r2 = sb.run_dual_extrapolation(prob, 0.4, timer=lambda: 0.0)
        assert r1.records == r2.records

    def test_certificate_within_budget_small_instances(self):
        for seed, (n, m) in enumerate([(3, 1), (4, 2)]):
            prob = random_problem(60 + seed, n, m)
            _, _, report = sb.run_dual_extrapolation(prob, 0.4, log_stride=10)
            assert report.status == "ok"
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

    def test_steps_form_plans_into_the_state_buffer(self, monkeypatch):
        # every step forms its second prox output into the one m n^2 buffer
        # the running average owns, not into a fresh array
        outs = []
        form = core._form_plans

        def recording(K, a, b_over_z, out):
            outs.append(out)
            return form(K, a, b_over_z, out)

        monkeypatch.setattr(core, "_form_plans", recording)
        _, _, report = sb.run_dual_extrapolation(
            _gaussian_suite_problem(), 0.25, max_outer=20, timer=lambda: 0.0
        )
        assert report.iterations_run == 20
        assert len(outs) == 20
        assert all(out is outs[0] for out in outs)

    def test_steps_to_eps_flat_in_n(self):
        # The paper's point: de drops mp's sqrt(n) factor.  On the seed-0
        # Gaussian suite de certifies eps 0.25 in 1,360 and 1,390 outer steps
        # at n = 25 and 50, a log-log slope of 0.03; mp's is pinned to
        # [0.35, 0.65] in test_mirror_prox.
        sizes = (25, 50)
        steps = []
        for n in sizes:
            _, _, report = sb.run_dual_extrapolation(
                _gaussian_suite_problem(n), 0.25, log_stride=10, timer=lambda: 0.0
            )
            assert report.status == "ok", n
            steps.append(report.iterations_run)
        slope = np.polyfit(np.log(sizes), np.log(steps), 1)[0]
        assert slope <= 0.2, steps

    def test_budget_validation(self, t1_problem):
        with pytest.raises(sb.ConfigError):
            sb.run_dual_extrapolation(t1_problem, 0.5, max_outer=0)
        with pytest.raises(sb.ConfigError):
            sb.run_dual_extrapolation(t1_problem, -1.0)


class TestFailurePaths:
    def test_gradient_sum_guard_trips_on_corrupt_state(self):
        from saddlebary.area_convex import _check_gradient_sums

        n, m = 3, 2

        def sums(alpha, potentials):
            return FactoredAMProblem(alpha, potentials, np.zeros(n), np.zeros((m, 2 * n)))

        # one step at most moves alpha by 1/(2 kappa m) and each potential by
        # d_inf/(kappa m); sums at exactly those values pass after one step
        _check_gradient_sums(sums(1.0 / 12.0, np.full((m, 2 * n), 1.0 / 6.0)), 1, 1.0)
        corrupt = [sums(1e6, np.zeros((m, 2 * n)))]
        for index, value in ((1, -1e6), (n + 2, 1e6), (0, np.nan)):
            potentials = np.zeros((m, 2 * n))
            potentials[1, index] = value
            corrupt.append(sums(0.0, potentials))
        for bad in corrupt:
            with pytest.raises(sb.NumericalFailure):
                _check_gradient_sums(bad, 1, 1.0)

    def test_am_prox_non_finite_linear_term(self, t1_problem):
        amp = FactoredAMProblem(
            alpha=np.nan, potentials=np.zeros((1, 4)), v_bary=np.zeros(2), u=np.zeros((1, 4))
        )
        with pytest.raises(sb.NumericalFailure):
            am_prox(amp, 3, t1_problem.cost)

    @pytest.mark.parametrize("budget", [1, 3])
    def test_am_prox_non_finite_dual_term(self, t1_problem, budget):
        # a NaN dual term gives NaN duals without touching the curvature, so
        # the prox rejects it on entry, whatever the plan terms
        u = np.zeros((1, 4))
        u[0, 1] = np.nan
        for alpha in (0.0, 0.5):
            amp = FactoredAMProblem(
                alpha=alpha, potentials=np.zeros((1, 4)), v_bary=np.zeros(2), u=u
            )
            with pytest.raises(sb.NumericalFailure):
                am_prox(amp, budget, t1_problem.cost)

    def test_factored_prox_non_finite_potential(self, t1_problem):
        amp = FactoredAMProblem(
            alpha=0.5, potentials=np.array([[0.0, np.nan, 0.0, 0.0]]), v_bary=np.zeros(2),
            u=np.ones((1, 4)),
        )
        with pytest.raises(sb.NumericalFailure):
            am_prox(amp, 3, t1_problem.cost)
