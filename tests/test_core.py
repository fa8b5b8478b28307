import math

import numpy as np
import pytest

import saddlebary as sb
from saddlebary.core import (
    RunningAverage,
    _adjoint_stack,
    _gradient,
    _marginals_stack,
    _residual,
)
from conftest import (
    dense_big_operator,
    dense_incidence,
    enumerated_gap,
    primal_vector,
    random_dual,
    random_primal,
    random_problem,
    saddle_objective,
    uniform_primal,
    zero_dual,
)


class TestVectorizeCost:
    def test_row_major(self):
        cd = sb.vectorize_cost([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(cd.d, [0.0, 1.0, 1.0, 0.0])
        assert cd.d_inf == 1.0

    def test_zero_matrix(self):
        cd = sb.vectorize_cost(np.zeros((2, 2)))
        assert np.array_equal(cd.d, np.zeros(4))
        assert cd.d_inf == 0.0

    def test_general_entries(self):
        cd = sb.vectorize_cost([[2.0, 1.0], [3.0, 4.0]])
        assert np.array_equal(cd.d, [2.0, 1.0, 3.0, 4.0])
        assert cd.d_inf == 4.0

    def test_vectorization_matches_definition(self):
        rng = np.random.default_rng(0)
        C = rng.uniform(0, 5, (4, 4))
        cd = sb.vectorize_cost(C)
        for j in range(4):
            for k in range(4):
                assert cd.d[j * 4 + k] == C[j, k]

    def test_negative_entry_rejected(self):
        with pytest.raises(sb.InvalidCostError):
            sb.vectorize_cost([[0.0, -1.0], [1.0, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(sb.ShapeError):
            sb.vectorize_cost(np.zeros((2, 3)))

    def test_cost_data_is_built_from_c_alone(self):
        # a d and d_inf disagreeing with C used to be accepted, and a solver
        # then reported a gap its own point did not have under C
        C = [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(TypeError):
            sb.CostData(C=C, d=np.zeros(4), d_inf=9.0)
        cost = sb.CostData(C=C)
        assert np.array_equal(cost.d, sb.vectorize_cost(C).d)
        assert cost.d_inf == 1.0
        prob = sb.BarycenterProblem.create([[1.0, 0.0]], cost)
        x, y, report = sb.run_mirror_prox(prob, 0.5, max_iters=5)
        reference = sb.BarycenterProblem.create([[1.0, 0.0]], sb.vectorize_cost(C))
        assert report.final_gap == sb.duality_gap(x, y, reference)
        for bad, error in (([[0.0, np.inf], [1.0, 0.0]], sb.InvalidCostError),
                           ([[0.0, -1.0], [1.0, 0.0]], sb.InvalidCostError),
                           (np.zeros((2, 3)), sb.ShapeError)):
            with pytest.raises(error):
                sb.CostData(C=bad)


def marginals(x):
    """Row then column sums of one vectorized plan, via the stacked form."""
    n = math.isqrt(x.shape[0])
    return _marginals_stack(x[None, :], n)[0]


def adjoint(y):
    """Adjoint of :func:`marginals` on one dual vector, via the stacked form."""
    return _adjoint_stack(y[None, :], y.shape[0] // 2)[0]


class TestMarginals:
    def test_uniform_plan(self):
        out = marginals(np.full(4, 0.25))
        assert np.allclose(out, [0.5, 0.5, 0.5, 0.5])

    def test_diagonal_plan(self):
        out = marginals(np.array([0.5, 0.0, 0.0, 0.5]))
        assert np.allclose(out, [0.5, 0.5, 0.5, 0.5])

    def test_corner_plan_against_dense(self):
        x = np.array([1.0, 0.0, 0.0, 0.0])
        expected = dense_incidence(2) @ x
        assert np.array_equal(marginals(x), expected)
        assert np.array_equal(expected, [1.0, 0.0, 1.0, 0.0])

    def test_random_against_dense(self):
        # the stacked marginals are the big operator applied with a zero bary
        rng = np.random.default_rng(1)
        for n, m in ((2, 1), (3, 2), (5, 3)):
            big = dense_big_operator(n, m)
            for _ in range(20):
                plans = rng.dirichlet(np.ones(n * n), m)
                expected = big @ np.concatenate([plans.ravel(), np.zeros(n)])
                out = _marginals_stack(plans, n)
                assert np.allclose(out.ravel(), expected, atol=1e-14)

    def test_mass_doubling(self):
        rng = np.random.default_rng(2)
        x = rng.dirichlet(np.ones(9))
        out = marginals(x)
        assert out.sum() == pytest.approx(2.0 * x.sum(), abs=1e-14)


class TestMarginalsAdjoint:
    def test_single_row_price(self):
        out = adjoint(np.array([1.0, 0.0, 0.0, 0.0]))
        expected = dense_incidence(2).T @ np.array([1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(out, expected)
        assert np.array_equal(out, [1.0, 1.0, 0.0, 0.0])

    def test_zero(self):
        assert np.array_equal(adjoint(np.zeros(4)), np.zeros(4))

    def test_ones_against_dense(self):
        y = np.ones(4)
        out = adjoint(y)
        assert np.array_equal(out, dense_incidence(2).T @ y)
        assert np.array_equal(out, [2.0, 2.0, 2.0, 2.0])

    def test_random_against_dense(self):
        # the plan part of the big operator's transpose, block by block
        rng = np.random.default_rng(18)
        for n, m in ((2, 1), (3, 2), (5, 3)):
            big = dense_big_operator(n, m)
            for _ in range(20):
                duals = rng.uniform(-1, 1, (m, 2 * n))
                expected = (big.T @ duals.ravel())[: m * n * n]
                assert np.allclose(_adjoint_stack(duals, n).ravel(), expected, atol=1e-14)

    def test_adjoint_identity(self):
        # <A x, y> == <x, A^T y> to 1e-10 relative
        rng = np.random.default_rng(3)
        for n, m in ((2, 1), (4, 2), (7, 3)):
            for _ in range(30):
                plans = rng.dirichlet(np.ones(n * n), m)
                duals = rng.uniform(-1, 1, (m, 2 * n))
                lhs = float(np.sum(_marginals_stack(plans, n) * duals))
                rhs = float(np.sum(plans * _adjoint_stack(duals, n)))
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def big_operator(x):
    """The stacked constraint operator on a primal point, as the certificate applies it."""
    return _residual(_marginals_stack(x.plans, x.bary.shape[0]), x.bary, 0.0).ravel()


class TestBigOperator:
    def test_uniform_single_measure(self):
        x = sb.PrimalPoint(plans=np.full((1, 4), 0.25), bary=np.array([0.5, 0.5]))
        out = big_operator(x)
        expected = dense_big_operator(2, 1) @ primal_vector(x)
        assert np.allclose(out, expected, atol=1e-15)
        assert np.allclose(out, [0.0, 0.0, 0.5, 0.5])

    def test_row_sums_matching_bary_cancel(self):
        rng = np.random.default_rng(4)
        n, m = 3, 2
        bary = rng.dirichlet(np.ones(n))
        plans = np.stack([np.outer(bary, rng.dirichlet(np.ones(n))).ravel() for _ in range(m)])
        x = sb.PrimalPoint(plans=plans, bary=bary)
        out = big_operator(x).reshape(m, 2 * n)
        assert np.allclose(out[:, :n], 0.0, atol=1e-15)

    def test_two_measures_skewed_bary(self):
        x = sb.PrimalPoint(plans=np.full((2, 4), 0.25), bary=np.array([1.0, 0.0]))
        out = big_operator(x)
        expected = dense_big_operator(2, 2) @ primal_vector(x)
        assert np.allclose(out, expected, atol=1e-15)
        assert np.allclose(out, [-0.5, 0.5, 0.5, 0.5, -0.5, 0.5, 0.5, 0.5])

    def test_random_against_dense(self):
        rng = np.random.default_rng(5)
        for n, m in ((2, 1), (3, 2), (4, 3)):
            big = dense_big_operator(n, m)
            for _ in range(10):
                x = random_primal(rng, n, m)
                assert np.allclose(big_operator(x), big @ primal_vector(x), atol=1e-13)


class TestObjective:
    """The saddle objective of the brute-force gap reference, on hand-computed values."""

    def test_zero_dual_leaves_linear_term(self, t1_problem):
        rng = np.random.default_rng(6)
        x = random_primal(rng, 2, 1)
        y = zero_dual(2, 1)
        expected = float(np.dot(x.plans[0], t1_problem.cost.d))
        assert saddle_objective(x, y, t1_problem) == pytest.approx(expected, abs=1e-15)

    def test_uniform_value(self, t1_problem):
        x = uniform_primal(2, 1)
        assert saddle_objective(x, zero_dual(2, 1), t1_problem) == pytest.approx(0.5)

    def test_single_active_dual(self, t1_problem):
        x = uniform_primal(2, 1)
        y = sb.DualPoint(duals=np.array([[0.0, 0.0, 1.0, 0.0]]))
        assert saddle_objective(x, y, t1_problem) == pytest.approx(-0.5)


def gradient(x, y, prob):
    """The saddle gradient as the solvers take it, flattened: (plans and barycenter, duals)."""
    residual = _residual(_marginals_stack(x.plans, prob.n), x.bary, prob.measures)
    potentials, g_bary, g_dual = _gradient(y.duals, residual, prob.cost.d_inf)
    g_plans = prob.cost.d / prob.m + _adjoint_stack(potentials, prob.n)
    return np.concatenate([g_plans.ravel(), g_bary]), g_dual.ravel()


class TestGradientOperator:
    def test_zero_dual(self, t1_problem):
        rng = np.random.default_rng(7)
        x = random_primal(rng, 2, 1)
        gx, _ = gradient(x, zero_dual(2, 1), t1_problem)
        assert np.allclose(gx[:4], t1_problem.cost.d)
        assert np.allclose(gx[4:], 0.0)

    def test_dual_gradient_from_big_operator(self, t1_problem):
        x = uniform_primal(2, 1)
        _, gy = gradient(x, zero_dual(2, 1), t1_problem)
        c = np.array([0.0, 0.0, 1.0, 0.0])
        expected = 2.0 * (c - big_operator(x))
        assert np.allclose(gy, expected)
        assert np.allclose(gy, [0.0, 0.0, 1.0, -1.0])

    def test_plan_block_with_active_dual(self, t1_problem):
        rng = np.random.default_rng(8)
        x = random_primal(rng, 2, 1)
        y = sb.DualPoint(duals=np.array([[1.0, 0.0, 0.0, 0.0]]))
        gx, _ = gradient(x, y, t1_problem)
        assert np.allclose(gx[:4], [2.0, 3.0, 1.0, 0.0])

    def test_matches_dense_derivative(self):
        # d/dx of F is (d + 2 d_inf A^T y)/m on plans and the bary block of
        # the same expression; check against dense matrices on a random pair.
        rng = np.random.default_rng(9)
        n, m = 3, 2
        prob = random_problem(9, n, m)
        x, y = random_primal(rng, n, m), random_dual(rng, n, m)
        big = dense_big_operator(n, m)
        d_stack = np.concatenate([np.tile(prob.cost.d, m), np.zeros(n)])
        gx_expected = (d_stack + 2.0 * prob.cost.d_inf * big.T @ y.duals.ravel()) / m
        c = np.zeros(2 * m * n)
        for i in range(m):
            c[2 * n * i + n : 2 * n * (i + 1)] = prob.measures[i]
        gy_expected = (2.0 * prob.cost.d_inf / m) * (c - big @ primal_vector(x))
        gx, gy = gradient(x, y, prob)
        assert np.allclose(gx, gx_expected, atol=1e-13)
        assert np.allclose(gy, gy_expected, atol=1e-13)


class TestDualityGap:
    def test_uniform_start_value(self, t1_problem):
        x = uniform_primal(2, 1)
        y = zero_dual(2, 1)
        assert sb.duality_gap(x, y, t1_problem) == pytest.approx(2.5, abs=1e-12)
        assert enumerated_gap(x, y, t1_problem) == pytest.approx(2.5, abs=1e-12)

    def test_exact_saddle_point(self):
        # with zero-diagonal cost, the self-coupling of q with bary q and
        # zero duals is a saddle point: gap vanishes
        prob = random_problem(10, 3, 1, zero_diagonal=True)
        q = prob.measures[0]
        x = sb.PrimalPoint(plans=np.diag(q).ravel()[None, :], bary=q)
        y = zero_dual(3, 1)
        assert abs(sb.duality_gap(x, y, prob)) <= 1e-12

    def test_constant_shift_invariance(self, t1_problem):
        # the gap is a difference of a max and a min of the same objective,
        # so shifting the cost's linear term by a constant per plan block
        # moves both sides equally
        rng = np.random.default_rng(11)
        x, y = random_primal(rng, 2, 1), random_dual(rng, 2, 1)
        gap = sb.duality_gap(x, y, t1_problem)
        shifted = sb.BarycenterProblem.create(
            t1_problem.measures,
            sb.vectorize_cost(t1_problem.cost.C + 3.0),
        )
        # d_inf changes, so compare against the enumeration oracle instead
        assert sb.duality_gap(x, y, shifted) == pytest.approx(
            enumerated_gap(x, y, shifted), abs=1e-10
        )
        assert gap == pytest.approx(enumerated_gap(x, y, t1_problem), abs=1e-10)

    def test_matches_enumeration_small_instances(self):
        rng = np.random.default_rng(12)
        for n, m in ((2, 1), (2, 2), (3, 1), (3, 2)):
            prob = random_problem(100 + n + m, n, m)
            for _ in range(5):
                x, y = random_primal(rng, n, m), random_dual(rng, n, m)
                assert sb.duality_gap(x, y, prob) == pytest.approx(
                    enumerated_gap(x, y, prob), abs=1e-10
                )

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(13)
        prob = random_problem(13, 6, 3)
        for _ in range(200):
            x, y = random_primal(rng, 6, 3), random_dual(rng, 6, 3)
            assert sb.duality_gap(x, y, prob) >= -1e-9


class TestMarginalConsistency:
    def test_plan_marginal_mass(self):
        rng = np.random.default_rng(16)
        for n in (2, 5, 9):
            for _ in range(20):
                plans = rng.dirichlet(np.ones(n * n), 3)
                out = _marginals_stack(plans, n)
                assert np.allclose(np.abs(out).sum(axis=1), 2.0, atol=1e-12)
                assert np.allclose(out[:, :n].sum(axis=1), 1.0, atol=1e-12)
                assert np.allclose(out[:, n:].sum(axis=1), 1.0, atol=1e-12)


class TestOperatorNorm:
    def test_unit_norm_points(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            n = int(rng.integers(2, 17))
            m = int(rng.integers(1, 6))
            plans = rng.dirichlet(np.ones(n * n), m)
            bary = rng.dirichlet(np.ones(n))
            coef = np.abs(rng.normal(size=m + 1))
            coef /= np.linalg.norm(coef)
            coef *= rng.uniform() ** (1.0 / (m + 1))
            x = sb.PrimalPoint(
                plans=plans * coef[:m, None], bary=bary * coef[m] / math.sqrt(m)
            )
            assert float(np.sum(big_operator(x) ** 2)) <= 2.0 + 1e-9


class TestValidation:
    def test_histogram_negative(self):
        with pytest.raises(sb.DomainError):
            sb.validate_histogram([0.5, -0.5, 1.0])

    def test_histogram_bad_mass(self):
        with pytest.raises(sb.DomainError):
            sb.validate_histogram([0.5, 0.4])

    def test_problem_shape_checks(self):
        cost = sb.vectorize_cost(np.zeros((3, 3)))
        with pytest.raises(sb.ShapeError):
            sb.BarycenterProblem.create([[0.5, 0.5]], cost)

    def test_problem_is_built_from_measures_and_cost(self, t1_problem):
        # the constructor used to take n and m beside the measures and check
        # no row: [2, -1] was accepted, and 50 mp steps on it reported gap 0.300
        cost = t1_problem.cost
        with pytest.raises(sb.DomainError):
            sb.BarycenterProblem(measures=np.array([[2.0, -1.0]]), cost=cost)
        with pytest.raises(TypeError):
            sb.BarycenterProblem(n=2, m=1, measures=np.array([[1.0, 0.0]]), cost=cost)
        prob = sb.BarycenterProblem(measures=[[1.0, 0.0], [0.5, 0.5]], cost=cost)
        assert (prob.n, prob.m) == (2, 2)
        assert np.array_equal(prob.measures, [[1.0, 0.0], [0.5, 0.5]])

    def test_problem_copies_its_measures(self, t1_problem):
        measures = np.array([[0.25, 0.75]])
        prob = sb.BarycenterProblem(measures=measures, cost=t1_problem.cost)
        x, y = uniform_primal(2, 1), zero_dual(2, 1)
        gap = sb.duality_gap(x, y, prob)
        measures[0] = [2.0, -1.0]
        assert np.array_equal(prob.measures, [[0.25, 0.75]])
        assert sb.duality_gap(x, y, prob) == gap


class TestRunningAverage:
    @staticmethod
    def steps(rng, m, n, count):
        """`count` random (K, a, b_over_z, bary, duals) steps, K shared or one block per measure."""
        shapes = [(n, n), (m, n, n)]
        return [
            (
                rng.uniform(0.0, 1.0, shapes[t % 2]), rng.uniform(0.5, 2.0, (m, n)),
                rng.uniform(0.5, 2.0, (m, n)), rng.dirichlet(np.ones(n)),
                rng.uniform(-1.0, 1.0, (m, 2 * n)),
            )
            for t in range(count)
        ]

    @pytest.mark.parametrize("count", [1, 3])
    def test_pair_is_totals_over_k(self, count):
        m, n = 3, 4
        average = RunningAverage(m, n)
        plans, bary, duals = np.zeros((m, n * n)), np.zeros(n), np.zeros((m, 2 * n))
        for K, a, b_over_z, p, y in self.steps(np.random.default_rng(count), m, n, count):
            formed = (K * a[:, :, None] * b_over_z[:, None, :]).reshape(m, n * n)
            formed[formed < np.finfo(float).tiny] = 0.0
            plans, bary, duals = plans + formed, bary + p, duals + y
            average.add(K, a, b_over_z, p, y)
            assert np.array_equal(average.step_plans, formed)
        assert average.k == count
        assert np.array_equal(average.plans, plans)
        assert np.array_equal(average.bary, bary)
        assert np.array_equal(average.duals, duals)
        x, y = average.pair()
        assert np.array_equal(x.plans, plans / count)
        assert np.array_equal(x.bary, bary / count)
        assert np.array_equal(y.duals, duals / count)

    def test_pair_owns_its_arrays(self):
        # report.final_x follows every record, so a pair handed out must not
        # change under a later step or a later pair
        m, n = 2, 3
        average = RunningAverage(m, n)
        for step in self.steps(np.random.default_rng(0), m, n, 2):
            average.add(*step)
        x, y = average.pair()
        totals = (average.plans, average.bary, average.duals, average.step_plans)
        for array in (x.plans, x.bary, y.duals):
            assert not any(np.shares_memory(array, total) for total in totals)
        before = [array.copy() for array in (x.plans, x.bary, y.duals)]
        x.plans[:], x.bary[:], y.duals[:] = 7.0, 7.0, 7.0
        again_x, again_y = average.pair()
        for array, expected in zip((again_x.plans, again_x.bary, again_y.duals), before):
            assert np.array_equal(array, expected)
