"""Property tests of the plan arithmetic, the duality-gap certificate and its CSV
replay.

Examples are drawn by hypothesis with a fixed derandomized seed and kept
small (n <= 6, m <= 3), so the whole file runs in a few seconds.  Each
example draws sizes and a seed for NumPy's generator, which makes the
arrays.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, xlogy

import saddlebary as sb
from saddlebary.area_convex import _box_quadratic_argmin, _sweep_signs
from saddlebary.core import (
    FACTOR_SPAN_MAX,
    _adjoint_stack,
    _clamped_exp,
    _floor,
    _form_plans,
    _gradient,
    _marginals_stack,
    _plan_kernel,
    _residual,
    _scaled_marginals,
    _xlogy,
)
from conftest import dense_big_operator, primal_vector, random_dual, random_primal, random_problem

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)
sizes = st.tuples(st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))


def _scalings(rng, *shape):
    return np.exp(-rng.uniform(0.0, 2.0, shape))


@PROPERTY
@given(sizes, st.sampled_from(["shared", "stacked", "two-per-measure"]))
def test_scaled_marginals_are_the_formed_plans_sums(size, layout):
    n, m, seed = size
    rng = np.random.default_rng(seed)
    K = np.exp(-rng.uniform(0.0, 5.0, (n, n) if layout == "shared" else (m, n, n)))
    # mp scales one kernel block per measure by two (a, b) pairs at once
    pairs = 2 if layout == "two-per-measure" else 1
    a, b = _scalings(rng, m, pairs, n), _scalings(rng, m, pairs, n)
    marginals = _scaled_marginals(K, a, b)
    for s in range(pairs):
        plans = _form_plans(K, a[:, s], b[:, s], np.empty((m, n * n)))
        np.testing.assert_allclose(marginals[:, s], _marginals_stack(plans, n), rtol=1e-13)


TINY = np.finfo(float).tiny
# Plan entries are products of nonnegative factors: 0, subnormals, tiny and
# its neighbours, normals, inf and NaN, never -0.0.
plan_entries = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, np.nextafter(TINY, 0.0), TINY,
                     np.nextafter(TINY, 1.0), 1.0, np.inf, np.nan]),
    st.floats(min_value=0.0, allow_infinity=True, allow_subnormal=True).filter(
        lambda v: not (v == 0.0 and np.signbit(v))),
)


@PROPERTY
@given(st.lists(plan_entries, min_size=1, max_size=64))
def test_plan_floor_is_bitwise_the_masked_product(entries):
    # the floor zeroes entries below TINY in place; it replaced P *= P >= TINY
    P = np.array(entries)
    expected = P * (P >= TINY)
    floored = _floor(P)
    assert floored is P
    np.testing.assert_array_equal(floored.view(np.uint64), expected.view(np.uint64))


@PROPERTY
@given(
    sizes,
    st.sampled_from([10.0, 650.0, 750.0, 1100.0, 20000.0]),
    st.sampled_from(["shared", "stacked"]),
    st.sampled_from([1, 2]),
)
def test_plan_kernel_forms_the_log_domain_plans(size, span, costs_layout, plans_per_measure):
    # costs and potentials spanning about `span` in the exponent, on either
    # side of FACTOR_SPAN_MAX; a second plan per measure sits within 1 of the
    # first in every potential, as mp's two plans of a step do
    n, m, seed = size
    rng = np.random.default_rng(seed)
    costs = rng.uniform(0.0, span / 2, (n, n) if costs_layout == "shared" else (m, n, n))
    first = rng.uniform(0.0, span / 4, (m, 1, 2 * n))
    potentials = first + rng.uniform(-1.0, 1.0, (m, plans_per_measure, 2 * n))
    potentials[:, 0] = first[:, 0]
    if plans_per_measure == 1:
        potentials = potentials[:, 0]
    per_plan = potentials.reshape(m, -1, 2 * n)
    logw = -(costs.reshape(-1, 1, n, n) + per_plan[..., :n, None] + per_plan[..., None, n:])
    logw = logw.reshape(m, -1, n * n)
    reference = np.exp(logw - logsumexp(logw, axis=2, keepdims=True))
    halves = per_plan.reshape(m, -1, 2, n)
    within = np.ptp(costs) + np.ptp(halves, axis=-1).sum(axis=-1).max() <= FACTOR_SPAN_MAX

    kernel, log_factors = _plan_kernel(costs.copy(), potentials)
    assert kernel.shape == (costs.shape if within else (m, n, n))
    assert not np.any((kernel > 0) & (kernel < TINY))
    log_factors = log_factors.reshape(m, -1, 2 * n)
    for s in range(plans_per_measure):
        e = np.exp(log_factors[:, s])
        plans = _form_plans(kernel, e[:, :n], e[:, n:], np.empty((m, n * n)))
        plans /= plans.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(plans, reference[:, s], rtol=0, atol=1e-12)


@PROPERTY
@given(sizes, st.floats(600.0, 800.0))
def test_clamped_exp_is_exp_down_to_the_clamp_and_zero_below(size, depth):
    n, m, seed = size
    rng = np.random.default_rng(seed)
    exponents = rng.uniform(-depth, 0.0, (m, n, n))
    exponents[0, 0, 0] = -FACTOR_SPAN_MAX
    expected = np.where(exponents < -FACTOR_SPAN_MAX, 0.0, np.exp(exponents))
    buffer = exponents.copy()
    assert _clamped_exp(buffer) is buffer
    np.testing.assert_array_equal(buffer.view(np.uint64), expected.view(np.uint64))


def _reference_box_argmin(u, c):
    """The dual argmin as the sweep once took it: -sign(u), u / (-2 c) where c > 0, clipped."""
    t = np.negative(np.sign(u))
    np.divide(u, -2.0 * c, out=t, where=c > 0)
    np.minimum(t, 1.0, out=t)
    return np.maximum(t, -1.0, out=t)


# Linear coefficients: signed zeros, subnormals and floats up to the largest,
# so quotients overflow.  Curvatures: both zeros, subnormals, normals and inf.
argmin_lin = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, TINY, -1.0, 1.0, 1e300, -1.79e308]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)
argmin_curvature = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, TINY, 1e-300, 0.5, 1.0, 1e300, np.inf]),
    st.floats(min_value=0.0, max_value=1e307, allow_subnormal=True),
)


@PROPERTY
@given(st.lists(st.tuples(argmin_lin, argmin_curvature), min_size=1, max_size=32))
def test_box_argmin_keeps_its_two_argument_semantics(entries):
    # the sweep's form, handed -2 times any curvature, subnormal and inf
    # included: doubling is exact on all of them.  It takes a zero curvature
    # as +0.0, the only zero a sweep makes (-0.0 once scaled), and gives
    # the other zero for a -0.0 coefficient there (see the next test)
    u, c = np.array(entries).T
    keep = ~((c == 0) & (np.signbit(c) | ((u == 0) & np.signbit(u))))
    u, c = u[keep], c[keep]
    assume(u.size)
    # an overflowing quotient and a zero divisor are clipped to the box;
    # the warnings are the caller's
    with np.errstate(divide="ignore", over="ignore"):
        ours = _box_quadratic_argmin(u, -2.0 * c, _sweep_signs(u), np.empty_like(u))
        ref = _reference_box_argmin(u, c)
    np.testing.assert_array_equal(ours.view(np.uint64), ref.view(np.uint64))


# A sweep's curvature is a sum of products of nonnegative factors: 0,
# never -0.0, or a normal float; its product with the curvature scale is 0
# or normal too, where the factor -2 is exact.
sweep_curvature = st.one_of(
    st.sampled_from([0.0, TINY, 1.0, 1e300]),
    st.floats(min_value=TINY, max_value=1e300),
)


@PROPERTY
@given(
    st.lists(st.tuples(argmin_lin, sweep_curvature), min_size=1, max_size=32),
    st.sampled_from([1.0, 2.0 / 3.0, 0.25, 1e-3, 7.5]),
)
def test_sweep_box_argmin_is_bitwise_the_reference(entries, scale):
    u, raw = np.array(entries).T
    # a -0.0 coefficient at a zero curvature gives the other zero (see the
    # docstring); either minimizes 0 * t
    keep = ((raw == 0) | (raw * scale >= TINY)) & ~((u == 0) & np.signbit(u) & (raw == 0))
    u, raw = u[keep], raw[keep]
    assume(u.size)
    out = np.full(u.shape, np.nan)
    # the sweep ignores the division by a zero curvature and an overflowing
    # quotient, nothing else; any other floating-point warning is an error
    with np.errstate(divide="ignore", over="ignore"):
        ours = _box_quadratic_argmin(u, raw * (-2.0 * scale), _sweep_signs(u), out)
        ref = _reference_box_argmin(u, raw * scale)
    assert ours is out
    np.testing.assert_array_equal(ours.view(np.uint64), ref.view(np.uint64))


@PROPERTY
@given(sizes)
def test_residual_is_dense_operator_minus_targets(size):
    n, m, seed = size
    rng = np.random.default_rng(seed)
    x = random_primal(rng, n, m)
    measures = rng.dirichlet(np.ones(n), m)
    targets = np.concatenate([np.zeros((m, n)), measures], axis=1)
    dense = (dense_big_operator(n, m) @ primal_vector(x)).reshape(m, 2 * n) - targets
    residual = _residual(_marginals_stack(x.plans, n), x.bary, measures)
    np.testing.assert_allclose(residual, dense, rtol=0, atol=1e-14)


def _dense_pair(rng, n, m):
    """A random primal/dual pair, its problem, the dense operator B and the targets."""
    prob = random_problem(int(rng.integers(2**32)), n, m)
    x, y = random_primal(rng, n, m), random_dual(rng, n, m)
    targets = np.concatenate([np.zeros((m, n)), prob.measures], axis=1).ravel()
    return prob, x, y, dense_big_operator(n, m), targets


@PROPERTY
@given(sizes)
def test_gradient_blocks_against_dense_operator(size):
    # with B the dense constraint matrix, the primal gradient is C / m plus
    # (2 d_inf / m) B^T y and the dual block is -(2 d_inf / m) (B x - targets)
    n, m, seed = size
    prob, x, y, B, targets = _dense_pair(np.random.default_rng(seed), n, m)
    scale = 2.0 * prob.cost.d_inf / m
    residual = _residual(_marginals_stack(x.plans, n), x.bary, prob.measures)
    potentials, g_bary, g_dual = _gradient(y.duals, residual, prob.cost.d_inf)
    adjoint = scale * (B.T @ y.duals.ravel())
    np.testing.assert_allclose(_adjoint_stack(potentials, n).ravel(), adjoint[: m * n * n],
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(g_bary, adjoint[m * n * n :], rtol=0, atol=1e-14)
    np.testing.assert_allclose(g_dual.ravel(), -scale * (B @ primal_vector(x) - targets),
                               rtol=0, atol=1e-14)


@PROPERTY
@given(sizes)
def test_gradient_operator_against_dense_operator(size):
    n, m, seed = size
    prob, x, y, B, targets = _dense_pair(np.random.default_rng(seed), n, m)
    scale = 2.0 * prob.cost.d_inf / m
    residual = _residual(_marginals_stack(x.plans, n), x.bary, prob.measures)
    potentials, g_bary, g_dual = _gradient(y.duals, residual, prob.cost.d_inf)
    g_plans = prob.cost.d / m + _adjoint_stack(potentials, n)
    g_primal = np.concatenate([g_plans.ravel(), g_bary])
    linear = np.concatenate([np.tile(prob.cost.d, m), np.zeros(n)]) / m
    np.testing.assert_allclose(g_primal, linear + scale * (B.T @ y.duals.ravel()),
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(g_dual.ravel(), -scale * (B @ primal_vector(x) - targets),
                               rtol=0, atol=1e-14)


@PROPERTY
@given(sizes)
def test_marginals_and_adjoint_are_adjoint(size):
    # <M(plans), y> = <plans, M^T y> for any real plans and duals
    n, m, seed = size
    rng = np.random.default_rng(seed)
    plans, duals = rng.normal(0.0, 1.0, (m, n * n)), rng.normal(0.0, 1.0, (m, 2 * n))
    lhs = float((_marginals_stack(plans, n) * duals).sum())
    rhs = float((plans * _adjoint_stack(duals, n)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@PROPERTY
@given(sizes, st.floats(0.0, 1.0))
def test_gap_is_nonnegative(size, concentration):
    n, m, seed = size
    rng = np.random.default_rng(seed)
    prob = random_problem(seed, n, m)
    # small Dirichlet concentrations put the primal point near the vertices
    x = random_primal(rng, n, m, alpha=0.05 + concentration)
    y = random_dual(rng, n, m)
    assert sb.duality_gap(x, y, prob) >= -1e-12


@PROPERTY
@given(sizes, st.floats(1e-3, 1e3))
def test_gap_scales_with_cost(size, lam):
    n, m, seed = size
    rng = np.random.default_rng(seed)
    prob = random_problem(seed, n, m)
    x, y = random_primal(rng, n, m), random_dual(rng, n, m)
    scaled = sb.BarycenterProblem(measures=prob.measures, cost=sb.CostData(C=lam * prob.cost.C))
    gap = sb.duality_gap(x, y, prob)
    assert sb.duality_gap(x, y, scaled) == pytest.approx(lam * gap, rel=1e-12, abs=1e-13 * lam)


@PROPERTY
@given(sizes)
def test_gap_is_invariant_to_measure_order(size):
    n, m, seed = size
    rng = np.random.default_rng(seed)
    prob = random_problem(seed, n, m)
    x, y = random_primal(rng, n, m), random_dual(rng, n, m)
    order = rng.permutation(m)
    permuted = sb.BarycenterProblem(measures=prob.measures[order], cost=prob.cost)
    x_permuted = sb.PrimalPoint(plans=x.plans[order], bary=x.bary)
    gap = sb.duality_gap(x_permuted, sb.DualPoint(duals=y.duals[order]), permuted)
    assert gap == pytest.approx(sb.duality_gap(x, y, prob), rel=1e-12, abs=1e-14)


@PROPERTY
@given(sizes, st.floats(0.0, 1.0))
def test_iterates_csv_replays_exactly(size, concentration):
    n, m, seed = size
    rng = np.random.default_rng(seed)
    prob = random_problem(seed, n, m)
    x = random_primal(rng, n, m, alpha=0.05 + concentration)
    y = random_dual(rng, n, m)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "iterates.csv"
        sb.write_iterates_csv(prob, x, y, path)
        prob2, x2, y2 = sb.read_iterates_csv(path)
    for before, after in [
        (prob.cost.C, prob2.cost.C), (prob.measures, prob2.measures), (x.plans, x2.plans),
        (x.bary, x2.bary), (y.duals, y2.duals),
    ]:
        assert np.array_equal(before, after)
    assert sb.duality_gap(x2, y2, prob2) == sb.duality_gap(x, y, prob)


@PROPERTY
@given(sizes, st.floats(0.0, 0.9))
def test_xlogy_matches_the_reference(size, zero_share):
    n, m, seed = size
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(n * n), m)
    w[rng.random(w.shape) < zero_share] = 0.0
    v = np.exp(rng.uniform(-700.0, 5.0, w.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours, log_ours, self_ours = _xlogy(w, v), _xlogy(np.ones_like(v), v), _xlogy(w, w)
    ref, log_ref = xlogy(w, v), xlogy(1.0, v)
    # np.log is within one ulp of the C library's log ...
    log_ulp = np.spacing(np.maximum(np.abs(log_ours), np.abs(log_ref)))
    assert np.all(np.abs(log_ours - log_ref) <= log_ulp)
    # ... so w log v differs by w times that ulp plus the rounding of both products
    bound = w * np.abs(log_ours - log_ref) + np.spacing(np.maximum(np.abs(ours), np.abs(ref)))
    assert np.all(np.abs(ours - ref) <= bound)
    assert np.all(ours[w == 0] == 0.0) and np.all(self_ours[w == 0] == 0.0)
    np.testing.assert_array_equal(self_ours, xlogy(w, w))
