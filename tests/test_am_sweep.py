"""The kernel-form AM sweep and factored dual extrapolation against references.

`_dense_am_prox` recomputes every plan entry's exponent on every sweep, as
the sweep did before it was factored through a per-call kernel.  It shares
no code with `am_prox`: softmax, marginals and the clipped 1-D quadratic
are written out here.  `_kernel_sweeps` is `am_prox`'s own arithmetic with
no stop rule, the reference for the early stop on a period-1 or period-2
repeat of the duals.  `_dense_de` is dual extrapolation on dense m n^2
gradient sums, as it ran before its state was factored.
"""

import numpy as np
import pytest

import saddlebary as sb
import saddlebary.area_convex as ac
from saddlebary.area_convex import (
    AMProblem,
    FactoredAMProblem,
    ScaledPlans,
    _box_quadratic_argmin,
    am_prox,
)
from saddlebary.core import _grad_blocks
from conftest import random_problem

TOL = 1e-12
LONG = 400


def _dense_am_prox(amp, num_iters, d_inf, m, n):
    """Dense AM sweeps; returns (plans, bary, duals, sweeps run)."""
    v_plans = amp.v_plans.reshape(m, n, n)
    y = y_prev = np.zeros((m, 2 * n))
    for sweep in range(1, num_iters + 1):
        ysq = y**2
        logw = -(m / (20.0 * d_inf)) * v_plans - 0.1 * (ysq[:, :n, None] + ysq[:, None, n:])
        w = np.exp(logw - logw.max(axis=(1, 2), keepdims=True))
        plans = w / w.sum(axis=(1, 2), keepdims=True)
        logb = -(amp.v_bary / (10.0 * d_inf) + ysq[:, :n].sum(axis=0) / (5.0 * m))
        wb = np.exp(logb - logb.max())
        bary = wb / wb.sum()
        curv = (2.0 * d_inf / m) * np.concatenate(
            [plans.sum(axis=2) + bary, plans.sum(axis=1)], axis=1
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(curv > 0, -amp.u / (2.0 * curv), -np.sign(amp.u))
        y_next = np.clip(inner, -1.0, 1.0)
        # stop on a bit-identical fixed point, or on a 2-cycle whose phase the
        # budget ends on
        stop = y_next.tobytes() == y.tobytes() or (
            (num_iters - sweep) % 2 == 0 and y_next.tobytes() == y_prev.tobytes()
        )
        y_prev, y = y, y_next
        if stop:
            break
    return plans.reshape(m, n * n), bary, y, sweep


def _kernel_sweeps(amp, cost, m, n):
    """`am_prox`'s sweep with no stop: yields (plans, bary, duals) after each sweep."""
    d_inf = cost.d_inf
    K, log_factors = ac._plan_kernel(amp, cost, m, n)
    y = np.zeros((m, 2 * n))
    while True:
        ysq = y * y
        e = np.exp(log_factors - 0.1 * ysq)
        a, b = e[:, :n], e[:, n:]
        if K.ndim == 2:
            rows = a * (b @ K.T)
            cols = b * (a @ K)
        else:
            rows = a * (K @ b[:, :, None])[:, :, 0]
            cols = b * (a[:, None, :] @ K)[:, 0, :]
        Z = rows.sum(axis=1, keepdims=True)
        exponent_b = amp.v_bary / (10.0 * d_inf) + ysq[:, :n].sum(axis=0) / (5.0 * m)
        w = np.exp(exponent_b.min() - exponent_b)
        bary = w / w.sum()
        curvature = np.concatenate([rows / Z + bary, cols / Z], axis=1)
        y = _box_quadratic_argmin(amp.u, (2.0 * d_inf / m) * curvature)
        plans = K * (a[:, :, None] * (b / Z)[:, None, :])
        yield plans.reshape(m, n * n), bary, y


def _no_stop_am_prox(amp, num_iters, cost, m, n):
    """(plans, bary, duals) after exactly `num_iters` sweeps."""
    for _, (plans, bary, y) in zip(range(num_iters), _kernel_sweeps(amp, cost, m, n)):
        pass
    return plans, bary, y


def _first_repeat(amp, cap, cost, m, n):
    """(t, period): the first 0-based sweep whose duals equal those 1 or 2 sweeps back."""
    history = [np.zeros((m, 2 * n))]
    for t, (_, _, y) in zip(range(cap), _kernel_sweeps(amp, cost, m, n)):
        for period in (1, 2):
            if len(history) >= period and y.tobytes() == history[-period].tobytes():
                return t, period
        history.append(y)
    return None


@pytest.fixture
def sweep_counter(monkeypatch):
    """Counts AM sweeps through the one `_box_quadratic_argmin` call per sweep."""
    calls = [0]
    inner = ac._box_quadratic_argmin

    def counted(lin_coef, curvature):
        calls[0] += 1
        return inner(lin_coef, curvature)

    monkeypatch.setattr(ac, "_box_quadratic_argmin", counted)

    def run(amp, num_iters, cost, m, n):
        calls[0] = 0
        x, y = am_prox(amp, num_iters, cost, m, n)
        return x, y, calls[0]

    return run


def _problems(seed, n, m, d_inf):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        yield AMProblem(
            v_plans=rng.normal(0.0, 5.0, (m, n * n)),
            v_bary=rng.normal(0.0, 5.0, n),
            u=rng.normal(0.0, 3.0, (m, 2 * n)),
        )
    # plan exponents spanning ~600 after the m / (20 d_inf) scaling
    yield AMProblem(
        v_plans=rng.uniform(0.0, 600.0 * 20.0 * d_inf / m, (m, n * n)),
        v_bary=rng.normal(0.0, 5.0, n),
        u=rng.normal(0.0, 0.5, (m, 2 * n)),
    )


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("n", [2, 5, 16])
def test_kernel_sweep_matches_dense_reference(sweep_counter, n, m):
    cost = random_problem(900 + n, n, m).cost
    for amp in _problems(10 * n + m, n, m, cost.d_inf):
        for budget in (3, LONG):
            x, y, sweeps = sweep_counter(amp, budget, cost, m, n)
            plans, bary, duals, ref_sweeps = _dense_am_prox(amp, budget, cost.d_inf, m, n)
            # equal sweep counts, or both stopped at the same fixed point
            assert sweeps == ref_sweeps or max(sweeps, ref_sweeps) < budget
            np.testing.assert_allclose(x.plans, plans, rtol=0, atol=TOL)
            np.testing.assert_allclose(x.bary, bary, rtol=0, atol=TOL)
            np.testing.assert_allclose(y.duals, duals, rtol=0, atol=TOL)


def _assert_same(out, ref):
    x, y = out[:2]
    assert np.array_equal(x.dense() if isinstance(x, ScaledPlans) else x.plans, ref[0])
    assert np.array_equal(x.bary, ref[1])
    assert np.array_equal(y.duals, ref[2])


@pytest.mark.parametrize("n, m", [(3, 2), (8, 3)])
def test_stationary_sweep_stops_bitwise(sweep_counter, n, m):
    # once the duals repeat with period 1 or 2, every budget past the repeat
    # stops within one sweep of it and returns exactly what a loop without
    # an early stop returns for that budget
    cost = random_problem(910 + n, n, m).cost
    for amp in list(_problems(20 * n + m, n, m, cost.d_inf))[:3]:
        t, period = _first_repeat(amp, LONG, cost, m, n)
        assert 0 < t < LONG - 2
        stops = set()
        for budget in (t + 1, t + 2, t + 3, t + 8, LONG - 1, LONG):
            out = sweep_counter(amp, budget, cost, m, n)
            assert out[2] in (t + 1, t + 2)
            stops.add(out[2])
            _assert_same(out, _no_stop_am_prox(amp, budget, cost, m, n))
        assert stops == ({t + 1} if period == 1 else {t + 1, t + 2})


@pytest.fixture(scope="module")
def recorded_prox_calls():
    """The first 400 prox calls of de on criterion-2 instance 1 (n=4, m=5)."""
    calls = []
    inner = ac.am_prox

    def recording(amp, num_iters, cost, m, n):
        # the solver hands over its running sums, which it updates in place
        assert isinstance(amp, FactoredAMProblem)
        calls.append(
            FactoredAMProblem(amp.alpha, amp.potentials.copy(), amp.v_bary.copy(), amp.u.copy())
        )
        return inner(amp, num_iters, cost, m, n)

    prob = random_problem(1, 4, 5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ac, "am_prox", recording)
        sb.run_dual_extrapolation(prob, 0.25, max_outer=200, timer=lambda: 0.0)
    return prob, sb.de_config(prob, 0.25).inner_iters, calls


def test_two_cycle_stops_bitwise_below_cap(sweep_counter, recorded_prox_calls):
    prob, cap, calls = recorded_prox_calls
    n, m, cost = prob.n, prob.m, prob.cost
    assert len(calls) == 400
    cycling = []
    for amp in calls:
        repeat = _first_repeat(amp, cap, cost, m, n)
        if repeat is not None and repeat[1] == 2:
            cycling.append((amp, repeat[0]))
    # without the period-2 stop every one of these calls ran the whole cap
    assert len(cycling) >= 10
    for amp, t in cycling:
        for budget in (t + 2, t + 3, cap, cap + 1):
            out = sweep_counter(amp, budget, cost, m, n)
            assert out[2] in (t + 1, t + 2) and out[2] < cap
            _assert_same(out, _no_stop_am_prox(amp, budget, cost, m, n))


def _factored_problem(rng, cost, m, n, span):
    """A factored problem whose kernel and factor exponents together span `span`."""
    c = m / (20.0 * cost.d_inf)
    kernel_span = cost.d.max() - cost.d.min()
    alpha = 0.5 * span / (c * kernel_span)
    potentials = rng.uniform(0.0, 1.0, (m, 2 * n))
    # each half of the first measure spans a quarter of `span`; the other
    # measures span less, so the widest measure sets the total
    halves = potentials.reshape(m, 2, n)
    halves -= halves.min(axis=2, keepdims=True)
    halves /= halves.max(axis=2, keepdims=True)
    halves *= np.linspace(1.0, 0.3, m)[:, None, None]
    potentials = (0.25 * span / c) * potentials
    return FactoredAMProblem(
        alpha=alpha,
        potentials=potentials,
        v_bary=rng.normal(0.0, 5.0, n),
        u=rng.normal(0.0, 0.5, (m, 2 * n)),
    )


@pytest.mark.parametrize("span", [50.0, 650.0, 750.0, 1100.0])
@pytest.mark.parametrize("n, m", [(5, 3), (16, 2)])
def test_factored_prox_matches_dense_reference(sweep_counter, n, m, span):
    # below the threshold the measures share one (n, n) kernel; above it the
    # prox falls back to a kernel block per measure, the combined min-shift
    cost = random_problem(920 + n, n, m).cost
    rng = np.random.default_rng(int(span) + n)
    for _ in range(2):
        amp = _factored_problem(rng, cost, m, n, span)
        dense = amp.dense(cost)
        for budget in (3, LONG):
            x, y, sweeps = sweep_counter(amp, budget, cost, m, n)
            assert isinstance(x, ScaledPlans)
            assert x.kernel.shape == ((n, n) if span <= ac.FACTOR_SPAN_MAX else (m, n, n))
            plans, bary, duals, ref_sweeps = _dense_am_prox(dense, budget, cost.d_inf, m, n)
            assert sweeps == ref_sweeps or max(sweeps, ref_sweeps) < budget
            np.testing.assert_allclose(x.dense(), plans, rtol=0, atol=TOL)
            np.testing.assert_allclose(x.marginals, sb.big_operator_apply(
                sb.PrimalPoint(plans=plans, bary=np.zeros(n))).reshape(m, 2 * n), rtol=0, atol=TOL)
            np.testing.assert_allclose(x.bary, bary, rtol=0, atol=TOL)
            np.testing.assert_allclose(y.duals, duals, rtol=0, atol=TOL)


def _dense_de(prob, eps, steps):
    """Dual extrapolation on dense gradient sums: the averaged pair after `steps`."""
    cfg = sb.de_config(prob, eps)
    m, n, cost = prob.m, prob.n, prob.cost
    s_plans, s_bary, s_duals = np.zeros((m, n * n)), np.zeros(n), np.zeros((m, 2 * n))
    sums = [np.zeros((m, n * n)), np.zeros(n), np.zeros((m, 2 * n))]
    for _ in range(steps):
        zx, zy = am_prox(AMProblem(s_plans, s_bary, s_duals), cfg.inner_iters, cost, m, n)
        g_plans, g_bary, g_dual = _grad_blocks((zx.plans, zx.bary, zy.duals), prob)
        advanced = AMProblem(s_plans + g_plans / 3.0, s_bary + g_bary / 3.0, s_duals + g_dual / 3.0)
        wx, wy = am_prox(advanced, cfg.inner_iters, cost, m, n)
        g_plans, g_bary, g_dual = _grad_blocks((wx.plans, wx.bary, wy.duals), prob)
        s_plans = s_plans + g_plans / 6.0
        s_bary = s_bary + g_bary / 6.0
        s_duals = s_duals + g_dual / 6.0
        for total, value in zip(sums, (wx.plans, wx.bary, wy.duals)):
            total += value
    return [total / steps for total in sums]


def _gaussian_suite_problem():
    measures, grid = sb.gaussian_suite(sb.GaussianSuiteSpec(seed=0))
    return sb.BarycenterProblem.create(
        measures, sb.grid_cost(sb.Grid1D(points=grid, power=2.0), normalize=True)
    )


@pytest.mark.parametrize(
    "make, steps",
    [
        (_gaussian_suite_problem, 300),
        (lambda: random_problem(1, 4, 5), 200),
        (lambda: random_problem(2, 8, 2), 200),
    ],
    ids=["gauss-suite-300", "criterion-2-instance-1-200", "criterion-2-instance-2-200"],
)
def test_factored_de_matches_dense_de(make, steps):
    prob = make()
    wx, wy, report = sb.run_dual_extrapolation(
        prob, 0.25, max_outer=steps, log_stride=steps, timer=lambda: 0.0
    )
    assert report.iterations_run == steps
    plans, bary, duals = _dense_de(prob, 0.25, steps)
    np.testing.assert_allclose(wx.plans, plans, rtol=0, atol=TOL)
    np.testing.assert_allclose(wx.bary, bary, rtol=0, atol=TOL)
    np.testing.assert_allclose(wy.duals, duals, rtol=0, atol=TOL)
    dense_gap = sb.duality_gap(
        sb.PrimalPoint(plans=plans, bary=bary), sb.DualPoint(duals=duals), prob
    )
    assert report.final_gap == pytest.approx(dense_gap, rel=TOL, abs=0)
