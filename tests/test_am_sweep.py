"""The kernel-form AM sweep and factored dual extrapolation against references.

`_dense_am_prox` recomputes every plan entry's exponent on every sweep from
dense (m, n^2) plan terms, as the sweep did before it was factored through
a per-call kernel.  It shares no code with `am_prox`: softmax, marginals
and the clipped 1-D quadratic are written out here.  `_dense` spells a
`FactoredAMProblem` as such a `DenseAMProblem`.  `_kernel_sweeps` is
`am_prox`'s own arithmetic with no stop rule, the reference for the early
stop on a repeat of the duals with period 1 to 4.  `_pair_layout_am_prox`
is the sweep as it ran on (m, 2n) arrays with the dual argmin written out,
before its buffers were held halves-major; `am_prox` must return its bits
exactly.  It also takes a `DenseAMProblem`, whose exponents form a stack of
kernel blocks: `_dense_de` is dual extrapolation on dense m n^2 gradient
sums, written out by reshape-sums, as it ran before its state was
factored, with that sweep as its prox.  Prox plans returned as
`ScaledPlans` are formed densely by `conftest.dense_plans`.
"""

from collections import deque, namedtuple
from dataclasses import fields

import numpy as np
import pytest

import saddlebary as sb
import saddlebary.area_convex as ac
from saddlebary.area_convex import (
    FactoredAMProblem,
    ScaledPlans,
    _box_quadratic_argmin,
    _sweep_signs,
    am_prox,
)
from saddlebary.cli import main
from saddlebary.core import FACTOR_SPAN_MAX, _form_plans, _plan_kernel, _scaled_marginals
from conftest import dense_plans, factored_draw, random_problem
from paper_checks import plan_linear_terms

TOL = 1e-12
LONG = 400

# The linear terms of a prox subproblem with dense (m, n^2) plan blocks
DenseAMProblem = namedtuple("DenseAMProblem", "v_plans v_bary u")


def _dense(amp, cost):
    """A `FactoredAMProblem` with its plan blocks formed densely."""
    return DenseAMProblem(plan_linear_terms(amp, cost), amp.v_bary, amp.u)


def _one_plan_marginals(K, a, b):
    """`_scaled_marginals` of one plan per measure, as a sweep takes them.

    A stack of kernel blocks takes each measure's (m, n) factors as row
    vectors, (m, 1, n).
    """
    if K.ndim == 2:
        return _scaled_marginals(K, a, b)
    return _scaled_marginals(K, a[:, None], b[:, None])[:, 0]


def _dense_am_prox(amp, num_iters, d_inf, m, n):
    """Dense AM sweeps; returns (plans, bary, duals, sweeps run)."""
    v_plans = amp.v_plans.reshape(m, n, n)
    y = np.zeros((m, 2 * n))
    history = [y.tobytes()]
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
        # a quotient that overflows is clipped to the box, as in `am_prox`
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inner = np.where(curv > 0, -amp.u / (2.0 * curv), -np.sign(amp.u))
        y = np.clip(inner, -1.0, 1.0)
        # stop on a bit-identical cycle of period p <= 4 whose phase the
        # budget ends on
        history.append(y.tobytes())
        if any(
            len(history) > p and history[-1] == history[-1 - p] and (num_iters - sweep) % p == 0
            for p in range(1, 5)
        ):
            break
    return plans.reshape(m, n * n), bary, y, sweep


def _kernel_sweeps(amp, cost, m, n):
    """`am_prox`'s sweep with no stop: yields (plans, bary, duals) after each sweep."""
    d_inf = cost.d_inf
    c = m / (20.0 * d_inf)
    K, log_factors = _plan_kernel((c * amp.alpha) * cost.C, c * amp.potentials)
    y = np.zeros((m, 2 * n))
    signs = _sweep_signs(amp.u)
    while True:
        ysq = y * y
        e = np.exp(log_factors - 0.1 * ysq)
        a, b = e[:, :n], e[:, n:]
        marginals = _one_plan_marginals(K, a, b)
        Z = marginals[:, :n].sum(axis=1, keepdims=True)
        exponent_b = amp.v_bary / (10.0 * d_inf) + ysq[:, :n].sum(axis=0) / (5.0 * m)
        w = np.exp(exponent_b.min() - exponent_b)
        bary = w / w.sum()
        curvature = marginals / Z
        curvature[:, :n] += bary
        neg_curvature = (-2.0 * (2.0 * d_inf / m)) * curvature
        with np.errstate(divide="ignore"):
            y = _box_quadratic_argmin(amp.u, neg_curvature, signs, np.empty((m, 2 * n)))
        yield _form_plans(K, a, b / Z, np.empty((m, n * n))), bary, y


def _no_stop_am_prox(amp, num_iters, cost, m, n):
    """(plans, bary, duals) after exactly `num_iters` sweeps."""
    for _, (plans, bary, y) in zip(range(num_iters), _kernel_sweeps(amp, cost, m, n)):
        pass
    return plans, bary, y


def _first_repeat(amp, cap, cost, m, n):
    """(t, period): the first 0-based sweep whose duals equal those 1 to 4 sweeps back."""
    history = [np.zeros((m, 2 * n)).tobytes()]
    for t, (_, _, y) in zip(range(cap), _kernel_sweeps(amp, cost, m, n)):
        for period in (1, 2, 3, 4):
            if len(history) >= period and y.tobytes() == history[-period]:
                return t, period
        history.append(y.tobytes())
    return None


def _pair_layout_am_prox(amp, num_iters, cost, m, n):
    """`am_prox` as it ran on (m, 2n) arrays: (ScaledPlans, duals, sweeps run).

    A `DenseAMProblem` takes its exponents as an (m, n, n) stack with zero
    potentials, as `am_prox` took its dense problems.
    """
    d_inf = cost.d_inf
    bary_lin = amp.v_bary / (10.0 * d_inf)
    scale = 2.0 * d_inf / m
    curvature = np.empty((m, 2 * n))
    y = np.zeros((m, 2 * n))
    window = deque([y.tobytes()], maxlen=4)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = m / (20.0 * d_inf)
        if isinstance(amp, FactoredAMProblem):
            costs, potentials = (c * amp.alpha) * cost.C, c * amp.potentials
        else:
            costs, potentials = (c * amp.v_plans).reshape(m, n, n), np.zeros((m, 2 * n))
        K, log_factors = _plan_kernel(costs, potentials)
        for t in range(num_iters):
            ysq = y * y
            e = np.exp(log_factors - 0.1 * ysq)
            a, b = e[:, :n], e[:, n:]
            marginals = _one_plan_marginals(K, a, b)
            Z = marginals[:, :n].sum(axis=1, keepdims=True)
            exponent_b = bary_lin + ysq[:, :n].sum(axis=0) / (5.0 * m)
            w = np.exp(exponent_b.min() - exponent_b)
            bary = w / w.sum()
            np.divide(marginals, Z, out=curvature)
            curvature[:, :n] += bary
            curvature *= scale
            # the dual argmin as it was: -sign(u), u / (-2 c) where c > 0, clipped
            y = np.negative(np.sign(amp.u))
            np.divide(amp.u, -2.0 * curvature, out=y, where=curvature > 0)
            np.minimum(y, 1.0, out=y)
            np.maximum(y, -1.0, out=y)
            key = y.tobytes()
            if key in window and any(
                key == seen and (num_iters - 1 - t) % p == 0 for p, seen in enumerate(window, 1)
            ):
                break
            window.appendleft(key)
    marginals /= Z
    return ScaledPlans(K, a, b / Z, marginals, bary), y, t + 1


def _pair_layout_prox(amp, num_iters, cost):
    """`_pair_layout_am_prox` as a drop-in `am_prox`, for dual extrapolation."""
    m, n = amp.u.shape[0], amp.u.shape[1] // 2
    plans, y, _ = _pair_layout_am_prox(amp, num_iters, cost, m, n)
    return plans, sb.DualPoint(duals=y)


def _same_bits(p, q):
    return p.shape == q.shape and p.dtype == q.dtype and p.tobytes() == q.tobytes()


def _assert_pair_layout_bits(out, amp, num_iters, cost, m, n):
    """`am_prox`'s output `out` (x, y, sweeps) is bitwise the pair-layout sweep's."""
    x, y, sweeps = out
    plans, duals, ref_sweeps = _pair_layout_am_prox(amp, num_iters, cost, m, n)
    assert sweeps == ref_sweeps
    assert _same_bits(y.duals, duals)
    for field in fields(ScaledPlans):
        assert _same_bits(getattr(x, field.name), getattr(plans, field.name)), field.name


@pytest.fixture
def sweep_counter(monkeypatch):
    """Counts AM sweeps through the one `_box_quadratic_argmin` call per sweep."""
    calls = [0]
    inner = ac._box_quadratic_argmin

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(ac, "_box_quadratic_argmin", counted)

    def run(amp, num_iters, cost):
        calls[0] = 0
        x, y = am_prox(amp, num_iters, cost)
        return x, y, calls[0]

    return run


def _problems(seed, cost, n, m):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        yield factored_draw(rng, n, m, 5.0, 3.0)
    # plan exponents spanning ~600 after the m / (20 d_inf) scaling
    yield _factored_problem(rng, cost, m, n, 600.0)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("n", [2, 5, 16])
def test_kernel_sweep_matches_dense_reference(sweep_counter, n, m):
    cost = random_problem(900 + n, n, m).cost
    for amp in _problems(10 * n + m, cost, n, m):
        for budget in (3, LONG):
            x, y, sweeps = sweep_counter(amp, budget, cost)
            dense = _dense(amp, cost)
            plans, bary, duals, ref_sweeps = _dense_am_prox(dense, budget, cost.d_inf, m, n)
            # equal sweep counts, or both stopped at the same fixed point
            assert sweeps == ref_sweeps or max(sweeps, ref_sweeps) < budget
            np.testing.assert_allclose(dense_plans(x), plans, rtol=0, atol=TOL)
            np.testing.assert_allclose(x.bary, bary, rtol=0, atol=TOL)
            np.testing.assert_allclose(y.duals, duals, rtol=0, atol=TOL)


def _assert_same(out, ref):
    x, y = out[:2]
    assert np.array_equal(dense_plans(x), ref[0])
    assert np.array_equal(x.bary, ref[1])
    assert np.array_equal(y.duals, ref[2])


def _assert_stops_bitwise(sweep_counter, amp, t, period, budgets, cost, m, n):
    # a budget past the repeat stops at the first sweep of the cycle's phase
    # it ends on, and returns exactly what a loop without an early stop
    # returns for that budget
    for budget in budgets:
        out = sweep_counter(amp, budget, cost)
        assert out[2] == t + 1 + (budget - 1 - t) % period
        _assert_same(out, _no_stop_am_prox(amp, budget, cost, m, n))
        _assert_pair_layout_bits(out, amp, budget, cost, m, n)


@pytest.mark.parametrize("n, m", [(3, 2), (8, 3)])
def test_stationary_sweep_stops_bitwise(sweep_counter, n, m):
    cost = random_problem(910 + n, n, m).cost
    for amp in list(_problems(20 * n + m, cost, n, m))[:3]:
        t, period = _first_repeat(amp, LONG, cost, m, n)
        assert 0 < t < LONG - 2
        budgets = (t + 1, t + 2, t + 3, t + 8, LONG - 1, LONG)
        _assert_stops_bitwise(sweep_counter, amp, t, period, budgets, cost, m, n)


def _record_prox_calls(seed, n, m, max_outer):
    """The prox calls of de's first `max_outer` steps on criterion-2 instance `seed`."""
    calls = []
    inner = ac.am_prox

    def recording(amp, num_iters, cost):
        # the solver hands over its linear terms in factored form; copies
        # keep the record whatever the solver does with its arrays later
        assert isinstance(amp, FactoredAMProblem)
        calls.append(
            FactoredAMProblem(amp.alpha, amp.potentials.copy(), amp.v_bary.copy(), amp.u.copy())
        )
        return inner(amp, num_iters, cost)

    prob = random_problem(seed, n, m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ac, "am_prox", recording)
        sb.run_dual_extrapolation(prob, 0.25, max_outer=max_outer, timer=lambda: 0.0)
    assert len(calls) == 2 * max_outer
    return prob, sb.de_config(prob, 0.25).inner_iters, calls


@pytest.mark.parametrize(
    "seed, n, m, max_outer, period, least",
    [(1, 4, 5, 200, 2, 10), (3, 8, 5, 380, 3, 1), (13, 4, 5, 670, 4, 1)],
    ids=["instance-1-period-2", "instance-3-period-3", "instance-13-period-4"],
)
def test_short_cycle_stops_bitwise_below_cap(sweep_counter, seed, n, m, max_outer, period, least):
    # criterion-2 calls whose duals cycle with period 2, 3 or 4; without a
    # stop for their period every one of them ran the whole cap
    prob, cap, calls = _record_prox_calls(seed, n, m, max_outer)
    cycling = []
    for amp in calls:
        repeat = _first_repeat(amp, cap, prob.cost, m, n)
        if repeat is not None and repeat[1] == period:
            cycling.append((amp, repeat[0]))
    assert len(cycling) >= least
    for amp, t in cycling:
        budgets = (t + 2, t + 3, t + 4, cap, cap + 1)
        _assert_stops_bitwise(sweep_counter, amp, t, period, budgets, prob.cost, m, n)
        assert sweep_counter(amp, cap, prob.cost)[2] < cap


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


@pytest.mark.parametrize("span", [50.0, 650.0, 750.0, 1100.0, 20000.0])
@pytest.mark.parametrize("n, m", [(5, 3), (16, 2)])
def test_factored_prox_matches_dense_reference(sweep_counter, n, m, span):
    # below the threshold the measures share one (n, n) kernel; above it the
    # builder gives each measure a kernel block, the combined min-shift,
    # and at a span of 20,000 most of each block lies below the exp floor
    cost = random_problem(920 + n, n, m).cost
    rng = np.random.default_rng(int(span) + n)
    for _ in range(2):
        amp = _factored_problem(rng, cost, m, n, span)
        dense = _dense(amp, cost)
        for budget in (3, LONG):
            x, y, sweeps = sweep_counter(amp, budget, cost)
            assert isinstance(x, ScaledPlans)
            assert x.kernel.shape == ((n, n) if span <= FACTOR_SPAN_MAX else (m, n, n))
            plans, bary, duals, ref_sweeps = _dense_am_prox(dense, budget, cost.d_inf, m, n)
            assert sweeps == ref_sweeps or max(sweeps, ref_sweeps) < budget
            np.testing.assert_allclose(dense_plans(x), plans, rtol=0, atol=TOL)
            P = plans.reshape(m, n, n)
            marginals = np.concatenate([P.sum(axis=2), P.sum(axis=1)], axis=1)
            np.testing.assert_allclose(x.marginals, marginals, rtol=0, atol=TOL)
            np.testing.assert_allclose(x.bary, bary, rtol=0, atol=TOL)
            np.testing.assert_allclose(y.duals, duals, rtol=0, atol=TOL)


def _dense_de(prob, eps, steps):
    """Dual extrapolation on dense gradient sums: the averaged pair after `steps`.

    Its prox is the pair-layout sweep on a `DenseAMProblem`, whose plans
    `dense_plans` forms as `am_prox` formed a dense problem's.
    """
    cfg = sb.de_config(prob, eps)
    m, n, cost = prob.m, prob.n, prob.cost
    scale = 2.0 * cost.d_inf / m

    def prox(amp):
        x, y = _pair_layout_prox(amp, cfg.inner_iters, cost)
        return dense_plans(x), x.bary, y

    def gradient(plans, bary, y):
        # plans: C / m + adj(scale y); barycenter: -scale times the row duals'
        # sum; duals: -scale times the residual [row sums - p, column sums - q_i]
        potentials = scale * y.duals
        g_plans = cost.d / m + (potentials[:, :n, None] + potentials[:, None, n:]).reshape(m, n * n)
        P = plans.reshape(m, n, n)
        residual = np.concatenate([P.sum(axis=2) - bary, P.sum(axis=1) - prob.measures], axis=1)
        return g_plans, -scale * y.duals[:, :n].sum(axis=0), -scale * residual

    s_plans, s_bary, s_duals = np.zeros((m, n * n)), np.zeros(n), np.zeros((m, 2 * n))
    sums = [np.zeros((m, n * n)), np.zeros(n), np.zeros((m, 2 * n))]
    for _ in range(steps):
        g_plans, g_bary, g_dual = gradient(*prox(DenseAMProblem(s_plans, s_bary, s_duals)))
        advanced = DenseAMProblem(
            s_plans + g_plans / 3.0, s_bary + g_bary / 3.0, s_duals + g_dual / 3.0
        )
        w_plans, w_bary, wy = prox(advanced)
        g_plans, g_bary, g_dual = gradient(w_plans, w_bary, wy)
        s_plans = s_plans + g_plans / 6.0
        s_bary = s_bary + g_bary / 6.0
        s_duals = s_duals + g_dual / 6.0
        for total, value in zip(sums, (w_plans, w_bary, wy.duals)):
            total += value
    return [total / steps for total in sums]


def _gaussian_suite_problem():
    measures, grid = sb.gaussian_suite(sb.GaussianSuiteSpec(seed=0))
    cost = sb.grid_cost(sb.Grid1D(points=grid))
    return sb.BarycenterProblem(measures=measures, cost=sb.CostData(C=cost.C / cost.d_inf))


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


@pytest.mark.parametrize("budget", [1, 2, 3, LONG])
@pytest.mark.parametrize("n, m", [(2, 1), (5, 3), (16, 2)])
def test_sweep_is_bitwise_the_pair_layout_sweep(sweep_counter, n, m, budget):
    # shared kernels (spans up to 650), stacked kernel blocks past
    # FACTOR_SPAN_MAX, and the random draws of `_problems`
    cost = random_problem(930 + n, n, m).cost
    rng = np.random.default_rng(n + 10 * m + budget)
    for span in (50.0, 650.0, 750.0, 20000.0):
        amp = _factored_problem(rng, cost, m, n, span)
        out = sweep_counter(amp, budget, cost)
        assert out[0].kernel.shape == ((n, n) if span <= FACTOR_SPAN_MAX else (m, n, n))
        _assert_pair_layout_bits(out, amp, budget, cost, m, n)
    for amp in _problems(40 * n + m, cost, n, m):
        _assert_pair_layout_bits(sweep_counter(amp, budget, cost), amp, budget, cost, m, n)


def _criterion2_inputs(tmp_path, seed, n, m):
    prob = random_problem(seed, n, m)
    hists, cost = tmp_path / f"c2-{seed}.csv", tmp_path / f"c2-{seed}-cost.csv"
    hists.write_text("".join(",".join(map(repr, q.tolist())) + "\n" for q in prob.measures))
    cost.write_text("".join(",".join(map(repr, r.tolist())) + "\n" for r in prob.cost.C))
    return prob, ["--input", str(hists), "--cost", f"csv:{cost}"]


def _cli_outputs(argv, outdir, capsys):
    assert main(["barycenter", "--algo", "de", "--timing", "off", "--out", str(outdir), *argv]) == 0
    printed = capsys.readouterr().out
    return printed, {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize(
    "case", ["criterion-2-instance-1", "criterion-2-instance-2", "gauss-suite-20"]
)
def test_de_runs_are_bitwise_the_pair_layout_sweeps(tmp_path, capsys, case):
    # de's final pair and its CLI files with the halves-major sweep and with
    # the pair-layout sweep in its place; iterates.csv holds the final pair
    # to the last bit
    if case == "gauss-suite-20":
        prob = _gaussian_suite_problem()
        argv = ["--gaussian", "--seed", "0", "--normalize-cost", "--max-iters", "20"]
    else:
        seed, n, m = (1, 4, 5) if case.endswith("1") else (2, 8, 2)
        prob, argv = _criterion2_inputs(tmp_path, seed, n, m)
    argv += ["--eps", "0.25"]
    max_outer = 20 if case == "gauss-suite-20" else None
    runs = []
    for prox in (am_prox, _pair_layout_prox):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ac, "am_prox", prox)
            x, y, report = sb.run_dual_extrapolation(
                prob, 0.25, max_outer=max_outer, timer=lambda: 0.0
            )
            outdir = tmp_path / prox.__name__
            outdir.mkdir()
            runs.append((x, y, report, *_cli_outputs(argv, outdir, capsys)))
    (x, y, report, printed, files), (x0, y0, report0, printed0, files0) = runs
    assert _same_bits(x.plans, x0.plans) and _same_bits(x.bary, x0.bary)
    assert _same_bits(y.duals, y0.duals)
    assert (report.iterations_run, report.final_gap) == (report0.iterations_run, report0.final_gap)
    assert printed == printed0
    assert files == files0 and set(files) == {"report.csv", "barycenter.csv", "iterates.csv"}
