"""The kernel-form AM sweep against an independent dense reference.

`_dense_am_prox` recomputes every plan entry's exponent on every sweep, as
the sweep did before it was factored through a per-call kernel.  It shares
no code with `am_prox`: softmax, marginals and the clipped 1-D quadratic
are written out here.
"""

import numpy as np
import pytest

import saddlebary.area_convex as ac
from saddlebary.area_convex import AMProblem, am_prox
from conftest import random_problem

TOL = 1e-12
LONG = 400


def _dense_am_prox(amp, num_iters, d_inf, m, n):
    """Dense AM sweeps; returns (plans, bary, duals, sweeps run)."""
    v_plans = amp.v_plans.reshape(m, n, n)
    y = np.zeros((m, 2 * n))
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
        stationary = np.array_equal(y_next, y)
        y = y_next
        if stationary:
            break
    return plans.reshape(m, n * n), bary, y, sweep


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


@pytest.mark.parametrize("n, m", [(3, 2), (8, 3)])
def test_stationary_sweep_stops_bitwise(sweep_counter, n, m):
    # once a sweep leaves the duals bit-identical, every larger budget
    # returns exactly what the full budget returns
    cost = random_problem(910 + n, n, m).cost
    for amp in list(_problems(20 * n + m, n, m, cost.d_inf))[:3]:
        x_full, y_full, stop = sweep_counter(amp, LONG, cost, m, n)
        assert 1 < stop < LONG
        _, y_before, _ = sweep_counter(amp, stop - 1, cost, m, n)
        assert np.array_equal(y_before.duals, y_full.duals)
        for t in (stop, stop + 1, stop + 7, LONG - 1):
            x, y, sweeps = sweep_counter(amp, t, cost, m, n)
            assert sweeps == stop
            assert np.array_equal(x.plans, x_full.plans)
            assert np.array_equal(x.bary, x_full.bary)
            assert np.array_equal(y.duals, y_full.duals)
