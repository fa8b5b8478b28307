"""Dual extrapolation with an area-convex regularizer.

The regularizer couples plan/barycenter entropies with a quadratic form that
weights squared dual entries by the plan marginals and the barycenter.  It is
not strongly convex, but it is 3-area-convex with respect to the saddle
gradient operator, which is enough for Nesterov-style dual extrapolation to
drive the duality gap at O(1/N) with N proportional to the regularizer's
range instead of the product of domain radii.

Each proximal step minimizes a linear term plus the regularizer.  That
subproblem is solved by alternating minimization: simplex blocks have softmax
closed forms, and each dual coordinate is a clipped one-dimensional quadratic
minimization.  Within one call the plan blocks change between sweeps only by
a diagonal rescaling of a fixed kernel, built once per call.  Every sweep
contracts the suboptimality by a constant factor, so a logarithmic number of
sweeps meets the per-call error budget; a call stops early once its duals
repeat with a period of 1 to 4, returning bitwise what the full budget
would.  The prox centre is the regularizer's minimizer, but its gradient term is
left out of the linear terms: it is constant on each simplex block and zero
on the duals, so it only shifts the objective by a constant.

Dual extrapolation's gradient sum is its next prox linear term, kept as a
`FactoredAMProblem`: alpha * C plus a row and a column potential per
measure, a scalar and an (m, 2n) array.  Each prox call builds one n x n
kernel exp(-c alpha C) shared by all m measures, with the potentials as row
and column factors, by `core._plan_kernel`, which mirror prox uses too, and
a sweep takes the plan marginals as two GEMMs against it.  A sweep runs on
per-call buffers held halves-major, (2, m, n) with the row half of every
measure before the column half, so each of its NumPy calls writes one
contiguous block; what the dual argmin needs of u and the curvature scale
is computed once per call.  The first prox output of a step is used only
through those marginals; the second is formed once, into the buffer of
the running average (`core.RunningAverage`) that adds it.  Should the
kernel and factor exponents together span more than
`core.FACTOR_SPAN_MAX` (just inside the exp underflow floor),
`_plan_kernel` gives each measure its own kernel block with the combined
min-shift and unit factors.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    ConfigError,
    DualPoint,
    NumericalFailure,
    PrimalPoint,
    RunningAverage,
    _check_eps_and_cost,
    _form_plans,
    _gradient,
    _plan_kernel,
    _residual,
    _step_count,
)
from .report import RunReport, run_certified

KAPPA = 3.0

THETA_VARIANTS = ("paper", "exact")


def theta(n, d_inf, variant="exact"):
    """Upper bound on the regularizer's range over the feasible set.

    `exact` accounts for every entropy term and equals (50 ln n + 6) d_inf;
    `paper` is the advertised (40 ln n + 6) d_inf, which omits the
    barycenter-entropy contribution of 10 ln n and can undershoot the true
    range.  The outer iteration count scales linearly with this value, so an
    upper bound is always safe.
    """
    if variant not in THETA_VARIANTS:
        raise ConfigError(f"unknown theta variant {variant!r}")
    factor = 40.0 if variant == "paper" else 50.0
    return (factor * math.log(n) + 6.0) * d_inf


@dataclass(frozen=True)
class AMProblem:
    """Linear terms of one proximal subproblem, stored block-wise.

    The objective is <v, x> + <u, y> + r(x, y) with v split into m plan
    blocks plus the barycenter block.
    """

    v_plans: np.ndarray  # (m, n*n)
    v_bary: np.ndarray  # (n,)
    u: np.ndarray  # (m, 2n)


@dataclass(frozen=True)
class FactoredAMProblem:
    """Linear terms whose plan blocks are alpha * C plus a row and a column potential.

    Entry (j, k) of plan block i is alpha * C[j, k] + potentials[i, j] +
    potentials[i, n + k].  Every plan gradient of the saddle objective,
    C / m plus the adjoint of the scaled duals, has this form, and so has
    every sum of them that dual extrapolation hands to the prox.
    """

    alpha: float
    potentials: np.ndarray  # (m, 2n)
    v_bary: np.ndarray  # (n,)
    u: np.ndarray  # (m, 2n)


@dataclass(frozen=True)
class ScaledPlans:
    """Prox plans diag(row_scale_i) K diag(col_scale_i) with their marginals and barycenter.

    K is one (n, n) kernel shared by every measure or an (m, n, n) stack.
    `col_scale` has the plan normalizer folded in, and `marginals` holds the
    [row sums, column sums] of each plan.
    """

    kernel: np.ndarray
    row_scale: np.ndarray  # (m, n)
    col_scale: np.ndarray  # (m, n)
    marginals: np.ndarray  # (m, 2n)
    bary: np.ndarray  # (n,)


def _box_quadratic_argmin(lin_coef, neg_curvature, signs, out):
    """Entrywise argmin over [-1, 1] of lin*t + curvature*t^2 into `out`, curvature >= 0.

    `neg_curvature` is -2 times the curvature and `signs` is
    `_sweep_signs(lin_coef)`, which an AM call computes once.  The argmin
    starts at -sign(lin), or -lin at a zero lin, is replaced by
    lin / neg_curvature where lin != 0, and is clipped to the box.  A zero
    curvature, -0.0 once scaled, makes the quotient -sign(lin) * inf, which
    clips to -sign(lin), the minimizer of the linear term; the division by
    zero is the caller's to ignore.
    """
    start, mask = signs
    np.copyto(out, start)
    np.divide(lin_coef, neg_curvature, out=out, where=mask)
    np.minimum(out, 1.0, out=out)
    return np.maximum(out, -1.0, out=out)


def _sweep_signs(lin_coef):
    """(start, mask) of the dual argmin for a sweep: -sign(lin), -lin at a zero, and lin != 0.

    -lin is the quotient's value at a zero lin and a positive curvature.
    """
    nonzero = lin_coef != 0
    return np.negative(np.where(nonzero, np.sign(lin_coef), lin_coef)), nonzero


def _halves(pairs):
    """An (m, 2n) array of [row, column] pairs as a contiguous (2, m, n) array."""
    m, n = pairs.shape[0], pairs.shape[1] // 2
    return pairs.reshape(m, 2, n).transpose(1, 0, 2).copy()


def _pairs(halves):
    """Inverse of `_halves`: a new (m, 2n) array."""
    _, m, n = halves.shape
    return halves.transpose(1, 0, 2).reshape(m, 2 * n)


def am_prox(amp, num_iters, cost):
    """Alternating minimization for one proximal subproblem.

    Starting from uniform simplices and zero duals, each sweep updates the
    plan blocks and the barycenter by their softmax closed forms, then solves
    every dual coordinate's clipped 1-D quadratic.  An `AMProblem` returns
    the final primal/dual pair; a `FactoredAMProblem` returns its plans as
    `ScaledPlans`, which the caller forms densely where it needs them.

    Only the separable term 0.1 * (y_j^2 + y_{n+k}^2) of a plan block's
    exponent depends on the duals, so plan i is diag(a_i) K diag(b_i) / Z_i
    with a kernel built once per call by `core._plan_kernel` from c v_plans,
    c = m / (20 d_inf): c alpha C and c times the potentials for a factored
    problem, the (m, n, n) exponents and zero potentials for a general one.
    A shared (n, n) kernel makes a sweep's plan marginals two GEMMs; an
    (m, n, n) stack takes batched mat-vecs.

    A sweep is about twenty NumPy calls on buffers allocated once per call
    and held halves-major, (2, m, n) with [0] the rows and [1] the columns
    of every measure: the duals and their squares, the factors [a; b], the
    kernel products [b K^T; a K], the marginals and the curvature.  Each
    call writes one contiguous block, and one product of the factors with
    the kernel products gives both marginal halves.  Computed once per call
    instead: u in that layout with the dual argmin's start values and mask
    (`_sweep_signs`), K's transpose, and the curvature scale times -2, a
    factor that is exact on the normal floats a curvature takes, so the
    argmin's quotients keep their bits.  The results return in the (m, 2n)
    layout.

    A sweep is a function of the duals alone, so the loop stops early only
    where the rest of the budget cannot change the result: when a sweep's
    duals equal, bit for bit, those of p sweeps back for a period p of at
    most 4 (from a window of the last 4), and the remaining budget ends on
    this phase of the cycle.  The output is then bitwise what the full
    budget returns.
    """
    if num_iters < 1:
        raise ConfigError("need at least one sweep")
    d_inf = cost.d_inf
    if d_inf <= 0:
        raise ConfigError("cost matrix is identically zero")
    if not np.all(np.isfinite(amp.u)):
        raise NumericalFailure("non-finite dual linear term", iteration=0)
    m, n = amp.u.shape[0], amp.u.shape[1] // 2
    bary_lin = amp.v_bary / (10.0 * d_inf)
    neg_scale = -2.0 * (2.0 * d_inf / m)
    u = _halves(amp.u)
    signs = _sweep_signs(u)
    y = np.zeros((2, m, n))
    ysq, e, products, marginals, curvature = np.empty((5, 2, m, n))
    a, b = e
    ysq_rows, marginal_rows, curvature_rows = ysq[0], marginals[0], curvature[0]
    bary_divisor = 5.0 * m
    window = deque([y.tobytes()], maxlen=4)
    # Non-finite values surface in the curvature check; a quotient of the
    # dual argmin that overflows, or divides by a zero curvature, is clipped
    # to the box.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = m / (20.0 * d_inf)
        if isinstance(amp, FactoredAMProblem):
            costs, potentials = (c * amp.alpha) * cost.C, c * amp.potentials
        else:
            costs, potentials = (c * amp.v_plans).reshape(m, n, n), np.zeros((m, 2 * n))
        K, log_factors = _plan_kernel(costs, potentials)
        log_factors = _halves(log_factors)
        KT = np.swapaxes(K, -1, -2)
        # rows a * (b K^T), columns b * (a K); a stack of kernel blocks takes
        # each measure's factors as a row vector
        rows_in, cols_in, rows_out, cols_out = (
            (b, a, products[0], products[1]) if K.ndim == 2
            else (b[:, None], a[:, None], products[0][:, None], products[1][:, None])
        )
        for t in range(num_iters):
            np.multiply(y, y, out=ysq)
            # The kernel builder bounds a product of a kernel entry and its
            # factors away from underflow; the duals' term is at least e^-0.2.
            np.multiply(ysq, 0.1, out=e)
            np.subtract(log_factors, e, out=e)
            np.exp(e, out=e)
            np.matmul(rows_in, KT, out=rows_out)
            np.matmul(cols_in, K, out=cols_out)
            np.multiply(e, products, out=marginals)
            Z = np.add.reduce(marginal_rows, axis=1, keepdims=True)
            exponent_b = bary_lin + np.add.reduce(ysq_rows, axis=0) / bary_divisor
            w = np.exp(np.minimum.reduce(exponent_b) - exponent_b)
            bary = w / np.add.reduce(w)
            np.divide(marginals, Z, out=curvature)
            curvature_rows += bary
            curvature *= neg_scale
            if not math.isfinite(np.add.reduce(curvature, axis=None)):
                raise NumericalFailure("non-finite alternating-minimization sweep", iteration=t)
            _box_quadratic_argmin(u, curvature, signs, out=y)
            # y_{t+1} == y_{t+1-p} repeats with period p from here on, and a
            # budget of N sweeps ends on this phase iff p divides N - 1 - t.
            key = y.tobytes()
            stop = key in window and any(
                key == seen and (num_iters - 1 - t) % p == 0
                for p, seen in enumerate(window, 1)
            )
            if stop:
                break
            window.appendleft(key)
    duals = DualPoint(duals=_pairs(y))
    if isinstance(amp, FactoredAMProblem):
        marginals /= Z
        return ScaledPlans(K, a, b / Z, _pairs(marginals), bary), duals
    return PrimalPoint(plans=_form_plans(K, a, b / Z, np.empty((m, n * n))), bary=bary), duals


def de_initial_error_bound(eps, theta_value, d_inf):
    """A priori bound E0 on the suboptimality of the cold prox start."""
    return (44.0 * d_inf / eps + 2.0) * theta_value + 18.0 * d_inf


def am_inner_iterations(eps, theta_value, d_inf):
    """Sweep count max(1, ceil(24 ln(2 E0 / eps))) meeting the per-run additive error budget.

    E0 is `de_initial_error_bound`: each sweep contracts the suboptimality
    by a constant factor, so a logarithmic number of sweeps takes E0 below
    eps / 2.  An eps above 2 E0 makes the logarithm negative: the cold
    start is already within eps / 2, and one sweep is all a prox call needs.
    """
    _check_eps_and_cost(eps, d_inf)
    bound = de_initial_error_bound(eps, theta_value, d_inf)
    return max(1, _step_count(24.0 * math.log(2.0 * bound / eps)))


@dataclass(frozen=True)
class DEConfig:
    theta: float
    outer_iters: int
    inner_iters: int


def de_config(prob, eps, theta_variant="exact"):
    d_inf = prob.cost.d_inf
    theta_value = theta(prob.n, d_inf, theta_variant)
    inner_iters = am_inner_iterations(eps, theta_value, d_inf)  # checks eps and the cost first
    return DEConfig(theta_value, _step_count(12.0 * theta_value / eps), inner_iters)


def _advance(amp, plans, duals, prob, divisor):
    """`amp` plus the saddle gradient at a prox output over `divisor`.

    The plan block C / m + adjoint(potentials) moves alpha by 1 / (divisor m);
    the dual block comes from the marginals the prox output already holds.
    """
    potentials, g_bary, g_dual = _gradient(
        duals, _residual(plans.marginals, plans.bary, prob.measures), prob.cost.d_inf
    )
    return FactoredAMProblem(
        alpha=amp.alpha + 1.0 / (divisor * prob.m),
        potentials=amp.potentials + potentials / divisor,
        v_bary=amp.v_bary + g_bary / divisor,
        u=amp.u + g_dual / divisor,
    )


def _check_gradient_sums(sums, k, d_inf):
    # The plan-block gradient is bounded by (1 + 2*max(2, m)) * d_inf / m in
    # sup norm (3*d_inf for m >= 2, 5*d_inf for a single measure) and the
    # dual gradient by 8*d_inf in l1; the sums accumulate k/(2*KAPPA) of
    # either.  The plan sum alpha * C + row (+) col is bounded by
    # alpha * d_inf + max|row| + max|col| <= 5 k d_inf / (2 KAPPA m).
    # Violations mean the arithmetic went wrong, not the math.
    m, n = sums.potentials.shape[0], sums.v_bary.shape[0]
    rate_x = max(3.0, (1.0 + 2.0 * max(2.0, m)) / m) * d_inf / (2.0 * KAPPA)
    rate_y = 8.0 * d_inf / (2.0 * KAPPA)
    slack = 1.0 + 1e-9
    potentials = np.abs(sums.potentials)
    plans_sup = sums.alpha * d_inf + potentials[:, :n].max() + potentials[:, n:].max()
    sup = max(plans_sup, np.abs(sums.v_bary).max())
    if not sup <= k * rate_x * slack + 1e-12:
        raise NumericalFailure("accumulated primal gradient exceeds its bound", iteration=k)
    if not np.abs(sums.u).sum() <= k * rate_y * slack + 1e-12:
        raise NumericalFailure("accumulated dual gradient exceeds its bound", iteration=k)


def run_dual_extrapolation(
    prob,
    eps,
    theta_variant="exact",
    max_outer=None,
    log_stride=None,
    oracle=None,
    timer=None,
):
    """Dual extrapolation outer loop with alternating-minimization prox calls.

    Each outer step solves two proximal subproblems (at the gradient sum and
    at the sum advanced by one extrapolated gradient), then accumulates half
    a step into the running gradient sum.  The averaged second prox outputs
    carry the gap guarantee; the loop stops early once their exact
    certificate reaches `eps`.  Every prox call starts from the canonical
    point.

    The run's state is the gradient sum, kept as the prox linear term
    itself, and the `core.RunningAverage` of the second prox outputs.  A
    step touches m n^2 entries only where the average forms that output's
    plans in its buffer and adds them; the first output is used through
    its marginals alone.
    """
    cfg = de_config(prob, eps, theta_variant)
    total = cfg.outer_iters if max_outer is None else int(max_outer)
    n, m = prob.n, prob.m
    cost = prob.cost
    report = RunReport(config={
        "eps": eps, "theta_variant": theta_variant, **asdict(cfg), "kappa": KAPPA,
        "max_outer": total,
        "initial_error_bound": de_initial_error_bound(eps, cfg.theta, cost.d_inf),
    })
    sums = FactoredAMProblem(0.0, np.zeros((m, 2 * n)), np.zeros(n), np.zeros((m, 2 * n)))
    average = RunningAverage(m, n)

    def step(k):
        nonlocal sums
        # No -<grad r(z_min), z> term: it is a constant on the product of simplices.
        zx, zy = am_prox(sums, cfg.inner_iters, cost)
        advanced = _advance(sums, zx, zy.duals, prob, KAPPA)
        wx, wy = am_prox(advanced, cfg.inner_iters, cost)
        sums = _advance(sums, wx, wy.duals, prob, 2.0 * KAPPA)
        average.add(wx.kernel, wx.row_scale, wx.col_scale, wx.bary, wy.duals)
        _check_gradient_sums(sums, k, cost.d_inf)

    run_certified(
        report, prob, eps, total, step, lambda: (*average.pair(), None),
        log_stride=log_stride, oracle=oracle, timer=timer,
    )
    return report.final_x, report.final_y, report
