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
a diagonal rescaling of a fixed kernel, so a call makes one O(m n^2)
exponential pass to build that kernel and every sweep then costs two batched
mat-vecs.  Every sweep contracts the suboptimality by a constant factor, so a
logarithmic number of sweeps meets the per-call error budget; a call stops
early once its duals repeat with period 1 or 2, returning bitwise what the
full budget would.  The prox centre is the regularizer's minimizer, but its
gradient term is left out of the linear terms: it is constant on each simplex
block and zero on the duals, so it only shifts the objective by a constant.

This module also ships the numerical diagnostics used to sanity-check the
construction: the area-convexity residual of random triples, the closed-form
Hessian quadratic form against its diagonal surrogate, and the regularizer
range bounds (the shipped default keeps the barycenter entropy term that the
tighter advertised constant drops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .core import (
    ConfigError,
    DomainError,
    DualPoint,
    NumericalFailure,
    PrimalPoint,
    _adjoint_stack,
    _constraint_blocks,
    _grad_blocks,
    _log_normalize,
    _marginals_stack,
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


def regularizer(x, y, cost):
    """Area-convex regularizer value at a primal/dual pair.

    Entropy part: 10 times the plan entropies plus 5m times the barycenter
    entropy.  Quadratic part: squared dual entries weighted by the plan
    marginals, plus the first-half squared duals weighted by the barycenter.
    Boundary zeros follow the 0*log(0) = 0 convention.
    """
    m, n = x.m, x.n
    ent = 10.0 * float(xlogy(x.plans, x.plans).sum())
    ent += 5.0 * m * float(xlogy(x.bary, x.bary).sum())
    ysq = y.duals**2
    quad = float((_marginals_stack(x.plans, n) * ysq).sum())
    quad += float((x.bary[None, :] * ysq[:, :n]).sum())
    return (2.0 * cost.d_inf / m) * (ent + quad)


@dataclass(frozen=True)
class AMProblem:
    """Linear terms of one proximal subproblem, stored block-wise.

    The objective is <v, x> + <u, y> + r(x, y) with v split into m plan
    blocks plus the barycenter block.
    """

    v_plans: np.ndarray  # (m, n*n)
    v_bary: np.ndarray  # (n,)
    u: np.ndarray  # (m, 2n)


def am_objective(amp, x, y, cost):
    """Proximal subproblem objective <v, x> + <u, y> + r(x, y)."""
    lin = float((amp.v_plans * x.plans).sum()) + float(np.dot(amp.v_bary, x.bary))
    lin += float((amp.u * y.duals).sum())
    return lin + regularizer(x, y, cost)


def _box_quadratic_argmin(lin_coef, curvature):
    """Entrywise argmin over [-1, 1] of lin*t + curvature*t^2, curvature >= 0.

    A vanishing curvature degenerates to box-linear minimization: the argmin
    is -sign(lin), and 0 when the linear coefficient also vanishes.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(curvature > 0, -lin_coef / (2.0 * curvature), -np.sign(lin_coef))
    return np.clip(inner, -1.0, 1.0)


def am_prox(amp, num_iters, cost, m, n):
    """Alternating minimization for one proximal subproblem.

    Starting from uniform simplices and zero duals, each sweep updates the
    plan blocks and the barycenter by their softmax closed forms, then solves
    every dual coordinate's clipped 1-D quadratic.  Returns the final
    primal/dual pair.

    Only the separable term 0.1 * (y_j^2 + y_{n+k}^2) of a plan block's
    exponent depends on the duals, so plan i is diag(a_i) K_i diag(b_i) / Z_i
    with a kernel K_i built by one exp pass per call.  A sweep needs only the
    plan marginals, which are two batched mat-vecs against K; the dense plans
    are formed once, after the last sweep.

    A sweep is a function of the duals alone, so the loop stops early only
    where the rest of the budget cannot change the result: when a sweep
    leaves the duals bit-identical (period 1), or when they equal those of
    two sweeps back (period 2) and the remaining budget ends on this phase
    of the cycle.  Either way the output is bitwise what the full budget
    returns.
    """
    if num_iters < 1:
        raise ConfigError("need at least one sweep")
    d_inf = cost.d_inf
    if d_inf <= 0:
        raise ConfigError("cost matrix is identically zero")
    exponents = (m / (20.0 * d_inf)) * amp.v_plans
    K = np.exp(exponents.min(axis=1, keepdims=True) - exponents).reshape(m, n, n)
    y = y_prev = np.zeros((m, 2 * n))
    for t in range(num_iters):
        ysq = y**2
        # Both scalings lie in [e^-0.1, 1], so they cannot underflow.
        e = np.exp(-0.1 * ysq)
        a, b = e[:, :n], e[:, n:]
        rows = a * (K @ b[:, :, None])[:, :, 0]
        cols = b * (a[:, None, :] @ K)[:, 0, :]
        Z = rows.sum(axis=1, keepdims=True)
        exponent_b = amp.v_bary / (10.0 * d_inf) + ysq[:, :n].sum(axis=0) / (5.0 * m)
        _, bary = _log_normalize(-exponent_b)
        curvature = np.concatenate([rows / Z + bary, cols / Z], axis=1)
        y_next = _box_quadratic_argmin(amp.u, (2.0 * d_inf / m) * curvature)
        if not (np.all(np.isfinite(curvature)) and np.all(np.isfinite(y_next))):
            raise NumericalFailure("non-finite alternating-minimization sweep", iteration=t)
        # y_{t+1} == y_t repeats forever.  y_{t+1} == y_{t-1} alternates from
        # here on, and a budget of N sweeps ends on this phase iff N - t is odd.
        stop = np.array_equal(y_next, y) or (
            (num_iters - t) % 2 == 1 and np.array_equal(y_next, y_prev)
        )
        y_prev, y = y, y_next
        if stop:
            break
    plans = K * (a[:, :, None] * (b / Z)[:, None, :])
    return PrimalPoint(plans=plans.reshape(m, n * n), bary=bary), DualPoint(duals=y)


def am_inner_iterations(eps, theta_value, d_inf):
    """Sweep count meeting the per-run additive error budget.

    Grows logarithmically in the regularizer range and in 1/eps, matching
    the constant per-sweep error contraction of the alternating scheme.
    """
    if eps <= 0:
        raise ConfigError("eps must be positive")
    argument = (88.0 * d_inf / eps**2 + 4.0 / eps) * theta_value + 36.0 * d_inf / eps
    return math.ceil(24.0 * math.log(argument))


def de_initial_error_bound(eps, theta_value, d_inf):
    """A priori bound on the suboptimality of the cold prox start.

    Diagnostic only: the sweep count above is calibrated against it.
    """
    return (44.0 * d_inf / eps + 2.0) * theta_value + 18.0 * d_inf


@dataclass(frozen=True)
class DEConfig:
    theta: float
    outer_iters: int
    inner_iters: int


def de_config(prob, eps, theta_variant="exact"):
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError("eps must be positive and finite")
    d_inf = prob.cost.d_inf
    if d_inf <= 0:
        raise ConfigError("cost matrix is identically zero")
    theta_value = theta(prob.n, d_inf, theta_variant)
    return DEConfig(
        theta=theta_value,
        outer_iters=math.ceil(12.0 * theta_value / eps),
        inner_iters=am_inner_iterations(eps, theta_value, d_inf),
    )


@dataclass
class DEState:
    """Accumulated gradient sums and running output totals after k steps."""

    s_plans: np.ndarray
    s_bary: np.ndarray
    s_duals: np.ndarray
    sum_w_plans: np.ndarray
    sum_w_bary: np.ndarray
    sum_w_duals: np.ndarray
    k: int = 0

    def averaged_pair(self):
        k = max(self.k, 1)
        return (
            PrimalPoint(plans=self.sum_w_plans / k, bary=self.sum_w_bary / k),
            DualPoint(duals=self.sum_w_duals / k),
        )


def _check_gradient_sums(state, kappa, d_inf, m):
    # The plan-block gradient is bounded by (1 + 2*max(2, m)) * d_inf / m in
    # sup norm (3*d_inf for m >= 2, 5*d_inf for a single measure) and the
    # dual gradient by 8*d_inf in l1; the sums accumulate k/(2*kappa) of
    # either.  Violations mean the arithmetic went wrong, not the math.
    rate_x = max(3.0, (1.0 + 2.0 * max(2.0, m)) / m) * d_inf / (2.0 * kappa)
    rate_y = 8.0 * d_inf / (2.0 * kappa)
    slack = 1.0 + 1e-9
    sup = max(np.abs(state.s_plans).max(), np.abs(state.s_bary).max())
    if sup > state.k * rate_x * slack + 1e-12:
        raise NumericalFailure("accumulated primal gradient exceeds its bound", iteration=state.k)
    if np.abs(state.s_duals).sum() > state.k * rate_y * slack + 1e-12:
        raise NumericalFailure("accumulated dual gradient exceeds its bound", iteration=state.k)


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
    """
    cfg = de_config(prob, eps, theta_variant)
    total = cfg.outer_iters if max_outer is None else int(max_outer)
    n, m = prob.n, prob.m
    cost = prob.cost
    report = RunReport(
        algorithm="de",
        config={
            "eps": eps,
            "theta_variant": theta_variant,
            "theta": cfg.theta,
            "kappa": KAPPA,
            "outer_iters": cfg.outer_iters,
            "inner_iters": cfg.inner_iters,
            "max_outer": total,
            "initial_error_bound": de_initial_error_bound(eps, cfg.theta, cost.d_inf),
        },
    )
    state = DEState(
        s_plans=np.zeros((m, n * n)),
        s_bary=np.zeros(n),
        s_duals=np.zeros((m, 2 * n)),
        sum_w_plans=np.zeros((m, n * n)),
        sum_w_bary=np.zeros(n),
        sum_w_duals=np.zeros((m, 2 * n)),
    )

    def step(k):
        # No -<grad r(z_min), z> term: it is a constant on the product of simplices.
        base = AMProblem(state.s_plans, state.s_bary, state.s_duals)
        zx, zy = am_prox(base, cfg.inner_iters, cost, m, n)
        g_plans, g_bary, g_dual = _grad_blocks((zx.plans, zx.bary, zy.duals), prob)
        advanced = AMProblem(
            v_plans=base.v_plans + g_plans / KAPPA,
            v_bary=base.v_bary + g_bary / KAPPA,
            u=base.u + g_dual / KAPPA,
        )
        wx, wy = am_prox(advanced, cfg.inner_iters, cost, m, n)
        g_plans, g_bary, g_dual = _grad_blocks((wx.plans, wx.bary, wy.duals), prob)
        state.s_plans += g_plans / (2.0 * KAPPA)
        state.s_bary += g_bary / (2.0 * KAPPA)
        state.s_duals += g_dual / (2.0 * KAPPA)
        state.sum_w_plans += wx.plans
        state.sum_w_bary += wx.bary
        state.sum_w_duals += wy.duals
        state.k = k
        _check_gradient_sums(state, KAPPA, cost.d_inf, m)

    run_certified(
        report, prob, eps, total, step, lambda: (*state.averaged_pair(), None),
        log_stride=log_stride, oracle=oracle, timer=timer,
    )
    return report.final_x, report.final_y, report


# ---------------------------------------------------------------------------
# Numerical diagnostics: area-convexity, Hessian sandwich
# ---------------------------------------------------------------------------


def area_convexity_residual(a, b, c, cost, kappa=KAPPA):
    """Residual of the area-convexity inequality on a triple of points.

    Nonnegative (up to roundoff) for kappa = 3: kappa times the Jensen-type
    gap of the regularizer at the triple dominates the pairing of the
    gradient-operator difference with the displacement.  The linear parts of
    the gradient operator cancel in the difference, so no measures enter.
    """
    ax, ay = a
    bx, by = b
    cx, cy = c
    m, n = ax.m, ax.n
    mid = (
        PrimalPoint(plans=(ax.plans + bx.plans + cx.plans) / 3.0, bary=(ax.bary + bx.bary + cx.bary) / 3.0),
        DualPoint(duals=(ay.duals + by.duals + cy.duals) / 3.0),
    )
    jensen = (
        regularizer(ax, ay, cost)
        + regularizer(bx, by, cost)
        + regularizer(cx, cy, cost)
        - 3.0 * regularizer(*mid, cost)
    )
    scale = 2.0 * cost.d_inf / m
    dy = ay.duals - by.duals
    diff_plans = scale * _adjoint_stack(dy, n)
    diff_bary = -scale * dy[:, :n].sum(axis=0)
    diff_dual = -scale * (
        _constraint_blocks(ax.plans, ax.bary) - _constraint_blocks(bx.plans, bx.bary)
    )
    pairing = float((diff_plans * (bx.plans - cx.plans)).sum())
    pairing += float(np.dot(diff_bary, bx.bary - cx.bary))
    pairing += float((diff_dual * (by.duals - cy.duals)).sum())
    return kappa * jensen - pairing


def hessian_forms(x, y, w, cost, m):
    """Quadratic forms of the regularizer Hessian and its diagonal surrogate.

    `w` is a direction over the full primal/dual space (plans, barycenter,
    duals concatenated).  The Hessian form uses the closed-form blocks:
    entropy diagonals, the marginal-operator cross terms against the duals,
    and the dual diagonal weighted by marginals plus barycenter.  The
    surrogate drops the cross terms and shrinks the diagonals; the two forms
    sandwich each other within a factor of 6.  Assembled matrix-free.
    """
    n = x.n
    if np.any(x.plans <= 0) or np.any(x.bary <= 0):
        raise DomainError("Hessian forms need strictly positive plans and barycenter")
    w = np.asarray(w, dtype=float)
    if w.shape != (m * n * n + n + 2 * m * n,):
        raise ConfigError("direction vector has wrong length")
    w_plans = w[: m * n * n].reshape(m, n * n)
    w_bary = w[m * n * n : m * n * n + n]
    w_duals = w[m * n * n + n :].reshape(m, 2 * n)

    dual_weights = _marginals_stack(x.plans, n)
    dual_weights[:, :n] += x.bary

    ent_plans = float((w_plans**2 / x.plans).sum())
    ent_bary = float((w_bary**2 / x.bary).sum())
    dual_quad = float((dual_weights * w_duals**2).sum())
    yw = y.duals * w_duals
    cross = 4.0 * float((w_plans * _adjoint_stack(yw, n)).sum())
    cross += 4.0 * float(np.dot(w_bary, yw[:, :n].sum(axis=0)))

    scale = 2.0 * cost.d_inf / m
    q_hess = scale * (10.0 * ent_plans + 5.0 * m * ent_bary + cross + 2.0 * dual_quad)
    q_diag = scale * (2.0 * ent_plans + m * ent_bary + dual_quad)
    return q_hess, q_diag
