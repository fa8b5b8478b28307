"""The paper's numerical checks and printed constants, which no solver runs.

No solver evaluates the regularizer: `am_prox` minimizes it without
computing its value.  These are what the acceptance criteria and
`test_area_convex.py` measure the area-convex construction by: the
regularizer and the proximal subproblem objective (criteria 6 and 7, the
latter on the package's own `am_prox`), the area-convexity residual of a
triple of points (criterion 3), and the closed-form Hessian quadratic form
against its diagonal surrogate (criterion 4).  The range bound the package
runs on is its `theta`, (50 ln n + 6) d_inf; `paper_theta` is the
advertised (40 ln n + 6) d_inf, which drops the barycenter entropy's
10 ln n and which criterion 6's samples exceed.  `printed_mp_config` is
mirror prox at the paper's printed step constants, m times the derived
multiplicative steps, for which the theory budget is not certified; the
tests drive it through `mp_iteration`.  `ot_1d_monotone`, the exact 1-D
transport cost, is the reference the package's squared-distance
`optimality_gap` is checked against (criterion 10 and
`test_oracles_1d.py`); it also takes power 1.
"""

import dataclasses
import math

import numpy as np

import saddlebary as sb
from saddlebary.area_convex import KAPPA
from saddlebary.core import _adjoint_stack, _gradient, _marginals_stack, _residual, _xlogy
from saddlebary.oracles_1d import _quantile_segments


def printed_mp_config(prob, eps):
    """`mp_config` with the printed steps beta = 6 d_inf eta ln n and gamma_mult = 3 m eta ln n.

    Both are m times the derived values; eta, alpha and the budget are
    `mp_config`'s.
    """
    cfg = sb.mp_config(prob, eps)
    log_n = math.log(prob.n)
    return dataclasses.replace(
        cfg,
        beta=6.0 * prob.cost.d_inf * cfg.eta * log_n,
        gamma_mult=3.0 * prob.m * cfg.eta * log_n,
    )


def paper_theta(n, d_inf):
    """The advertised regularizer range (40 ln n + 6) d_inf, short of `theta` by 10 ln n d_inf."""
    return (40.0 * math.log(n) + 6.0) * d_inf


def regularizer(x, y, cost):
    """Area-convex regularizer value at a primal/dual pair.

    Entropy part: 10 times the plan entropies plus 5m times the barycenter
    entropy.  Quadratic part: squared dual entries weighted by the plan
    marginals, plus the first-half squared duals weighted by the barycenter.
    Boundary zeros follow the 0*log(0) = 0 convention.
    """
    m, n = x.plans.shape[0], x.bary.shape[0]
    ent = 10.0 * float(_xlogy(x.plans, x.plans).sum())
    ent += 5.0 * m * float(_xlogy(x.bary, x.bary).sum())
    ysq = y.duals**2
    quad = float((_marginals_stack(x.plans, n) * ysq).sum())
    quad += float((x.bary[None, :] * ysq[:, :n]).sum())
    return (2.0 * cost.d_inf / m) * (ent + quad)


def plan_linear_terms(amp, cost):
    """The (m, n^2) plan blocks alpha * C + adj(potentials) of a `FactoredAMProblem`."""
    return amp.alpha * cost.d + _adjoint_stack(amp.potentials, amp.v_bary.shape[0])


def am_objective(amp, x, y, cost):
    """Proximal subproblem objective <v, x> + <u, y> + r(x, y) of a `FactoredAMProblem`.

    v's plan blocks are `plan_linear_terms`, formed densely here.
    """
    lin = float((plan_linear_terms(amp, cost) * x.plans).sum())
    lin += float(np.dot(amp.v_bary, x.bary))
    lin += float((amp.u * y.duals).sum())
    return lin + regularizer(x, y, cost)


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
    n = ax.bary.shape[0]
    mid = (
        sb.PrimalPoint(
            plans=(ax.plans + bx.plans + cx.plans) / 3.0, bary=(ax.bary + bx.bary + cx.bary) / 3.0
        ),
        sb.DualPoint(duals=(ay.duals + by.duals + cy.duals) / 3.0),
    )
    jensen = (
        regularizer(ax, ay, cost)
        + regularizer(bx, by, cost)
        + regularizer(cx, cy, cost)
        - 3.0 * regularizer(*mid, cost)
    )
    # the gradient at a minus the gradient at b, residuals taken with
    # measures 0: the linear parts, C / m included, cancel
    residual_a = _residual(_marginals_stack(ax.plans, n), ax.bary, 0.0)
    residual_b = _residual(_marginals_stack(bx.plans, n), bx.bary, 0.0)
    pa, ga_bary, ga_dual = _gradient(ay.duals, residual_a, cost.d_inf)
    pb, gb_bary, gb_dual = _gradient(by.duals, residual_b, cost.d_inf)
    pairing = float((_adjoint_stack(pa - pb, n) * (bx.plans - cx.plans)).sum())
    pairing += float(np.dot(ga_bary - gb_bary, bx.bary - cx.bary))
    pairing += float(((ga_dual - gb_dual) * (by.duals - cy.duals)).sum())
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
    n = x.bary.shape[0]
    if np.any(x.plans <= 0) or np.any(x.bary <= 0):
        raise sb.DomainError("Hessian forms need strictly positive plans and barycenter")
    w = np.asarray(w, dtype=float)
    if w.shape != (m * n * n + n + 2 * m * n,):
        raise sb.ConfigError("direction vector has wrong length")
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


def ot_1d_monotone(p, q, grid, power=2.0):
    """Exact transport cost between two histograms on the grid, cost |t_j - t_k|^power.

    The monotone coupling, optimal for a convex power (1 or more), pairs the
    two quantile functions: one merge of the two cumulative distributions
    prices every segment of [0, 1] at the distance between the points the
    two quantiles pick there.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (grid.n,) or q.shape != (grid.n,):
        raise sb.ShapeError("histograms must match the grid length")
    widths, (ip, iq) = _quantile_segments(np.stack([p, q]))
    pts = grid.points
    return float(np.dot(widths, np.abs(pts[ip] - pts[iq]) ** power))
