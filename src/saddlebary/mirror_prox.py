"""Extragradient (mirror prox) solver on the entropy/Euclidean product geometry.

Each iteration takes an extrapolation step and a main step.  Plan and
barycenter blocks move multiplicatively (exponentiated-gradient updates,
renormalized onto their simplices); dual blocks move by a Euclidean step
clipped onto the box.  The averaged extrapolation iterates carry the O(1/N)
duality-gap guarantee, and the gap of the running averages is evaluated
exactly along the way.

The plan update is in Gibbs scaling form: the exponent separates into the
fixed kernel exp(-gamma C) and per-measure row and column factors, so an
iteration needs O(m n) exponentials, batched mat-vecs for the marginals and
normalizers, and one elementwise pass to form each plan.  The state keeps
the dense plans and their marginals; plan entries below the smallest normal
double are flushed to exactly 0 so rounding cannot pin them at slow
subnormal values.  The barycenter block (n entries) stays in the log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    DualPoint,
    NumericalFailure,
    PrimalPoint,
    _log_normalize,
    _marginals_stack,
    _target_blocks,
    uniform_primal,
    zero_dual,
)
from .report import RunReport, run_certified

SCALING_VARIANTS = ("derived", "printed")


@dataclass(frozen=True)
class MPConfig:
    """Step sizes and iteration budget.

    `alpha` is the dual step, `beta` the barycenter exponent scale,
    `gamma_mult` the plan exponent scale, `iters` the budget that guarantees
    an eps-accurate averaged pair.
    """

    eta: float
    alpha: float
    beta: float
    gamma_mult: float
    iters: int
    scaling_variant: str


def mp_config(prob, eps, variant="derived"):
    """Theory step sizes and iteration count for a target accuracy.

    Two scalings of the multiplicative steps are offered.  The `derived`
    variant follows from the product prox geometry (weights 1/R^2 on each
    block) combined with the 1/m-averaged gradient, giving plan exponent
    3*eta*ln(n) and barycenter exponent 6*d_inf*eta*ln(n)/m.  The `printed`
    variant multiplies both by m.  The duality-gap guarantee at the returned
    iteration count holds for `derived`.
    """
    if variant not in SCALING_VARIANTS:
        raise ConfigError(f"unknown scaling variant {variant!r}")
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError("eps must be positive and finite")
    d_inf = prob.cost.d_inf
    if d_inf <= 0:
        raise ConfigError("cost matrix is identically zero")
    n, m = prob.n, prob.m
    root = math.sqrt(6.0 * n * math.log(n))
    eta = 1.0 / (4.0 * d_inf * root)
    iters = math.ceil(8.0 * d_inf * root / eps)
    alpha = 2.0 * d_inf * eta * n
    beta = 6.0 * d_inf * eta * math.log(n)
    gamma_mult = 3.0 * m * eta * math.log(n)
    if variant == "derived":
        beta /= m
        gamma_mult /= m
    return MPConfig(
        eta=eta,
        alpha=alpha,
        beta=beta,
        gamma_mult=gamma_mult,
        iters=iters,
        scaling_variant=variant,
    )


@dataclass(frozen=True)
class MPState:
    """Solver state after k iterations.

    `x` is the main primal iterate: its dense plans are the authoritative
    plan state, and `x_marginals` holds their stacked [row sums, column
    sums], carried from the step that formed them so the next residual
    needs no pass over the m n^2 plan entries.  The barycenter stays in the
    log domain as `log_bary`.  `u`/`v` hold the most recent extrapolation
    pair and `sum_*` their running totals (the certified output is the
    average `sum / k`).  No array of a returned state is written by a later
    step.
    """

    x: PrimalPoint
    y: DualPoint
    u: PrimalPoint
    v: DualPoint
    x_marginals: np.ndarray
    log_bary: np.ndarray
    sum_plans: np.ndarray
    sum_bary: np.ndarray
    sum_duals: np.ndarray
    k: int

    def averaged_pair(self):
        k = max(self.k, 1)
        return (
            PrimalPoint(plans=self.sum_plans / k, bary=self.sum_bary / k),
            DualPoint(duals=self.sum_duals / k),
        )


def mp_initial_state(prob):
    """Uniform plans, uniform barycenter, zero duals."""
    n, m = prob.n, prob.m
    x0 = uniform_primal(n, m)
    y0 = zero_dual(n, m)
    return MPState(
        x=x0,
        y=y0,
        u=x0,
        v=y0,
        x_marginals=_marginals_stack(x0.plans, n),
        log_bary=np.log(x0.bary),
        sum_plans=np.zeros((m, n * n)),
        sum_bary=np.zeros(n),
        sum_duals=np.zeros((m, 2 * n)),
        k=0,
    )


# Plan entries below the smallest normal double are set to exactly 0.
# Rounding pins a decaying subnormal entry where it is (5e-324 * 0.94 rounds
# back to 5e-324), and arithmetic on subnormals runs many times slower.  In
# a unit-mass plan such entries are below 2^-1022, where exp underflows to 0
# or to a subnormal anyway.
_PLAN_FLOOR = np.finfo(float).tiny


def _scale_in_place(P, a, b_over_z):
    """P *= outer(a, b/Z) per measure, then entries below the floor set to 0."""
    P *= a[:, :, None]
    P *= b_over_z[:, None, :]
    P *= P >= _PLAN_FLOOR
    return P.reshape(P.shape[0], -1)


def mp_iteration(state, cfg, prob):
    """One extragradient step; returns the new state with sums accumulated.

    The plan exponent -gamma (d + 2 d_inf (y_j + y_{n+k})) separates, so
    both plans of a step are W * outer(a, b) / Z with W = x * exp(-gamma C)
    shared and a = exp(-c y[:n]), b = exp(-c y[n:]), c = 2 d_inf gamma.  The
    marginals and normalizers of both come from batched mat-vecs against W;
    each plan is materialized once.
    """
    n, m = prob.n, prob.m
    d_inf = prob.cost.d_inf
    targets = _target_blocks(prob.measures)
    duals = state.y.duals

    # extrapolation dual step at the main iterate
    residual = state.x_marginals - targets
    residual[:, :n] -= state.x.bary
    v = np.clip(duals + cfg.alpha * residual, -1.0, 1.0)

    # both plan scalings: index 0 at the duals (u), index 1 at v (next x)
    W = state.x.plans.reshape(m, n, n) * np.exp(-cfg.gamma_mult * prob.cost.C)
    scale = np.exp((-2.0 * d_inf * cfg.gamma_mult) * np.stack([duals, v], axis=1))
    a, b = scale[:, :, :n], scale[:, :, n:]
    rows = a * (b @ np.swapaxes(W, 1, 2))
    cols = b * (a @ W)
    Z = rows.sum(axis=2, keepdims=True)
    marginals = np.concatenate([rows, cols], axis=2) / Z

    _, s_bary = _log_normalize(state.log_bary + cfg.beta * duals[:, :n].sum(axis=0))
    log_p, p_bary = _log_normalize(state.log_bary + cfg.beta * v[:, :n].sum(axis=0))

    if not (
        np.all(np.isfinite(marginals))
        and np.all(np.isfinite(Z))
        and np.all(np.isfinite(s_bary))
        and np.all(np.isfinite(p_bary))
    ):
        raise NumericalFailure("non-finite multiplicative update", iteration=state.k + 1)

    # main dual step, evaluated at the extrapolation pair
    residual_u = marginals[:, 0] - targets
    residual_u[:, :n] -= s_bary
    y_new = np.clip(duals + cfg.alpha * residual_u, -1.0, 1.0)

    # W is a temporary of this step, so u takes over its buffer
    b_over_z = b / Z
    x_plans = _scale_in_place(W.copy(), a[:, 1], b_over_z[:, 1])
    u_plans = _scale_in_place(W, a[:, 0], b_over_z[:, 0])

    return MPState(
        x=PrimalPoint(plans=x_plans, bary=p_bary),
        y=DualPoint(duals=y_new),
        u=PrimalPoint(plans=u_plans, bary=s_bary),
        v=DualPoint(duals=v),
        x_marginals=marginals[:, 1],
        log_bary=log_p,
        sum_plans=state.sum_plans + u_plans,
        sum_bary=state.sum_bary + s_bary,
        sum_duals=state.sum_duals + v,
        k=state.k + 1,
    )


def run_mirror_prox(
    prob,
    eps,
    variant="derived",
    max_iters=None,
    log_stride=None,
    oracle=None,
    timer=None,
):
    """Run mirror prox to a target duality gap.

    Iterates from the canonical start for at most `max_iters` steps
    (defaulting to the theory budget of the configuration) and stops early
    as soon as the exact certificate of the averaged pair reaches `eps`.
    `oracle`, when given, maps a barycenter vector to an optimality gap and
    fills the corresponding report column.  Returns the averaged primal and
    dual points plus the run report.
    """
    cfg = mp_config(prob, eps, variant)
    total = cfg.iters if max_iters is None else int(max_iters)
    report = RunReport(
        algorithm="mp",
        config={
            "eps": eps,
            "scaling_variant": cfg.scaling_variant,
            "eta": cfg.eta,
            "alpha": cfg.alpha,
            "beta": cfg.beta,
            "gamma_mult": cfg.gamma_mult,
            "theory_iters": cfg.iters,
            "max_iters": total,
        },
    )
    state = mp_initial_state(prob)

    def step(k):
        nonlocal state
        state = mp_iteration(state, cfg, prob)

    run_certified(
        report, prob, eps, total, step, lambda: (*state.averaged_pair(), None),
        log_stride=log_stride, oracle=oracle, timer=timer,
    )
    return report.final_x, report.final_y, report
