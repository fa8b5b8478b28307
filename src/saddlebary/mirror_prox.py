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
normalizers, and one elementwise pass to form each plan, through the
Gibbs-form helpers in `core`.  The state keeps the dense plans and their
marginals, and a step updates it in place, so it allocates no m n^2 float
array.  The barycenter block (n entries) stays in the log domain.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    ConfigError,
    DualPoint,
    NumericalFailure,
    PrimalPoint,
    _averaged_pair,
    _check_eps_and_cost,
    _form_plans,
    _log_normalize,
    _marginals_stack,
    _residual,
    _scaled_marginals,
    _step_count,
    uniform_primal,
    zero_dual,
)
from .report import RunReport, run_certified

SCALING_VARIANTS = ("derived", "printed")


@dataclass(frozen=True)
class MPConfig:
    """Step sizes and iteration budget.

    `alpha` is the dual step, `beta` the barycenter exponent scale,
    `gamma_mult` the plan exponent scale, `theory_iters` the budget that
    guarantees an eps-accurate averaged pair.
    """

    eta: float
    alpha: float
    beta: float
    gamma_mult: float
    theory_iters: int
    scaling_variant: str


def mp_config(prob, eps, variant="derived"):
    """Theory step sizes and iteration count for a target accuracy.

    The one home of the prox geometry.  With the radii Rx^2 = 3 m ln n (plan
    entropies plus m times the barycenter entropy, over the simplices) and
    Ry^2 = m n (half squared norm, over the dual box), R = sqrt(2 Rx^2 Ry^2):
    eta = m / (4 d_inf R), alpha = 2 d_inf eta Ry^2 / m, gamma_mult =
    eta Rx^2 / m, beta = 2 d_inf eta Rx^2 / m^2 and theory_iters =
    ceil(8 d_inf R / (m eps)), computed below with the radii substituted.
    The `printed` variant multiplies `gamma_mult` and `beta` by m; the
    duality-gap guarantee at the returned iteration count holds for
    `derived`.
    """
    if variant not in SCALING_VARIANTS:
        raise ConfigError(f"unknown scaling variant {variant!r}")
    d_inf = prob.cost.d_inf
    _check_eps_and_cost(eps, d_inf)
    n, m = prob.n, prob.m
    root = math.sqrt(6.0 * n * math.log(n))
    eta = 1.0 / (4.0 * d_inf * root)
    alpha = 2.0 * d_inf * eta * n
    beta = 6.0 * d_inf * eta * math.log(n)
    gamma_mult = 3.0 * m * eta * math.log(n)
    if variant == "derived":
        beta /= m
        gamma_mult /= m
    return MPConfig(
        eta=eta, alpha=alpha, beta=beta, gamma_mult=gamma_mult,
        theory_iters=_step_count(8.0 * d_inf * root / eps), scaling_variant=variant,
    )


@dataclass
class MPState:
    """Solver state after k iterations, updated in place by `mp_iteration`.

    `x` is the main primal iterate: its dense plans are the authoritative
    plan state, and `x_marginals` holds their stacked [row sums, column
    sums], carried from the step that formed them so the next residual
    needs no pass over the m n^2 plan entries.  The barycenter stays in the
    log domain as `log_bary`.  `u`/`v` hold the most recent extrapolation
    pair and `sum_*` their running totals (the certified output is the
    average `sum / k`).  Every array is owned by the state alone: a step
    overwrites the arrays of the state it is given.
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

    averaged_pair = _averaged_pair


def mp_initial_state(prob):
    """Uniform plans, uniform barycenter, zero duals."""
    n, m = prob.n, prob.m
    x0 = uniform_primal(n, m)
    return MPState(
        x=x0,
        y=zero_dual(n, m),
        u=uniform_primal(n, m),
        v=zero_dual(n, m),
        x_marginals=_marginals_stack(x0.plans, n),
        log_bary=np.log(x0.bary),
        sum_plans=np.zeros((m, n * n)),
        sum_bary=np.zeros(n),
        sum_duals=np.zeros((m, 2 * n)),
        k=0,
    )


def mp_iteration(state, cfg, prob):
    """One extragradient step, accumulated into `state` in place.

    The plan exponent -gamma (d + 2 d_inf (y_j + y_{n+k})) separates, so
    both plans of a step are W * outer(a, b) / Z with W = x * exp(-gamma C)
    shared and a = exp(-c y[:n]), b = exp(-c y[n:]), c = 2 d_inf gamma.  The
    marginals and normalizers of both come from batched mat-vecs against W;
    each plan is materialized once.  W is formed in the buffer of x's plans,
    u is written into its own buffer and the next x over W.
    """
    n, m = prob.n, prob.m
    x, y, u, v = state.x, state.y, state.u, state.v

    # extrapolation dual step at the main iterate
    residual = _residual(state.x_marginals, x.bary, prob.measures)
    np.clip(y.duals + cfg.alpha * residual, -1.0, 1.0, out=v.duals)

    # both plan scalings: index 0 at the duals (u), index 1 at v (next x)
    W = x.plans.reshape(m, n, n)
    W *= np.exp(-cfg.gamma_mult * prob.cost.C)
    scale = np.exp((-2.0 * prob.cost.d_inf * cfg.gamma_mult) * np.stack([y.duals, v.duals], axis=1))
    a, b = scale[:, :, :n], scale[:, :, n:]
    marginals = _scaled_marginals(W, a, b)
    Z = marginals[:, :, :n].sum(axis=2, keepdims=True)
    marginals /= Z

    _, s_bary = _log_normalize(state.log_bary + cfg.beta * y.duals[:, :n].sum(axis=0))
    log_p, p_bary = _log_normalize(state.log_bary + cfg.beta * v.duals[:, :n].sum(axis=0))

    if not (
        np.all(np.isfinite(marginals))
        and np.all(np.isfinite(Z))
        and np.all(np.isfinite(s_bary))
        and np.all(np.isfinite(p_bary))
    ):
        raise NumericalFailure("non-finite multiplicative update", iteration=state.k + 1)

    # main dual step, evaluated at the extrapolation pair
    residual_u = _residual(marginals[:, 0], s_bary, prob.measures)
    np.clip(y.duals + cfg.alpha * residual_u, -1.0, 1.0, out=y.duals)

    b_over_z = b / Z
    _form_plans(W, a[:, 0], b_over_z[:, 0], u.plans)
    _form_plans(W, a[:, 1], b_over_z[:, 1], x.plans)
    u.bary[:] = s_bary
    x.bary[:] = p_bary
    state.x_marginals = marginals[:, 1]
    state.log_bary = log_p
    state.sum_plans += u.plans
    state.sum_bary += s_bary
    state.sum_duals += v.duals
    state.k += 1


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
    total = cfg.theory_iters if max_iters is None else int(max_iters)
    report = RunReport(algorithm="mp", config={"eps": eps, **asdict(cfg), "max_iters": total})
    state = mp_initial_state(prob)
    run_certified(
        report, prob, eps, total, lambda k: mp_iteration(state, cfg, prob),
        lambda: (*state.averaged_pair(), None),
        log_stride=log_stride, oracle=oracle, timer=timer,
    )
    return report.final_x, report.final_y, report
