"""Extragradient (mirror prox) solver on the entropy/Euclidean product geometry.

Each iteration takes an extrapolation step and a main step.  Plan and
barycenter blocks move multiplicatively (exponentiated-gradient updates,
renormalized onto their simplices); dual blocks move by a Euclidean step
clipped onto the box.  The averaged extrapolation iterates carry the O(1/N)
duality-gap guarantee, and the gap of the running averages is evaluated
exactly along the way.

The plan update is in Gibbs scaling form: the exponent separates into the
fixed cost C and per-measure row and column terms, so after k steps every
plan of the main iterate is the one kernel exp(-k gamma C) with row and
column factors.  The state keeps the main iterate as k and those (m, 2n)
log factors, not as dense plans.  A step builds one n x n kernel (n^2
exponentials), takes the marginals and normalizers of both of its plans by
two GEMMs, and forms only the extrapolation plans, as `core.RunningAverage`
adds them to the certified average.  Should the kernel and factors span
more than `core.FACTOR_SPAN_MAX` in the exponent, the kernel builder
returns one block per measure instead, the step forms the next main
iterate densely over it, and each later step rescales that by
exp(-gamma C).  A step updates the state in place; only that switch
allocates an m n^2 float array.  The barycenter block (n entries) stays in
the log domain.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    NumericalFailure,
    RunningAverage,
    _check_eps_and_cost,
    _form_plans,
    _log_normalize,
    _plan_kernel,
    _residual,
    _scaled_marginals,
    _step_count,
)
from .report import RunReport, run_certified


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


def mp_config(prob, eps):
    """Theory step sizes and iteration count for a target accuracy.

    The one home of the prox geometry.  With the radii Rx^2 = 3 m ln n (plan
    entropies plus m times the barycenter entropy, over the simplices) and
    Ry^2 = m n (half squared norm, over the dual box), R = sqrt(2 Rx^2 Ry^2):
    eta = m / (4 d_inf R), alpha = 2 d_inf eta Ry^2 / m, gamma_mult =
    eta Rx^2 / m, beta = 2 d_inf eta Rx^2 / m^2 and theory_iters =
    ceil(8 d_inf R / (m eps)), computed below with the radii substituted.
    The duality-gap guarantee holds at the returned iteration count.
    """
    d_inf = prob.cost.d_inf
    _check_eps_and_cost(eps, d_inf)
    n, m = prob.n, prob.m
    root = math.sqrt(6.0 * n * math.log(n))
    eta = 1.0 / (4.0 * d_inf * root)
    return MPConfig(
        eta=eta,
        alpha=2.0 * d_inf * eta * n,
        beta=6.0 * d_inf * eta * math.log(n) / m,
        # the m factors do not cancel in floating point: dropping them changes the bits
        gamma_mult=3.0 * m * eta * math.log(n) / m,
        theory_iters=_step_count(8.0 * d_inf * root / eps),
    )


@dataclass
class MPState:
    """Solver state after k iterations, updated in place by `mp_iteration`.

    The main primal iterate x is kept in Gibbs form while its exponents fit
    (see `mp_iteration`): plan i is diag(exp f_i) exp(-k gamma C)
    diag(exp g_i) / Z_i, with the (m, 2n) `log_factors` [f, g], each half
    max-shifted to 0, and `plans` is None.  Past that, `plans` holds x's
    dense plans.
    `x_marginals` holds x's stacked [row sums, column sums], carried from
    the step that made them, and the barycenter is kept as `bary` and in
    the log domain as `log_bary`.  `duals` stacks the main duals y and the
    extrapolation duals v as [:, 0] and [:, 1].  `average` is the certified
    output, the running average of the extrapolation point u and of v; its
    step count is k, and u's plans are formed in its buffer.  Every array
    is owned by the state alone: a step overwrites the arrays of the state
    it is given.
    """

    log_factors: np.ndarray
    plans: np.ndarray | None
    x_marginals: np.ndarray
    bary: np.ndarray
    log_bary: np.ndarray
    duals: np.ndarray  # (m, 2, 2n)
    average: RunningAverage


def mp_initial_state(prob):
    """Uniform plans, uniform barycenter, zero duals."""
    n, m = prob.n, prob.m
    bary = np.full(n, 1.0 / n)
    return MPState(
        log_factors=np.zeros((m, 2 * n)),
        plans=None,
        x_marginals=np.full((m, 2 * n), 1.0 / n),
        bary=bary,
        log_bary=np.log(bary),
        duals=np.zeros((m, 2, 2 * n)),
        average=RunningAverage(m, n),
    )


def _gibbs_marginals(K, log_factors, n):
    """Factors a, b of the plans diag(a) K diag(b) / Z, their [row, column] sums and Z."""
    e = np.exp(log_factors)
    a, b = e[..., :n], e[..., n:]
    marginals = _scaled_marginals(K, a, b)
    Z = marginals[..., :n].sum(axis=-1, keepdims=True)
    marginals /= Z
    return a, b, marginals, Z


def mp_iteration(state, cfg, prob):
    """One extragradient step, accumulated into `state` in place.

    The plan exponent -gamma (d + 2 d_inf (y_j + y_{n+k})) separates, so
    both plans of a step are x exp(-gamma C) scaled by exp(-c y[:n]) and
    exp(-c y[n:]), c = 2 d_inf gamma: the extrapolation plans u at the
    duals y, the next x at v.  In Gibbs form that is one kernel
    exp(-(k + 1) gamma C) shared by every measure, with x's factors and
    the duals' as row and column factors (`core._plan_kernel`), so the
    marginals and normalizers of both plans are two GEMMs and only u is
    formed, by the running average that adds it, before anything writes
    K.  The step on which the kernel and factors span more than
    `core.FACTOR_SPAN_MAX` takes the builder's kernel block per measure
    and forms the next x densely over it; from then on each step forms
    W = x exp(-gamma C) in x's buffer, takes both plans' marginals by
    batched mat-vecs against W and forms the next x over W.
    """
    n = prob.n
    duals, average = state.duals, state.average
    y, v = duals[:, 0], duals[:, 1]

    # extrapolation dual step at the main iterate
    residual = _residual(state.x_marginals, state.bary, prob.measures)
    np.clip(y + cfg.alpha * residual, -1.0, 1.0, out=v)

    # both plans: index 0 at y (u), index 1 at v (next x)
    scaled = (2.0 * prob.cost.d_inf * cfg.gamma_mult) * duals
    if state.plans is None:
        costs = ((average.k + 1) * cfg.gamma_mult) * prob.cost.C
        K, log_factors = _plan_kernel(costs, scaled - state.log_factors[:, None, :])
    else:
        K = state.plans.reshape(-1, n, n)
        K *= np.exp(-cfg.gamma_mult * prob.cost.C)
        log_factors = -scaled
    a, b, marginals, Z = _gibbs_marginals(K, log_factors, n)
    log_bary, bary = _log_normalize(state.log_bary + cfg.beta * duals[..., :n].sum(axis=0))

    if not math.isfinite(marginals.sum() + Z.sum() + bary.sum()):
        raise NumericalFailure("non-finite multiplicative update", iteration=average.k + 1)

    # main dual step, evaluated at the extrapolation pair
    residual_u = _residual(marginals[:, 0], bary[0], prob.measures)
    np.clip(y + cfg.alpha * residual_u, -1.0, 1.0, out=y)

    b_over_z = b / Z
    average.add(K, a[:, 0], b_over_z[:, 0], bary[0], v)
    if K.ndim == 2:
        state.log_factors = log_factors[:, 1]
    else:  # per-measure blocks or W: x is dense from here on, formed over K
        state.plans = _form_plans(K, a[:, 1], b_over_z[:, 1], K.reshape(prob.m, n * n))
    state.x_marginals = marginals[:, 1]
    state.bary = bary[1]
    state.log_bary = log_bary[1]


def run_mirror_prox(
    prob,
    eps,
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
    cfg = mp_config(prob, eps)
    total = cfg.theory_iters if max_iters is None else int(max_iters)
    report = RunReport(config={"eps": eps, **asdict(cfg), "max_iters": total})
    state = mp_initial_state(prob)
    run_certified(
        report, prob, eps, total, lambda k: mp_iteration(state, cfg, prob),
        lambda: (*state.average.pair(), None),
        log_stride=log_stride, oracle=oracle, timer=timer,
    )
    return report.final_x, report.final_y, report
