"""Iterative Bregman projections baseline for entropic barycenters.

The classical scaling scheme: build the kernel K = exp(-C/reg) once, then
alternate per-measure column rescalings against a geometric-mean barycenter
update of the row marginals.  The naive mode works on the kernel entries in
plain double precision, which is exactly what breaks for small `reg`: K
underflows to zero away from the diagonal, scaling vectors blow up to
compensate, and the iteration degenerates into 0/0.  The run then stops with
status ``underflow-degenerate`` instead of silently emitting garbage.  Its
certified plans diag(u_i) K diag(v_i) are formed by the Gibbs-form helper
the saddle solvers share, which sets subnormal entries to 0.  The
stabilized mode runs the same iteration by log-stabilized scaling with
absorbed kernels (Schmitzer): each measure keeps log potentials f_i and g_i
and one kernel block exp(-C/reg + f_i (+) g_i), a sweep is two batched
mat-vecs of scalings near 1 with the blocks, and a scaling that leaves
e^(+-SCALING_LOG_BOUND) is folded into its potential and the blocks are
rebuilt.  Either mode rejects a reg at which -C / reg overflows.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    FACTOR_SPAN_MAX,
    ConfigError,
    DualPoint,
    NumericalFailure,
    PrimalPoint,
    _clamped_exp,
    _floor,
    _form_plans,
    _xlogy,
)
from .report import RunReport, run_certified

# The logs of stabilized scalings stay within [-B, B], B = SCALING_LOG_BOUND;
# past it they are folded into the potentials.  A block entry is then at most e^B
# (a plan entry is at most 1), so no product of an entry and a scaling
# leaves the exp range, and the entries the blocks' clamp drops (below
# e^-FACTOR_SPAN_MAX) add at most n e^(B - FACTOR_SPAN_MAX) to a mat-vec
# entry: a relative n e^-B to one of at least REDUCTION_FLOOR = e^-2B.  A
# smaller entry is taken exactly by log-sum-exp (see `_log_reduction`).
SCALING_LOG_BOUND = FACTOR_SPAN_MAX / 4
REDUCTION_FLOOR = math.exp(-2 * SCALING_LOG_BOUND)

# A run stops once the worst per-measure l1 violation of the fixed marginals
# drops below this (masses are 1, so absolute equals relative).
TOL = 1e-6


@dataclass(frozen=True)
class IBPConfig:
    """Entropic regularization weight, sweep budget, and mode switch."""

    reg: float
    iters: int = 10000
    stabilized: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.reg) and self.reg > 0):
            raise ConfigError("regularization must be positive and finite")
        if not (isinstance(self.iters, numbers.Integral) and self.iters >= 1):
            raise ConfigError(f"need a whole number of sweeps, at least one: got {self.iters!r}")


def _normalized_pair(plans, bary, prob):
    """The certified pair of a sweep: normalized plans and barycenter, zero duals."""
    x = PrimalPoint(plans=plans / plans.sum(axis=1, keepdims=True), bary=bary / bary.sum())
    return x, DualPoint(duals=np.zeros((prob.m, 2 * prob.n)))


def _log_formed_pair(logK, log_rows, log_cols, log_p, prob):
    """`_normalized_pair` of plans and a barycenter given by their logs.

    Plan i is exp(logK + log_rows_i (+) log_cols_i) and the barycenter
    exp(log_p), whose mass is every plan's.  Both are formed less that log
    mass, so a pair whose mass underflows is normalized all the same.
    """
    top = log_p.max()
    log_mass = top + math.log(np.exp(log_p - top).sum())
    plans = np.exp(logK + (log_rows - log_mass)[:, :, None] + log_cols[:, None, :])
    return _normalized_pair(_floor(plans).reshape(len(plans), -1), np.exp(log_p - log_mass), prob)


def _scaling_merit(mass_total, log_v_paired, reg, m):
    """Merit function the scaling sweeps minimize block-exactly.

    Equals the total mass of the scaled plans minus the pairing of the
    measures with their log scalings, times reg/m: the regularized dual
    objective (up to an additive constant).  Both half-updates are exact
    block minimizations of it, so it is non-increasing sweep over sweep.
    """
    return (reg / m) * (mass_total - log_v_paired)


def ibp_barycenter(prob, cfg, log_stride=None, oracle=None, timer=None):
    """Entropic barycenter via iterative Bregman projections.

    Returns ``(bary, report)``, where ``bary`` is the certified
    ``report.final_x.bary``.  On an underflow-degenerate naive run the
    barycenter is None and ``report.status`` says so; hitting the sweep cap
    returns the last iterate with ``report.status == "iteration-cap"``.
    A reg at which -C / reg overflows is a ConfigError in either mode.
    The report logs, per recorded sweep, the exact saddle certificate of the
    current (normalized) plans paired with zero duals, and the scaling merit
    function (see :func:`_scaling_merit`) as the objective column.
    """
    d_inf = prob.cost.d_inf
    if not math.isfinite(d_inf / cfg.reg):
        raise ConfigError(
            f"largest cost {d_inf!r} over reg {cfg.reg!r} overflows;"
            " rescale the cost (--normalize-cost) or raise reg"
        )
    report = RunReport(config={**asdict(cfg), "tol": TOL})
    # IBP has no gap target (eps = -inf): it stops on its marginal tolerance.
    run = functools.partial(
        run_certified, report, prob, -math.inf, cfg.iters,
        log_stride=log_stride, oracle=oracle, timer=timer,
    )
    runner = _ibp_stabilized if cfg.stabilized else _ibp_naive
    try:
        runner(prob, cfg, run)
    except NumericalFailure:
        # The naive mode's documented outcome at small reg, not an error.
        report.status = "underflow-degenerate"
        return None, report
    return report.final_bary, report


def _ibp_naive(prob, cfg, run):
    n, m = prob.n, prob.m
    C, Q = prob.cost.C, prob.measures
    K = np.exp(-C / cfg.reg)
    if np.any(K.sum(axis=1) == 0.0):
        raise NumericalFailure("kernel row underflows to zero")

    u = np.full((m, n), 1.0 / n)
    uK = u @ K
    v = p = None

    def step(k):
        nonlocal u, uK, v, p
        v = Q / uK
        UKv = u * (v @ K.T)
        # non-finite scalings are the underflow the check below reports
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            p = np.exp(np.log(UKv).mean(axis=0))
            u = u * p[None, :] / UKv
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v)) and np.all(np.isfinite(p))):
            raise NumericalFailure("non-finite scaling sweep", iteration=k)
        # the next sweep's column reduction doubles as this sweep's stop test
        uK = u @ K
        return np.abs(v * uK - Q).sum(axis=1).max() <= TOL

    def certified():
        plans = _form_plans(K, u, v, np.empty((m, n * n)))
        if not np.all(np.isfinite(plans)) or np.any(plans.sum(axis=1) == 0.0):
            raise NumericalFailure("transport plans underflow")
        if np.any(v[Q > 0] == 0.0):
            # the merit's log v is -inf there
            raise NumericalFailure("column scaling underflows under positive mass")
        merit = _scaling_merit(
            float((u * (v @ K.T)).sum()), float(_xlogy(Q, v).sum()), cfg.reg, m
        )
        return (*_normalized_pair(plans, p, prob), merit)

    run(step, certified)


def _log_reduction(sums, where, exponents):
    """log of the batched mat-vec entries `sums` where `where` holds, -inf elsewhere.

    An entry below REDUCTION_FLOOR may have lost its terms to the blocks'
    clamp or to underflow, so its log is taken exactly: the log-sum-exp of
    the row of block exponents plus log scalings that `exponents(i, j)`
    returns for the indices of those entries.
    """
    out = np.full(sums.shape, -np.inf)
    low = where & (sums < REDUCTION_FLOOR)
    np.log(sums, out=out, where=where & ~low)
    if low.any():
        i, j = np.nonzero(low)
        e = exponents(i, j)
        top = e.max(axis=1)
        out[i, j] = np.log(np.exp(e - top[:, None]).sum(axis=1)) + top
    return out


def _ibp_stabilized(prob, cfg, run):
    n, m = prob.n, prob.m
    logK = -prob.cost.C / cfg.reg
    Q = prob.measures
    support = Q > 0
    logQ = np.log(Q, out=np.full((m, n), -np.inf), where=support)

    # The total log scalings are f + log_u and g + log_v (psi holds the
    # latter on the support of Q).  g starts as the c-transform of f, so
    # every column of a block peaks at 1; a column of zero mass has g = -inf
    # and no entries.  The scalings are updated in log form: one sweep can
    # move one far past e^B (log u by about 500 at reg 1e-3 on a zero-mass
    # input) before it is folded into its potential.
    f = np.full((m, n), -math.log(n))
    g = np.where(support, -(logK + f[:, :, None]).max(axis=1), -np.inf)
    K = np.empty((m, n, n))

    def rebuild():
        np.add(logK, f[:, :, None], out=K)
        _clamped_exp(np.add(K, g[:, None, :], out=K))

    rebuild()
    log_u, u = np.zeros((m, n)), np.ones((m, n))
    col = (u[:, None, :] @ K)[:, 0]
    log_v = v = psi = log_p = None

    def step(k):
        nonlocal log_u, u, log_v, v, col, psi, log_p
        log_col = _log_reduction(
            col, support, lambda i, l: logK[:, l].T + (f + log_u)[i] + g[i, l, None]
        )
        log_v = np.subtract(logQ, log_col, out=np.full((m, n), -np.inf), where=support)
        psi = np.add(g, log_v, out=np.zeros((m, n)), where=support)
        if np.abs(log_v, out=np.zeros((m, n)), where=support).max() > SCALING_LOG_BOUND:
            np.copyto(g, psi, where=support)
            rebuild()
            log_v = np.where(support, 0.0, -np.inf)
        v = np.exp(log_v)
        kv = (K @ v[:, :, None])[:, :, 0]
        log_kv = _log_reduction(kv, True, lambda i, j: logK[j] + (g + log_v)[i] + f[i, j, None])
        log_p = (log_u + log_kv).mean(axis=0)
        log_u = log_p - log_kv
        if np.abs(log_u).max() > SCALING_LOG_BOUND:
            np.add(f, log_u, out=f)
            rebuild()
            log_u = np.zeros((m, n))
        u = np.exp(log_u)
        # the next sweep's column reduction doubles as this sweep's stop test
        col = (u[:, None, :] @ K)[:, 0]
        return np.abs(v * col - Q).sum(axis=1).max() <= TOL

    def certified():
        p = np.exp(log_p)
        # every plan's row sums are p after the barycenter half-update
        mass = float(p.sum())
        merit = _scaling_merit(m * mass, float((Q * psi).sum()), cfg.reg, m)
        if mass >= REDUCTION_FLOOR:
            plans = _form_plans(K, u, v, np.empty((m, n * n)))
            return (*_normalized_pair(plans, p, prob), merit)
        # a mass this small may have underflowed, and the plans with it
        return (*_log_formed_pair(logK, f + log_u, g + log_v, log_p, prob), merit)

    run(step, certified)
