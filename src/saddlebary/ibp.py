"""Iterative Bregman projections baseline for entropic barycenters.

The classical scaling scheme: build the kernel K = exp(-C/reg) once, then
alternate per-measure column rescalings against a geometric-mean barycenter
update of the row marginals.  The naive mode works on the kernel entries in
plain double precision, which is exactly what breaks for small `reg`: K
underflows to zero away from the diagonal, scaling vectors blow up to
compensate, and the iteration degenerates into 0/0.  The run then stops with
status ``underflow-degenerate`` instead of silently emitting garbage.  The
stabilized mode performs the same iteration on log-domain potentials with
log-sum-exp reductions and always returns a finite simplex vector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, xlogy

from .core import (
    ConfigError,
    DualPoint,
    NumericalFailure,
    PrimalPoint,
)
from .report import RunReport, run_certified


@dataclass(frozen=True)
class IBPConfig:
    """Entropic regularization weight, sweep budget, and mode switch."""

    reg: float
    iters: int = 10000
    stabilized: bool = False
    # Stop once the worst per-measure l1 violation of the fixed marginals
    # drops below this (masses are 1, so absolute equals relative).
    tol: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.reg) and self.reg > 0):
            raise ConfigError("regularization must be positive and finite")
        if self.iters < 1:
            raise ConfigError("need at least one sweep")


def _normalized_pair(plans, bary, prob):
    """The certified pair of a sweep: normalized plans and barycenter, zero duals."""
    x = PrimalPoint(plans=plans / plans.sum(axis=1, keepdims=True), bary=bary / bary.sum())
    return x, DualPoint(duals=np.zeros((prob.m, 2 * prob.n)))


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

    Returns ``(bary, report)``.  On an underflow-degenerate naive run the
    barycenter is None and ``report.status`` says so; hitting the sweep cap
    returns the last iterate with ``report.status == "iteration-cap"``.
    The report logs, per recorded sweep, the exact saddle certificate of the
    current (normalized) plans paired with zero duals, and the scaling merit
    function (see :func:`_scaling_merit`) as the objective column.
    """
    report = RunReport(
        algorithm="ibp",
        config={
            "reg": cfg.reg,
            "iters": cfg.iters,
            "stabilized": cfg.stabilized,
            "tol": cfg.tol,
        },
    )
    # IBP has no gap target (eps = -inf): it stops on its marginal tolerance.
    run = functools.partial(
        run_certified, report, prob, -math.inf, cfg.iters,
        log_stride=log_stride, oracle=oracle, timer=timer,
    )
    runner = _ibp_stabilized if cfg.stabilized else _ibp_naive
    try:
        report.final_bary = runner(prob, cfg, run)
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
    v = p = None

    def step(k):
        nonlocal u, v, p
        v = Q / (u @ K)
        UKv = u * (v @ K.T)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.exp(np.log(UKv).mean(axis=0))
            u = u * p[None, :] / UKv
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v)) and np.all(np.isfinite(p))):
            raise NumericalFailure("non-finite scaling sweep", iteration=k)
        return np.abs(v * (u @ K) - Q).sum(axis=1).max() <= cfg.tol

    def certified():
        plans = u[:, :, None] * K[None, :, :] * v[:, None, :]
        if not np.all(np.isfinite(plans)) or np.any(plans.sum(axis=(1, 2)) == 0.0):
            raise NumericalFailure("transport plans underflow")
        merit = _scaling_merit(
            float((u * (v @ K.T)).sum()), float(xlogy(Q, v).sum()), cfg.reg, m
        )
        return (*_normalized_pair(plans.reshape(m, n * n), p, prob), merit)

    run(step, certified)
    return p / p.sum()


def _ibp_stabilized(prob, cfg, run):
    n, m = prob.n, prob.m
    C, Q = prob.cost.C, prob.measures
    logK = -C / cfg.reg
    with np.errstate(divide="ignore"):
        logQ = np.log(Q)

    phi = np.full((m, n), -math.log(n))
    log_p = np.full(n, -math.log(n))
    psi = log_row = None

    def step(k):
        nonlocal phi, log_p, psi, log_row
        psi = logQ - logsumexp(logK[None, :, :] + phi[:, :, None], axis=1)
        log_row = logsumexp(logK[None, :, :] + psi[:, None, :], axis=2)
        log_p = (phi + log_row).mean(axis=0)
        phi = log_p[None, :] - log_row
        col = np.exp(psi + logsumexp(logK[None, :, :] + phi[:, :, None], axis=1))
        return np.abs(col - Q).sum(axis=1).max() <= cfg.tol

    def certified():
        plans = np.exp(phi[:, :, None] + logK[None, :, :] + psi[:, None, :])
        merit = _scaling_merit(
            float(np.exp(phi + log_row).sum()),
            float((Q * np.where(Q > 0, psi, 0.0)).sum()),
            cfg.reg,
            m,
        )
        return (*_normalized_pair(plans.reshape(m, n * n), np.exp(log_p), prob), merit)

    run(step, certified)
    return np.exp(log_p - logsumexp(log_p))
