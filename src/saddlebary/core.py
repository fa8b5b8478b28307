"""Problem data and exact certificates for saddle-point Wasserstein barycenters.

The barycenter of m histograms q_1..q_m under a ground cost C is recast as a
bilinear saddle-point problem: the primal variable stacks m transport plans
(each on the simplex of dimension n^2) together with a barycenter candidate p
on the n-simplex; the dual variable stacks m box-constrained vectors that
price the marginal constraints.  The stacked constraint operator maps a plan
to its row sums minus p and its column sums, block by block.  It is never
materialized: every application is index arithmetic costing O(n^2) per
measure, which keeps a full gradient or certificate evaluation at O(m n^2).
Both solvers hold their plans in Gibbs scaling form diag(a_i) K diag(b_i)
/ Z_i; their shared arithmetic on that form (the kernel builder, which
shares one n x n kernel or past its span gives each measure its own block,
the scaled marginals, plan formation), the constraint residual, the
saddle gradient (`_gradient`, also behind the certificate), the certified
output (`RunningAverage`: its totals, step count and formation buffer),
the eps and cost checks, the clamped exp of absorbed kernel blocks
(`_clamped_exp`, also behind stabilized IBP's blocks) and `_xlogy` live here
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Simplex membership is enforced to this absolute tolerance on sums.
SIMPLEX_ATOL = 1e-12


class SaddlebaryError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SaddlebaryError):
    """An array has the wrong shape or length."""


class InvalidCostError(SaddlebaryError):
    """A ground-cost matrix has negative or non-finite entries."""


class DomainError(SaddlebaryError):
    """A value lies outside the domain of the requested operation."""


class ConfigError(SaddlebaryError):
    """Invalid solver or problem configuration."""


class UnsupportedError(SaddlebaryError):
    """The requested variant is outside the supported range."""


class ParseError(SaddlebaryError):
    """Malformed input file."""


class NumericalFailure(SaddlebaryError):
    """A solver produced a non-finite intermediate value."""

    def __init__(self, message, iteration=None):
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)
        self.iteration = iteration


def _check_eps_and_cost(eps, d_inf):
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError("eps must be positive and finite")
    if d_inf <= 0:
        raise ConfigError("cost matrix is identically zero")
    if d_inf < np.finfo(float).tiny:  # the step sizes, multiples of 1 / d_inf, overflow
        raise ConfigError(f"largest cost {d_inf!r} is subnormal; rescale it (--normalize-cost)")


def _step_count(budget):
    """A theory budget rounded up to a step count; one that is not finite is a ConfigError."""
    if not math.isfinite(budget):
        raise ConfigError(
            f"step budget {budget!r} is not finite: the cost scale over eps is too large;"
            " rescale the cost (--normalize-cost) or raise eps"
        )
    return math.ceil(budget)


def validate_histogram(weights, name="histogram"):
    """Check finiteness, nonnegativity and unit mass; returns the vector as float array."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise ShapeError(f"{name} must be a vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise DomainError(f"{name} has non-finite entries")
    if np.any(w < 0):
        raise DomainError(f"{name} has negative entries")
    total = w.sum()
    if abs(total - 1.0) > SIMPLEX_ATOL:
        raise DomainError(f"{name} mass {total!r} deviates from 1 beyond {SIMPLEX_ATOL}")
    return w


@dataclass(frozen=True)
class CostData:
    """A finite, nonnegative square cost C (copied), with d and d_inf derived from it.

    d is the row-major vectorization: entry (j, k) of C lands at j*n + k,
    fixed package-wide so that the marginal operator and its adjoint never
    disagree on plan layout.  d_inf is the largest entry.
    """

    C: np.ndarray
    d: np.ndarray = field(init=False)
    d_inf: float = field(init=False)

    def __post_init__(self):
        C = np.array(self.C, dtype=float)
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise ShapeError(f"cost matrix must be square, got shape {C.shape}")
        if not np.all(np.isfinite(C)):
            raise InvalidCostError("cost matrix has non-finite entries")
        if np.any(C < 0):
            raise InvalidCostError("cost matrix has negative entries")
        d = C.ravel()
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "d_inf", float(d.max()) if d.size else 0.0)

    @property
    def n(self):
        return self.C.shape[0]


def vectorize_cost(C):
    """Build :class:`CostData` from a finite, nonnegative square matrix (copied)."""
    return CostData(C=C)


@dataclass(frozen=True)
class BarycenterProblem:
    """m measures (copied, each checked onto the simplex) on the cost's n points; n, m derived."""

    measures: np.ndarray
    cost: CostData
    n: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        measures = np.atleast_2d(np.array(self.measures, dtype=float))
        for i, row in enumerate(measures):
            validate_histogram(row, name=f"measure {i}")
        m, n = measures.shape[:2]
        if n < 2:
            raise ConfigError("support size must be at least 2")
        if m < 1:
            raise ConfigError("need at least one measure")
        if self.cost.n != n:
            raise ShapeError("cost matrix size does not match support size")
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    @classmethod
    def create(cls, measures, cost):
        return cls(measures=measures, cost=cost)


@dataclass(frozen=True)
class PrimalPoint:
    """m transport plans (rows of `plans`, each on the n^2-simplex) and p."""

    plans: np.ndarray  # (m, n*n)
    bary: np.ndarray  # (n,)

    def __post_init__(self):
        if self.plans.ndim != 2 or self.bary.ndim != 1:
            raise ShapeError("plans must be 2-D and bary 1-D")
        n = self.bary.shape[0]
        if self.plans.shape[1] != n * n:
            raise ShapeError("plan length does not match bary length squared")


@dataclass(frozen=True)
class DualPoint:
    """m dual vectors (rows), each of length 2n with entries in [-1, 1]."""

    duals: np.ndarray  # (m, 2*n)

    def __post_init__(self):
        if self.duals.ndim != 2 or self.duals.shape[1] % 2:
            raise ShapeError("duals must be (m, 2n)")


# ---------------------------------------------------------------------------
# Matrix-free applications of the marginal operator and its adjoint
# ---------------------------------------------------------------------------


def _marginals_stack(plans, n):
    """(m, n^2) plans -> (m, 2n) stacked [row sums, column sums]."""
    P = plans.reshape(-1, n, n)
    return np.concatenate([P.sum(axis=2), P.sum(axis=1)], axis=1)


def _adjoint_stack(duals, n):
    """(m, 2n) duals -> (m, n^2) stacked adjoint applications."""
    m = duals.shape[0]
    return (duals[:, :n, None] + duals[:, None, n:]).reshape(m, n * n)


def _residual(marginals, bary, measures):
    """[row sums - p, column sums - q_i] from stacked marginals; measures = 0 applies A."""
    n = bary.shape[0]
    return np.concatenate([marginals[:, :n] - bary, marginals[:, n:] - measures], axis=1)


# Plan entries below the smallest normal double are set to exactly 0.
# Rounding pins a decaying subnormal entry where it is (5e-324 * 0.94 rounds
# back to 5e-324), and arithmetic on subnormals runs many times slower.  In
# a unit-mass plan such entries are below 2^-1022, where exp underflows to 0
# or to a subnormal anyway.
_PLAN_FLOOR = np.finfo(float).tiny


# A kernel is shared by every plan while its exponent span plus the widest
# plan's row and column factor spans stays below this.  exp underflows near
# -708, so no product of a kernel entry and two factors can underflow.
FACTOR_SPAN_MAX = 700.0


def _plan_kernel(costs, potentials):
    """Kernel and log row/column factors of the plans exp(-(costs + row (+) col)).

    `costs` is one (n, n) array for every measure or an (m, n, n) stack, and
    is overwritten; `potentials` holds each plan's [row, column] potentials,
    (m, 2n) or (m, s, 2n) for s plans per measure.  Within the span (the
    costs' span plus the widest plan's two potential spans at most
    FACTOR_SPAN_MAX) the kernel is exp(min - costs), in the buffer of
    `costs`, and the log factors min - potentials of each half.  Past it,
    the kernel is log-stabilized scaling's absorbed kernel: a block
    exp(min_i - E_i) per measure, E_i the exponents of its first plan,
    entries more than FACTOR_SPAN_MAX below min_i exactly 0, and the log
    factors are relative to that first plan.
    """
    low = costs.min()
    n = costs.shape[-1]
    halves = potentials.reshape(potentials.shape[:-1] + (2, n))
    log_factors = halves.min(axis=-1, keepdims=True) - halves
    span = costs.max() - low - log_factors.min(axis=-1).sum(axis=-1).min()
    if span <= FACTOR_SPAN_MAX:
        kernel = np.subtract(low, costs, out=costs)
        return np.exp(kernel, out=kernel), log_factors.reshape(potentials.shape)
    plans = potentials.reshape(potentials.shape[0], -1, 2 * n)
    first = plans[:, 0]
    blocks = costs + first[:, :n, None] + first[:, None, n:]
    np.subtract(blocks.min(axis=(1, 2), keepdims=True), blocks, out=blocks)
    return _clamped_exp(blocks), (first[:, None] - plans).reshape(potentials.shape)


def _clamped_exp(exponents):
    """exp of `exponents` in their buffer, entries below -FACTOR_SPAN_MAX exactly 0; returns it.

    The exponents are clamped at -FACTOR_SPAN_MAX before the exp, since
    np.exp is slow where it underflows, and the clamped entries zeroed
    after.
    """
    deep = exponents < -FACTOR_SPAN_MAX
    np.exp(np.maximum(exponents, -FACTOR_SPAN_MAX, out=exponents), out=exponents)
    np.copyto(exponents, 0.0, where=deep)
    return exponents


def _scaled_marginals(K, a, b):
    """Stacked [row sums, column sums] of the unnormalized plans diag(a_i) K diag(b_i).

    K is one (n, n) kernel for every measure (two GEMMs) or an (m, n, n)
    stack (batched mat-vecs); a and b are (m, s, n) for s plans per measure,
    or (m, n) against a shared kernel.
    """
    n = a.shape[-1]
    marginals = np.empty(a.shape[:-1] + (2 * n,))
    np.multiply(a, b @ np.swapaxes(K, -1, -2), out=marginals[..., :n])
    np.multiply(b, a @ K, out=marginals[..., n:])
    return marginals


def _form_plans(K, a, b_over_z, out):
    """Plans diag(a_i) K diag(b_over_z_i) into the (m, n^2) buffer `out`; returns `out`.

    K may be `out` itself, viewed as (m, n, n).  Entries below `_PLAN_FLOOR`
    are set to exactly 0.
    """
    m, n = a.shape
    P = out.reshape(m, n, n)
    np.multiply(K, a[:, :, None], out=P)
    P *= b_over_z[:, None, :]
    _floor(P)
    return out


def _floor(P):
    """Set the entries of P below `_PLAN_FLOOR` to exactly 0, in place; returns P."""
    np.copyto(P, 0.0, where=P < _PLAN_FLOOR)
    return P


class RunningAverage:
    """The certified output of both solvers: the average of their per-step outputs.

    Holds the totals `plans` (m, n^2), `bary` (n) and `duals` (m, 2n) over
    `k` steps, and `step_plans`, the buffer each step's plans are formed in.
    """

    def __init__(self, m, n):
        self.plans = np.zeros((m, n * n))
        self.bary = np.zeros(n)
        self.duals = np.zeros((m, 2 * n))
        self.step_plans = np.empty((m, n * n))
        self.k = 0

    def add(self, K, a, b_over_z, bary, duals):
        """Add one step: plans diag(a_i) K diag(b_over_z_i), formed in `step_plans`, and p, y."""
        self.plans += _form_plans(K, a, b_over_z, self.step_plans)
        self.bary += bary
        self.duals += duals
        self.k += 1

    def pair(self):
        """The totals over max(k, 1) as a new primal/dual pair: no array is the average's own."""
        k = max(self.k, 1)
        return (
            PrimalPoint(plans=self.plans / k, bary=self.bary / k),
            DualPoint(duals=self.duals / k),
        )


def _log_normalize(logw):
    """Normalize log weights onto the simplex along the last axis.

    Subtracts the max before exponentiating, then renormalizes the linear
    weights explicitly so their sum is exactly representable as 1 up to one
    rounding.  Returns (normalized log point, simplex point).
    """
    shift = logw.max(axis=-1, keepdims=True)
    w = np.exp(logw - shift)
    total = w.sum(axis=-1, keepdims=True)
    return logw - (shift + np.log(total)), w / total


def _xlogy(w, v):
    """w * log(v) for w >= 0, exactly 0 where w is 0 (so 0 log 0 = 0)."""
    return w * np.log(v, out=np.zeros(np.broadcast(w, v).shape), where=w > 0)


# ---------------------------------------------------------------------------
# Saddle gradient, duality-gap certificate
# ---------------------------------------------------------------------------


def _gradient(duals, residual, d_inf):
    """The saddle gradient at duals and a constraint residual, in three blocks.

    Returns (potentials, g_bary, g_dual): the plan block is C / m plus the
    adjoint of the (m, 2n) potentials (2 d_inf / m) y, g_bary is the
    barycenter block and g_dual the negated dual gradient, so both sides
    are *descended*.  The objective being bilinear, the primal blocks
    depend on the duals alone and the dual block on the residual alone.
    """
    m, n = duals.shape[0], duals.shape[1] // 2
    scale = 2.0 * d_inf / m
    return scale * duals, -scale * duals[:, :n].sum(axis=0), -scale * residual


def certificate_values(x, y, prob):
    """Best dual response value and best primal response value at (x, y).

    The first component maximizes the objective over the dual box at the
    given primal point (the maximizer is the sign of the constraint
    residual, so the value involves its l1 norm).  The second minimizes over
    the product of simplices at the given dual point (a linear function
    minimized block by block at the smallest coefficient).  The difference
    of the two is the exact duality gap.
    """
    cost, m = prob.cost, prob.m
    residual = _residual(_marginals_stack(x.plans, prob.n), x.bary, prob.measures)
    primal_value = (
        float(np.dot(x.plans.sum(axis=0), cost.d))
        + 2.0 * cost.d_inf * float(np.abs(residual).sum())
    ) / m
    _, g_bary, _ = _gradient(y.duals, residual, cost.d_inf)
    # (d + 2 d_inf adj(y)) / m, formed in one buffer
    g_plans = _adjoint_stack(y.duals, prob.n)
    g_plans *= 2.0 * cost.d_inf
    g_plans += cost.d
    g_plans /= m
    offset = (2.0 * cost.d_inf / m) * float(np.sum(prob.measures * y.duals[:, prob.n :]))
    dual_value = float(g_plans.min(axis=1).sum()) + float(g_bary.min()) - offset
    return primal_value, dual_value


def duality_gap(x, y, prob):
    """Exact duality gap of the pair: always nonnegative up to roundoff."""
    primal_value, dual_value = certificate_values(x, y, prob)
    return primal_value - dual_value

