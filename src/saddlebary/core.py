"""Problem data and exact certificates for saddle-point Wasserstein barycenters.

The barycenter of m histograms q_1..q_m under a ground cost C is recast as a
bilinear saddle-point problem: the primal variable stacks m transport plans
(each on the simplex of dimension n^2) together with a barycenter candidate p
on the n-simplex; the dual variable stacks m box-constrained vectors that
price the marginal constraints.  The stacked constraint operator maps a plan
to its row sums minus p and its column sums, block by block.  It is never
materialized: every application is index arithmetic costing O(n^2) per
measure, which keeps a full gradient or certificate evaluation at O(m n^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

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
    """Ground cost matrix C, its row-major vectorization d, and max entry."""

    C: np.ndarray
    d: np.ndarray
    d_inf: float

    def __post_init__(self):
        n = self.C.shape[0]
        if self.C.shape != (n, n):
            raise ShapeError(f"cost matrix must be square, got {self.C.shape}")
        if self.d.shape != (n * n,):
            raise ShapeError("vectorized cost has wrong length")

    @property
    def n(self):
        return self.C.shape[0]

    def scaled(self, factor):
        """Cost rescaled by a positive factor (same support geometry)."""
        return vectorize_cost(self.C * factor)


def vectorize_cost(C):
    """Build :class:`CostData` from a finite, nonnegative square matrix.

    The vectorization is row-major: entry (j, k) of C lands at position
    j*n + k.  This convention is fixed package-wide so that the marginal
    operator and its adjoint never disagree on plan layout.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ShapeError(f"cost matrix must be square, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise InvalidCostError("cost matrix has non-finite entries")
    if np.any(C < 0):
        raise InvalidCostError("cost matrix has negative entries")
    d = C.ravel().copy()
    return CostData(C=C.copy(), d=d, d_inf=float(d.max()) if d.size else 0.0)


@dataclass(frozen=True)
class BarycenterProblem:
    """m measures on n shared support points plus the ground cost."""

    n: int
    m: int
    measures: np.ndarray  # (m, n), each row on the simplex
    cost: CostData

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("support size must be at least 2")
        if self.m < 1:
            raise ConfigError("need at least one measure")
        if self.measures.shape != (self.m, self.n):
            raise ShapeError(
                f"measures must have shape {(self.m, self.n)}, got {self.measures.shape}"
            )
        if self.cost.n != self.n:
            raise ShapeError("cost matrix size does not match support size")

    @classmethod
    def create(cls, measures, cost):
        measures = np.atleast_2d(np.asarray(measures, dtype=float))
        for i, row in enumerate(measures):
            validate_histogram(row, name=f"measure {i}")
        return cls(n=measures.shape[1], m=measures.shape[0], measures=measures.copy(), cost=cost)

    def with_cost(self, cost):
        return BarycenterProblem(n=self.n, m=self.m, measures=self.measures, cost=cost)


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

    @property
    def n(self):
        return self.bary.shape[0]

    @property
    def m(self):
        return self.plans.shape[0]

    @classmethod
    def validated(cls, plans, bary):
        plans = np.atleast_2d(np.asarray(plans, dtype=float))
        bary = validate_histogram(bary, name="barycenter")
        for i, row in enumerate(plans):
            validate_histogram(row, name=f"plan {i}")
        return cls(plans=plans, bary=bary)

    def as_vector(self):
        return np.concatenate([self.plans.ravel(), self.bary])


@dataclass(frozen=True)
class DualPoint:
    """m dual vectors (rows), each of length 2n with entries in [-1, 1]."""

    duals: np.ndarray  # (m, 2*n)

    def __post_init__(self):
        if self.duals.ndim != 2 or self.duals.shape[1] % 2:
            raise ShapeError("duals must be (m, 2n)")

    @property
    def n(self):
        return self.duals.shape[1] // 2

    @property
    def m(self):
        return self.duals.shape[0]

    @classmethod
    def validated(cls, duals):
        duals = np.atleast_2d(np.asarray(duals, dtype=float))
        if np.any(np.abs(duals) > 1.0):
            raise DomainError("dual entries must lie in [-1, 1]")
        return cls(duals=duals)

    def as_vector(self):
        return self.duals.ravel()


@dataclass(frozen=True)
class ProxGeometry:
    """Entropy/Euclidean prox setup: squared radii and their inverse weights."""

    rx_sq: float
    ry_sq: float
    a1: float
    a2: float


def prox_geometry(n, m):
    """Geometry constants for the product of simplices times the dual box.

    The primal reference function is the sum of plan entropies plus m times
    the barycenter entropy; its range over the feasible set is 3 m ln n.  The
    dual reference is the half squared norm, with range m n over the box.
    """
    rx_sq = 3.0 * m * math.log(n)
    ry_sq = float(m * n)
    return ProxGeometry(rx_sq=rx_sq, ry_sq=ry_sq, a1=1.0 / rx_sq, a2=1.0 / ry_sq)


def uniform_primal(n, m):
    """Uniform plans and uniform barycenter: the canonical starting point."""
    plans = np.full((m, n * n), 1.0 / (n * n))
    bary = np.full(n, 1.0 / n)
    return PrimalPoint(plans=plans, bary=bary)


def zero_dual(n, m):
    return DualPoint(duals=np.zeros((m, 2 * n)))


# ---------------------------------------------------------------------------
# Matrix-free applications of the marginal operator and its adjoint
# ---------------------------------------------------------------------------


def apply_marginals(x_i):
    """Row sums followed by column sums of a vectorized plan, in O(n^2)."""
    x_i = np.asarray(x_i, dtype=float)
    n = math.isqrt(x_i.shape[-1])
    if x_i.ndim != 1 or n * n != x_i.shape[0]:
        raise ShapeError(f"plan length {x_i.shape} is not a perfect square vector")
    X = x_i.reshape(n, n)
    return np.concatenate([X.sum(axis=1), X.sum(axis=0)])


def apply_marginals_adjoint(y_i):
    """Adjoint of :func:`apply_marginals`: entry (j, k) gets y[j] + y[n+k]."""
    y_i = np.asarray(y_i, dtype=float)
    if y_i.ndim != 1 or y_i.shape[0] % 2:
        raise ShapeError(f"dual vector must have even length, got {y_i.shape}")
    n = y_i.shape[0] // 2
    return (y_i[:n, None] + y_i[None, n:]).ravel()


def _marginals_stack(plans, n):
    """(m, n^2) plans -> (m, 2n) stacked [row sums, column sums]."""
    P = plans.reshape(-1, n, n)
    return np.concatenate([P.sum(axis=2), P.sum(axis=1)], axis=1)


def _adjoint_stack(duals, n):
    """(m, 2n) duals -> (m, n^2) stacked adjoint applications."""
    m = duals.shape[0]
    return (duals[:, :n, None] + duals[:, None, n:]).reshape(m, n * n)


def _constraint_blocks(plans, bary):
    """Per-measure constraint residual blocks: [row sums - p, column sums]."""
    n = bary.shape[0]
    blocks = _marginals_stack(plans, n)
    blocks[:, :n] -= bary
    return blocks


def _target_blocks(measures):
    """The constant offset blocks [0, q_i] the duals are priced against."""
    m, n = measures.shape
    c = np.zeros((m, 2 * n))
    c[:, n:] = measures
    return c


def big_operator_apply(x):
    """Stacked constraint operator applied to a primal point, flattened.

    Block i equals [row sums of plan i minus bary, column sums of plan i].
    A plan whose row sums match the barycenter therefore zeroes the first
    half of its block.
    """
    return _constraint_blocks(x.plans, x.bary).ravel()


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


# ---------------------------------------------------------------------------
# Saddle objective, gradient operator, duality-gap certificate
# ---------------------------------------------------------------------------


def objective_f(x, y, prob):
    """Bilinear saddle objective at a primal/dual pair.

    Averages over measures the plan costs plus the penalty pairing of the
    duals with the constraint residuals.
    """
    cost = prob.cost
    lin = float(np.dot(x.plans.sum(axis=0), cost.d))
    residual = _constraint_blocks(x.plans, x.bary) - _target_blocks(prob.measures)
    bil = float(np.sum(y.duals * residual))
    return (lin + 2.0 * cost.d_inf * bil) / prob.m


def _grad_blocks(point_blocks, prob):
    """Gradient operator in block form.

    `point_blocks` is the (plans, bary, duals) triple.  Returns (g_plans,
    g_bary, g_dual): the primal gradient on the plan blocks and the
    barycenter block, and the negated dual gradient (so that both primal and
    dual sides are *descended*).  Only the dual part depends on the primal
    point and vice versa, the objective being bilinear.
    """
    plans, bary, duals = point_blocks
    cost, m, n = prob.cost, prob.m, prob.n
    g_plans = (cost.d[None, :] + 2.0 * cost.d_inf * _adjoint_stack(duals, n)) / m
    g_bary = -(2.0 * cost.d_inf / m) * duals[:, :n].sum(axis=0)
    g_dual = (2.0 * cost.d_inf / m) * (
        _target_blocks(prob.measures) - _constraint_blocks(plans, bary)
    )
    return g_plans, g_bary, g_dual


def gradient_operator(x, y, prob):
    """Monotone gradient operator of the saddle objective, flattened.

    The primal part is the gradient in the plans/barycenter, the dual part
    is minus the gradient in the duals; descending both drives the pair
    toward the saddle.
    """
    g_plans, g_bary, g_dual = _grad_blocks((x.plans, x.bary, y.duals), prob)
    return np.concatenate([g_plans.ravel(), g_bary]), g_dual.ravel()


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
    residual = _constraint_blocks(x.plans, x.bary) - _target_blocks(prob.measures)
    primal_value = (
        float(np.dot(x.plans.sum(axis=0), cost.d))
        + 2.0 * cost.d_inf * float(np.abs(residual).sum())
    ) / m
    g_plans, g_bary, _ = _grad_blocks((x.plans, x.bary, y.duals), prob)
    offset = (2.0 * cost.d_inf / m) * float(np.sum(prob.measures * y.duals[:, prob.n :]))
    dual_value = float(g_plans.min(axis=1).sum()) + float(g_bary.min()) - offset
    return primal_value, dual_value


def duality_gap(x, y, prob):
    """Exact duality gap of the pair: always nonnegative up to roundoff."""
    primal_value, dual_value = certificate_values(x, y, prob)
    return primal_value - dual_value


# ---------------------------------------------------------------------------
# Bregman geometry
# ---------------------------------------------------------------------------


def _generalized_kl(a, b, name):
    if np.any((b == 0) & (a > 0)):
        raise DomainError(f"{name}: reference point vanishes where the point has mass")
    return float(xlogy(a, a).sum() - xlogy(a, b).sum() - a.sum() + b.sum())


def bregman_divergences(z, z_prime, geom):
    """Primal and dual Bregman divergences between two primal/dual pairs.

    The primal part sums generalized KL divergences of the plans plus m
    times the barycenter divergence; the dual part is the Euclidean half
    squared distance.  The combined solver divergence weights these by
    `geom.a1` and `geom.a2` respectively.
    """
    x, y = z
    xp, yp = z_prime
    bx = _generalized_kl(x.plans, xp.plans, "plans")
    bx += x.m * _generalized_kl(x.bary, xp.bary, "bary")
    by = 0.5 * float(np.sum((y.duals - yp.duals) ** 2))
    return bx, by
