"""Exact one-dimensional transport oracles on a shared grid.

For measures on the line with a convex ground cost the monotone (north-west
corner) coupling is optimal, so exact transport costs come from a single
merge of the two cumulative distributions.  For squared distance the
barycenter is likewise exact: it is the pushforward of the uniform measure
under the average of the quantile functions.  These oracles certify the
saddle-point solvers on grid-supported inputs without any LP machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ShapeError, UnsupportedError, vectorize_cost

# Convex powers for which the monotone coupling is provably optimal here.
SUPPORTED_POWERS = (1.0, 2.0)


@dataclass(frozen=True)
class Grid1D:
    """Strictly increasing support points and the cost exponent."""

    points: np.ndarray
    power: float = 2.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.shape[0] < 1:
            raise ShapeError("grid points must be a nonempty vector")
        if np.any(np.diff(pts) <= 0):
            raise ShapeError("grid points must be strictly increasing")
        if self.power < 1:
            raise UnsupportedError("cost exponent must be at least 1")
        object.__setattr__(self, "points", pts)

    @property
    def n(self):
        return self.points.shape[0]


def grid_cost(grid, normalize=False):
    """Ground cost |t_j - t_k|^power on the grid as :class:`CostData`."""
    diff = np.abs(grid.points[:, None] - grid.points[None, :])
    C = diff**grid.power
    if normalize:
        top = C.max()
        if top <= 0:
            raise UnsupportedError("cannot normalize an all-zero cost")
        C = C / top
    return vectorize_cost(C)


def _quantile_segments(measures):
    """Merge the cumulative distributions of the rows of `measures`.

    Splits [0, 1] at the union of all cumulative levels and returns the
    segment widths plus, per row, the quantile on each segment: the first
    support index whose cumulative mass reaches the segment (probed at its
    midpoint, so zero-mass entries never carry a segment).
    """
    cums = np.minimum(np.cumsum(measures, axis=1), 1.0)
    cums[:, -1] = 1.0
    levels = np.unique(np.concatenate([cums.ravel(), [0.0]]))
    mids = 0.5 * (levels[:-1] + levels[1:])
    indices = np.stack([np.searchsorted(c, mids, side="left") for c in cums])
    return np.diff(levels), indices


def ot_1d_monotone(p, q, grid):
    """Exact transport cost between two histograms on the grid.

    The monotone coupling, optimal for the supported convex powers, pairs
    the two quantile functions: one merge of the two cumulative
    distributions prices every segment of [0, 1] at the distance between
    the points the two quantiles pick there.
    """
    if grid.power not in SUPPORTED_POWERS:
        raise UnsupportedError(f"monotone coupling oracle supports powers {SUPPORTED_POWERS}")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = grid.n
    if p.shape != (n,) or q.shape != (n,):
        raise ShapeError("histograms must match the grid length")
    widths, (ip, iq) = _quantile_segments(np.stack([p, q]))
    pts = grid.points
    return float(np.dot(widths, np.abs(pts[ip] - pts[iq]) ** grid.power))


def barycenter_1d_quantile(measures, grid):
    """Exact squared-distance barycenter via averaged quantile functions.

    The average quantile function is a step function over the union of all
    cumulative levels; each mass atom sits at the mean of the per-measure
    quantiles on its level segment.  Atoms are rebinned to the nearest grid
    point (ties to the left) so the result lives on the same support.
    """
    if grid.power != 2.0:
        raise UnsupportedError("quantile averaging is exact only for squared distance")
    measures = np.atleast_2d(np.asarray(measures, dtype=float))
    n = grid.n
    if measures.shape[1] != n:
        raise ShapeError("measures must match the grid length")
    widths, indices = _quantile_segments(measures)
    positions = grid.points[indices].mean(axis=0)

    right = np.searchsorted(grid.points, positions).clip(1, n - 1)
    left = right - 1
    pick_left = positions - grid.points[left] <= grid.points[right] - positions
    targets = np.where(pick_left, left, right)
    bary = np.zeros(n)
    np.add.at(bary, targets, widths)
    return bary / bary.sum()


def optimality_gap(p, p_star, prob, grid):
    """Average exact transport cost of p to the measures, minus that of p_star."""
    p = np.asarray(p, dtype=float)
    p_star = np.asarray(p_star, dtype=float)
    if p.shape != (grid.n,) or p_star.shape != (grid.n,):
        raise ShapeError("histograms must match the grid length")
    value = sum(ot_1d_monotone(p, q, grid) for q in prob.measures)
    best = sum(ot_1d_monotone(p_star, q, grid) for q in prob.measures)
    return (value - best) / prob.m
