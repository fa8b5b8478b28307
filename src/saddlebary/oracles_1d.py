"""Exact one-dimensional transport oracles on a shared grid, for squared distance.

On the line the monotone (north-west corner) coupling is optimal for the
squared-distance cost, so exact transport costs come from a single merge
of the cumulative distributions.  The barycenter is likewise exact: it is
the pushforward of the uniform measure under the average of the quantile
functions.  These oracles certify the saddle-point solvers on
grid-supported inputs without any LP machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, CostData, DomainError, ShapeError


@dataclass(frozen=True)
class Grid1D:
    """Strictly increasing support points; the ground cost is squared distance."""

    points: np.ndarray
    power: float = 2.0  # only perfbench/worker.py passes it; ROADMAP item 5 deletes it

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.shape[0] < 1:
            raise ShapeError("grid points must be a nonempty vector")
        if not np.all(np.isfinite(pts)):
            raise DomainError("grid points must be finite")
        if np.any(np.diff(pts) <= 0):
            raise ShapeError("grid points must be strictly increasing")
        if self.power != 2.0:
            raise ConfigError(f"the grid cost is squared distance: power {self.power!r} is not 2.0")
        object.__setattr__(self, "points", pts)

    @property
    def n(self):
        return self.points.shape[0]


def grid_cost(grid):
    """Ground cost |t_j - t_k|^2 on the grid as :class:`CostData`.

    A cost that overflows is left non-finite for :class:`CostData` to
    reject as an :class:`InvalidCostError`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        C = np.square(grid.points[:, None] - grid.points[None, :])
    return CostData(C=C)


def _quantile_segments(measures):
    """Merge the cumulative distributions of the rows of `measures`.

    Splits [0, 1] at the union of all cumulative levels and returns the
    segment widths plus, per row, the quantile on each segment: the first
    support index whose cumulative mass reaches the segment (probed at its
    midpoint, so zero-mass entries never carry a segment).  The levels are
    merged by a sort and an adjacent != mask, the steps of np.unique, which
    on first use imports numpy.ma.
    """
    cums = np.minimum(np.cumsum(measures, axis=1), 1.0)
    cums[:, -1] = 1.0
    levels = np.sort(np.concatenate([cums.ravel(), [0.0]]))
    levels = levels[np.concatenate([[True], levels[1:] != levels[:-1]])]
    mids = 0.5 * (levels[:-1] + levels[1:])
    indices = np.stack([np.searchsorted(c, mids, side="left") for c in cums])
    return np.diff(levels), indices


def barycenter_1d_quantile(measures, grid):
    """Exact squared-distance barycenter via averaged quantile functions.

    The average quantile function is a step function over the union of all
    cumulative levels; each mass atom sits at the mean of the per-measure
    quantiles on its level segment.  Atoms are rebinned to the nearest grid
    point (ties to the left) so the result lives on the same support.  This
    is optimal among grid histograms: the average cost is the integral over
    [0, 1] of (1/m) sum_i |t - x_i|^2 with t and x_i the quantiles of p and
    q_i, on each segment sum_i |t - x_i|^2 = m |t - mean(x)|^2 + const, and
    nearest-point rounding minimizes every segment while staying monotone.
    """
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
    """Average exact transport cost of p to the measures, minus that of p_star.

    One merge of all m + 2 cumulative distributions prices every pair on a
    common refinement of the segments, where each pair's quantiles are
    constant, so the 2m monotone couplings cost one pass.
    """
    p = np.asarray(p, dtype=float)
    p_star = np.asarray(p_star, dtype=float)
    if p.shape != (grid.n,) or p_star.shape != (grid.n,) or prob.n != grid.n:
        raise ShapeError("histograms must match the grid length")
    widths, indices = _quantile_segments(np.vstack([p, p_star, prob.measures]))
    pts = grid.points[indices]
    costs = np.square(pts[:2, None, :] - pts[None, 2:, :])
    value, best = (costs @ widths).sum(axis=1)
    return (value - best) / prob.m
