"""Shared fixtures and independent oracles.

The dense matrices and enumerations here deliberately re-derive everything
the package computes matrix-free, so tests compare two independent routes.
"""

import itertools
import math

import numpy as np
import pytest

import saddlebary as sb


def dense_incidence(n):
    """The 2n x n^2 marginal matrix, materialized entry by entry."""
    A = np.zeros((2 * n, n * n))
    for j in range(n):
        for k in range(n):
            col = j * n + k
            A[j, col] = 1.0  # row-sum block
            A[n + k, col] = 1.0  # column-sum block
    return A


def dense_big_operator(n, m):
    """The full 2mn x (mn^2 + n) constraint matrix."""
    A = dense_incidence(n)
    big = np.zeros((2 * m * n, m * n * n + n))
    for i in range(m):
        big[2 * n * i : 2 * n * (i + 1), n * n * i : n * n * (i + 1)] = A
        big[2 * n * i : 2 * n * i + n, m * n * n :] = -np.eye(n)
    return big


def primal_vector(x):
    """A primal point flattened in the column order of :func:`dense_big_operator`."""
    return np.concatenate([x.plans.ravel(), x.bary])


def dense_plans(scaled):
    """The (m, n^2) plans diag(row_scale_i) K diag(col_scale_i) of a `ScaledPlans`.

    Products in the order the package forms them, so the bits match; entries
    below the smallest normal double are set to 0, as the package's are.
    """
    a, b = scaled.row_scale, scaled.col_scale
    m, n = a.shape
    plans = scaled.kernel * a[:, :, None] * b[:, None, :]
    plans[plans < np.finfo(float).tiny] = 0.0
    return plans.reshape(m, n * n)


def random_problem(seed, n, m, zero_diagonal=False, normalized=True):
    rng = np.random.default_rng(seed)
    C = rng.uniform(0.0, 1.0, (n, n))
    if zero_diagonal:
        np.fill_diagonal(C, 0.0)
    if normalized:
        C /= C.max()
    measures = rng.dirichlet(np.ones(n), m)
    return sb.BarycenterProblem.create(measures, sb.vectorize_cost(C))


def random_primal(rng, n, m, alpha=1.0):
    return sb.PrimalPoint(
        plans=rng.dirichlet(np.full(n * n, alpha), m),
        bary=rng.dirichlet(np.full(n, alpha)),
    )


def uniform_primal(n, m):
    """Uniform plans and uniform barycenter."""
    return sb.PrimalPoint(plans=np.full((m, n * n), 1.0 / (n * n)), bary=np.full(n, 1.0 / n))


def random_dual(rng, n, m):
    return sb.DualPoint(duals=rng.uniform(-1.0, 1.0, (m, 2 * n)))


def zero_dual(n, m):
    return sb.DualPoint(duals=np.zeros((m, 2 * n)))


def saddle_objective(x, y, prob):
    """The bilinear saddle objective, from the dense constraint matrix and the tiled cost.

    The mean over measures of plan cost plus 2 max(C) times the pairing of
    the duals with the residual [row sums - p, column sums - q_i].
    """
    n, m = prob.n, prob.m
    C = prob.cost.C
    linear = np.concatenate([np.tile(C.ravel(), m), np.zeros(n)])
    targets = np.concatenate([np.zeros((m, n)), prob.measures], axis=1).ravel()
    point = primal_vector(x)
    residual = dense_big_operator(n, m) @ point - targets
    return (linear @ point + 2.0 * C.max() * (y.duals.ravel() @ residual)) / m


def enumerated_gap(x, y, prob):
    """Duality gap by brute force: all dual sign vectors, all primal vertices."""
    n, m = prob.n, prob.m
    best_max = -math.inf
    for signs in itertools.product((-1.0, 1.0), repeat=2 * m * n):
        yy = sb.DualPoint(duals=np.array(signs).reshape(m, 2 * n))
        best_max = max(best_max, saddle_objective(x, yy, prob))
    best_min = math.inf
    for plan_cells in itertools.product(range(n * n), repeat=m):
        plans = np.zeros((m, n * n))
        for i, cell in enumerate(plan_cells):
            plans[i, cell] = 1.0
        for bary_cell in range(n):
            bary = np.zeros(n)
            bary[bary_cell] = 1.0
            xx = sb.PrimalPoint(plans=plans, bary=bary)
            best_min = min(best_min, saddle_objective(xx, y, prob))
    return best_max - best_min


@pytest.fixture
def t1_problem():
    """n=2, m=1, cost [[0,1],[1,0]], single measure (1,0)."""
    cost = sb.vectorize_cost([[0.0, 1.0], [1.0, 0.0]])
    return sb.BarycenterProblem.create([[1.0, 0.0]], cost)
