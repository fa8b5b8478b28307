"""The exact barycenter LP, solved by HiGHS, as a reference for the package.

The LP is built here from its definition and shares no code with the
solvers: minimize (1/m) sum_i <C, X_i> over nonnegative plans X_i whose row
sums equal a common barycenter p and whose column sums equal q_i.  Its
optimum LP* is what the 1-D quantile barycenter attains on grid costs, and
it lies between the two sides of any certificate, since the dual value
lower-bounds and the penalized primal value upper-bounds the barycenter
problem's optimum.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

import saddlebary as sb
from saddlebary.area_convex import run_dual_extrapolation
from saddlebary.ibp import ibp_barycenter
from saddlebary.mirror_prox import run_mirror_prox

HIGHS_TOL = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def barycenter_lp(C, measures, fixed_bary=None):
    """Optimal value of the barycenter LP, optionally with p held fixed."""
    m, n = measures.shape
    nvar = m * n * n + n
    cost = np.zeros(nvar)
    A = np.zeros((2 * m * n, nvar))
    b = np.zeros(2 * m * n)
    for i in range(m):
        cost[i * n * n : (i + 1) * n * n] = C.ravel() / m
        for j in range(n):
            for k in range(n):
                col = i * n * n + j * n + k
                A[2 * i * n + j, col] = 1.0  # row j of plan i ...
                A[2 * i * n + n + k, col] = 1.0  # ... and column k
            A[2 * i * n + j, m * n * n + j] = -1.0  # row sums equal p
        b[2 * i * n + n : 2 * (i + 1) * n] = measures[i]  # column sums equal q_i
    bounds = [(0, None)] * (m * n * n)
    if fixed_bary is None:
        bounds += [(0, None)] * n
    else:
        bounds += [(v, v) for v in fixed_bary]
    res = linprog(cost, A_eq=A, b_eq=b, bounds=bounds, method="highs", options=HIGHS_TOL)
    assert res.status == 0, res.message
    return res.fun


def random_measures(rng, n, m):
    measures = rng.dirichlet(np.full(n, 0.7), m)
    measures[measures < 0.02] = 0.0  # some empty bins
    return measures / measures.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("seed,n,m", [(0, 6, 2), (1, 9, 3), (2, 12, 4), (3, 10, 3)])
def test_quantile_barycenter_attains_lp_optimum(seed, n, m):
    rng = np.random.default_rng(seed)
    points = np.sort(rng.uniform(-2.0, 2.0, n))
    measures = random_measures(rng, n, m)
    C = (points[:, None] - points[None, :]) ** 2
    lp_star = barycenter_lp(C, measures)
    p_star = sb.barycenter_1d_quantile(measures, sb.Grid1D(points=points))
    assert barycenter_lp(C, measures, fixed_bary=p_star) == pytest.approx(lp_star, abs=1e-12)


def _capped_runs(prob):
    _, _, mp = run_mirror_prox(prob, 1e-3, max_iters=40)
    _, _, de = run_dual_extrapolation(prob, 1e-3, max_outer=4)
    _, ibp = ibp_barycenter(prob, sb.IBPConfig(reg=0.05, iters=10, stabilized=True))
    return {"mp": mp, "de": de, "ibp": ibp}


@pytest.mark.parametrize("seed,n,m", [(10, 5, 2), (11, 8, 3), (12, 12, 4)])
def test_certificates_bracket_lp_optimum(seed, n, m):
    # squared distances between random points in the plane: not a grid cost
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, (n, 2))
    C = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    measures = random_measures(rng, n, m)
    prob = sb.BarycenterProblem(measures=measures, cost=sb.CostData(C=C))
    lp_star = barycenter_lp(C, measures)
    for algo, report in _capped_runs(prob).items():
        assert report.status == "iteration-cap", algo  # the caps, not eps, end these runs
        primal_value, dual_value = sb.certificate_values(report.final_x, report.final_y, prob)
        assert dual_value <= lp_star + 1e-9, algo
        assert lp_star <= primal_value + 1e-9, algo
