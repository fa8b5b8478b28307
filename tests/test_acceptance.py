"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import csv
import math
import time

import numpy as np
import pytest

import saddlebary as sb
from saddlebary import GaussianSuiteSpec, gaussian_suite
from saddlebary.cli import main
from saddlebary.core import _marginals_stack, _residual
from conftest import (
    factored_draw,
    prox_point,
    random_dual,
    random_primal,
    random_problem,
    uniform_primal,
    zero_dual,
)
from paper_checks import (
    am_objective,
    area_convexity_residual,
    hessian_forms,
    ot_1d_monotone,
    paper_theta,
    regularizer,
)


def announce(number, text, started):
    print(f"[criterion {number:2d}] PASS ({time.perf_counter() - started:5.1f}s) {text}")


def acceptance_instances():
    combos = [(n, m) for n in (4, 8, 16) for m in (2, 5)]
    return [(seed, *combos[seed % len(combos)]) for seed in range(20)]


@pytest.fixture(scope="module")
def gaussian_bench_problem():
    measures, grid = gaussian_suite(GaussianSuiteSpec(seed=0))
    g = sb.Grid1D(points=grid)
    raw = sb.grid_cost(g)
    cost = sb.CostData(C=raw.C / raw.d_inf)
    scale = float(((grid[:, None] - grid[None, :]) ** 2).max())
    prob = sb.BarycenterProblem(measures=measures, cost=cost)
    p_star = sb.barycenter_1d_quantile(measures, g)
    oracle = lambda b: sb.optimality_gap(b, p_star, prob, g) / scale
    return prob, g, oracle


def test_criterion_01_mirror_prox_iteration_budget():
    started = time.perf_counter()
    for seed, n, m in acceptance_instances():
        prob = random_problem(seed, n, m)
        eps = 0.05
        _, _, report = sb.run_mirror_prox(prob, eps)
        budget = math.ceil(8.0 * math.sqrt(6.0 * n * math.log(n)) / eps)
        assert report.final_gap <= eps, (seed, n, m, report.final_gap)
        assert report.iterations_run <= budget, (seed, n, m)
        assert report.config["theory_iters"] == budget
    announce(1, "mirror prox reaches eps within the theory budget on 20 instances", started)


def test_criterion_02_dual_extrapolation_bound():
    started = time.perf_counter()
    for seed, n, m in acceptance_instances():
        prob = random_problem(seed, n, m)
        eps = 0.25
        _, _, report = sb.run_dual_extrapolation(prob, eps, log_stride=25)
        theta_exact = sb.theta(n, prob.cost.d_inf)
        budget = math.ceil(12.0 * theta_exact / eps)
        assert report.final_gap <= eps, (seed, n, m, report.final_gap)
        assert report.iterations_run <= budget, (seed, n, m)
        assert report.config["outer_iters"] == budget
        assert report.config["inner_iters"] == sb.am_inner_iterations(
            eps, theta_exact, prob.cost.d_inf
        )
    announce(2, "dual extrapolation certifies eps within ceil(12*theta/eps) outer steps", started)


def test_criterion_03_area_convexity():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for n, m in ((2, 1), (3, 2), (5, 3)):
        cost = random_problem(300 + n, n, m).cost
        worst = math.inf
        for _ in range(10_000):
            triple = [(random_primal(rng, n, m), random_dual(rng, n, m)) for _ in range(3)]
            worst = min(worst, area_convexity_residual(*triple, cost))
        assert worst >= -1e-9, (n, m, worst)
    announce(3, "area-convexity residual >= -1e-9 on 10^4 random triples per size", started)


def test_criterion_04_hessian_sandwich():
    started = time.perf_counter()
    rng = np.random.default_rng(2025)
    for n, m, count in ((4, 2, 5_000), (8, 3, 5_000)):
        cost = random_problem(400 + n, n, m).cost
        uniform_plan = 1.0 / (n * n)
        uniform_bary = 1.0 / n
        for _ in range(count):
            raw = random_primal(rng, n, m)
            # mix toward uniform so every plan entry clears 1e-6
            lam = 1e-4
            x = sb.PrimalPoint(
                plans=(1 - lam) * raw.plans + lam * uniform_plan,
                bary=(1 - lam) * raw.bary + lam * uniform_bary,
            )
            assert x.plans.min() >= 1e-6
            y = random_dual(rng, n, m)
            w = rng.normal(size=m * n * n + n + 2 * m * n)
            q_hess, q_diag = hessian_forms(x, y, w, cost, m)
            assert q_diag <= q_hess * (1 + 1e-8) + 1e-12
            assert q_hess <= 6.0 * q_diag * (1 + 1e-8) + 1e-12
    announce(4, "diagonal surrogate sandwiches the Hessian form within factor 6 on 10^4 draws", started)


def test_criterion_05_operator_norm():
    started = time.perf_counter()
    rng = np.random.default_rng(2026)
    for _ in range(10_000):
        n = int(rng.integers(2, 17))
        m = int(rng.integers(1, 6))
        plans = rng.dirichlet(np.ones(n * n), m)
        bary = rng.dirichlet(np.ones(n))
        coef = np.abs(rng.normal(size=m + 1))
        coef /= np.linalg.norm(coef)
        coef *= rng.uniform() ** (1.0 / (m + 1))
        x = sb.PrimalPoint(plans=plans * coef[:m, None], bary=bary * coef[m] / math.sqrt(m))
        residual = _residual(_marginals_stack(x.plans, n), x.bary, 0.0)
        assert float(np.sum(residual**2)) <= 2.0 + 1e-9
    announce(5, "constraint operator norm squared <= 2 on 10^4 unit-norm points", started)


def test_criterion_06_regularizer_range():
    started = time.perf_counter()
    rng = np.random.default_rng(2027)
    n, m = 4, 2
    cost = random_problem(600, n, m).cost
    base = regularizer(uniform_primal(n, m), zero_dual(n, m), cost)
    top_exact = sb.theta(n, cost.d_inf)
    paper_slack = paper_theta(n, cost.d_inf) - 10.0 * math.log(n) * cost.d_inf
    largest = -math.inf
    for trial in range(10_000):
        if trial % 10 == 0:
            plans = np.zeros((m, n * n))
            plans[np.arange(m), rng.integers(0, n * n, m)] = 1.0
            bary = np.zeros(n)
            bary[rng.integers(0, n)] = 1.0
            x = sb.PrimalPoint(plans=plans, bary=bary)
            y = sb.DualPoint(duals=np.sign(rng.uniform(-1, 1, (m, 2 * n))))
        else:
            x = random_primal(rng, n, m, alpha=float(rng.choice([1.0, 0.05])))
            y = random_dual(rng, n, m)
        value = regularizer(x, y, cost) - base
        assert value >= 0.0
        assert value <= top_exact + 1e-9
        largest = max(largest, value)
    assert largest > paper_slack, (largest, paper_slack)
    announce(6, "range within the shipped theta; samples exceed the tighter advertised constant", started)


def test_criterion_07_am_linear_convergence():
    started = time.perf_counter()
    rng = np.random.default_rng(2028)
    n, m = 8, 3
    cost = random_problem(700, n, m).cost
    ratios = []
    for _ in range(12):
        amp = factored_draw(rng, n, m, 5.0, 3.0)
        values = np.array(
            [am_objective(amp, *prox_point(amp, t, cost), cost) for t in range(1, 26)]
        )
        assert np.all(np.diff(values) <= 1e-9 * np.maximum(1.0, np.abs(values[:-1])))
        star = am_objective(amp, *prox_point(amp, 400, cost), cost)
        sub = values - star
        valid = sub[:-1] > 1e-11
        ratios.extend((sub[1:][valid] / sub[:-1][valid]).tolist())
    assert np.median(ratios) <= 23.0 / 24.0 + 0.02, np.median(ratios)
    announce(7, "alternating-minimization sweeps contract at least as fast as 23/24", started)


def test_criterion_08_gaussian_benchmark(gaussian_bench_problem):
    started = time.perf_counter()
    prob, _, oracle = gaussian_bench_problem
    _, _, report = sb.run_mirror_prox(
        prob, 1e-9, max_iters=20_000, log_stride=100, oracle=oracle
    )
    iters = np.array([r.iteration for r in report.records], dtype=float)
    gaps = np.array([r.duality_gap for r in report.records])
    opts = np.array([r.optimality_gap for r in report.records])
    assert opts[-1] <= 0.10 * opts[0], (opts[0], opts[-1])
    window = iters >= iters[-1] / 10.0
    design = np.vstack([np.log(iters[window]), np.ones(int(window.sum()))]).T
    slope = np.linalg.lstsq(design, np.log(gaps[window]), rcond=None)[0][0]
    assert -1.25 <= slope <= -0.75, slope
    announce(8, f"benchmark optimality gap fell to {opts[-1]/opts[0]:.1%}; gap slope {slope:.2f}", started)


def test_criterion_09_ibp_instability(gaussian_bench_problem):
    started = time.perf_counter()
    prob, _, _ = gaussian_bench_problem
    bary, report = sb.ibp_barycenter(prob, sb.IBPConfig(reg=1e-5, iters=2_000))
    assert bary is None
    assert report.status == "underflow-degenerate"
    _, _, mp_report = sb.run_mirror_prox(prob, 1e-9, max_iters=200, log_stride=50)
    assert np.isfinite(mp_report.final_gap)
    _, _, de_report = sb.run_dual_extrapolation(prob, 0.25, max_outer=3, log_stride=1)
    assert np.isfinite(de_report.final_gap)
    announce(9, "naive scaling underflows at reg=1e-5 while both saddle solvers stay finite", started)


def test_criterion_10_oracle_cross_validation():
    started = time.perf_counter()
    rng = np.random.default_rng(2029)
    eps = 0.02
    for n, m in ((6, 2), (8, 3), (5, 2)):
        pts = np.linspace(0.0, 1.0, n)
        grid = sb.Grid1D(points=pts)
        measures = rng.dirichlet(np.ones(n), m)
        prob = sb.BarycenterProblem(measures=measures, cost=sb.grid_cost(grid))
        p_star = sb.barycenter_1d_quantile(measures, grid)
        wx, _, report = sb.run_dual_extrapolation(prob, eps, log_stride=200)
        assert report.final_gap <= eps
        achieved = np.mean([ot_1d_monotone(wx.bary, q, grid) for q in measures])
        exact = np.mean([ot_1d_monotone(p_star, q, grid) for q in measures])
        assert abs(achieved - exact) <= eps, (n, m, achieved, exact)
    announce(10, "dual extrapolation matches the exact 1-D oracle within its certificate", started)


def test_criterion_11_determinism(tmp_path):
    started = time.perf_counter()
    args = ["barycenter", "--algo", "mp", "--gaussian", "--seed", "5", "--eps", "0.5",
            "--normalize-cost", "--max-iters", "120", "--log-stride", "30"]
    out1, out2, out3 = (tmp_path / name for name in ("a", "b", "c"))
    assert main(args + ["--timing", "off", "--out", str(out1)]) == 0
    assert main(args + ["--timing", "off", "--out", str(out2)]) == 0
    for name in ("report.csv", "barycenter.csv", "iterates.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    # with wall timing only the elapsed column may differ
    assert main(args + ["--timing", "wall", "--out", str(out3)]) == 0
    rows_off = list(csv.reader(open(out1 / "report.csv")))
    rows_wall = list(csv.reader(open(out3 / "report.csv")))
    for a, b in zip(rows_off, rows_wall):
        assert [v for i, v in enumerate(a) if i != 1] == [v for i, v in enumerate(b) if i != 1]
    announce(11, "fixed seeds reproduce byte-identical reports", started)
