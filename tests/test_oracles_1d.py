import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import saddlebary as sb
from saddlebary.cli import main
from saddlebary.oracles_1d import _quantile_segments
from paper_checks import ot_1d_monotone


def brute_force_ot(p, q, grid, unit):
    """Exact OT by enumerating integer couplings in mass units of `unit`.

    Only works when both histograms are integer multiples of `unit`.
    """
    n = grid.n
    rows = np.rint(p / unit).astype(int)
    cols = np.rint(q / unit).astype(int)
    assert rows.sum() == cols.sum()
    cost_matrix = (grid.points[:, None] - grid.points[None, :]) ** 2

    best = math.inf

    def recurse(row, remaining_cols, acc):
        nonlocal best
        if acc >= best:
            return
        if row == n:
            best = min(best, acc)
            return
        total = rows[row]
        for split in compositions(total, remaining_cols):
            extra = sum(c * cost_matrix[row, k] for k, c in enumerate(split))
            recurse(row + 1, tuple(r - c for r, c in zip(remaining_cols, split)), acc + extra * unit)

    def compositions(total, caps):
        if len(caps) == 1:
            if total <= caps[0]:
                yield (total,)
            return
        for first in range(min(total, caps[0]) + 1):
            for rest in compositions(total - first, caps[1:]):
                yield (first,) + rest

    recurse(0, tuple(cols), 0.0)
    return best


def lp_ot(p, q, grid, power):
    """Exact OT under the cost |t_j - t_k|^power by a linear program over the couplings."""
    n = grid.n
    cost = (np.abs(grid.points[:, None] - grid.points[None, :]) ** power).ravel()
    A_eq = []
    for j in range(n):
        row = np.zeros(n * n)
        row[j * n : (j + 1) * n] = 1.0
        A_eq.append(row)
    for k in range(n):
        col = np.zeros(n * n)
        col[k::n] = 1.0
        A_eq.append(col)
    result = linprog(cost, A_eq=np.array(A_eq), b_eq=np.concatenate([p, q]), method="highs")
    assert result.success
    return result.fun


def _merge_loop_ot(p, q, grid, power):
    """Monotone transport cost under |t_j - t_k|^power by walking the two
    histograms entry by entry, moving the smaller remaining mass at each step."""
    pts = grid.points
    n = grid.n
    i = j = 0
    remaining_p = float(p[0])
    remaining_q = float(q[0])
    cost = 0.0
    while True:
        move = remaining_p if remaining_p < remaining_q else remaining_q
        if move > 0.0:
            cost += move * abs(pts[i] - pts[j]) ** power
        remaining_p -= move
        remaining_q -= move
        if remaining_p == 0.0:
            i += 1
            if i == n:
                break
            remaining_p = float(p[i])
        if remaining_q == 0.0:
            j += 1
            if j == n:
                break
            remaining_q = float(q[j])
    return cost


class TestGrid:
    def test_rejects_unsorted_points(self):
        with pytest.raises(sb.ShapeError):
            sb.Grid1D(points=np.array([0.0, 2.0, 1.0]))

    @pytest.mark.parametrize("points", [[0.0, np.nan, 2.0], [np.nan], [0.0, np.inf]])
    def test_rejects_non_finite_points(self, points):
        # a NaN difference fails no `<= 0` test, so the order check alone passes these
        with pytest.raises(sb.DomainError, match="finite"):
            sb.Grid1D(points=np.array(points))

    def test_rejects_sub_linear_power(self):
        # the grid cost is squared distance; any other power is a ConfigError
        for power in (0.5, 1.0, 1.5, 3.0):
            with pytest.raises(sb.ConfigError):
                sb.Grid1D(points=np.array([0.0, 1.0]), power=power)
        assert sb.Grid1D(points=np.array([0.0, 1.0]), power=2.0).n == 2

    def test_cost_matrix(self):
        grid = sb.Grid1D(points=np.array([0.0, 1.0, 3.0]))
        cd = sb.grid_cost(grid)
        assert cd.C[0, 2] == 9.0
        assert cd.d_inf == 9.0

    @pytest.mark.parametrize("normalize", [False, True])
    def test_overflowing_cost_is_an_invalid_cost(self, normalize, tmp_path, capsys):
        # (1e200)^2 overflows to inf: the cost check reports it, not a
        # RuntimeWarning from the square, also where the command line would
        # rescale the cost (--normalize-cost)
        if not normalize:
            grid = sb.Grid1D(points=np.array([0.0, 1e200, 2e200]))
            with pytest.raises(sb.InvalidCostError):
                sb.grid_cost(grid)
            return
        hists = tmp_path / "h.csv"
        hists.write_text("# grid: 0.0, 1e200, 2e200\n0.2,0.3,0.5\n")
        argv = ["barycenter", "--algo", "mp", "--input", str(hists), "--normalize-cost",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: cost matrix has non-finite entries\n"


class TestMonotoneTransport:
    def test_identity(self):
        grid = sb.Grid1D(points=np.linspace(0, 1, 5))
        rng = np.random.default_rng(80)
        p = rng.dirichlet(np.ones(5))
        assert ot_1d_monotone(p, p, grid) == 0.0

    def test_single_atom_move(self):
        grid = sb.Grid1D(points=np.array([0.0, 1.0]))
        assert ot_1d_monotone([1.0, 0.0], [0.0, 1.0], grid) == pytest.approx(1.0)

    def test_half_mass_shift_against_enumeration(self):
        grid = sb.Grid1D(points=np.array([0.0, 1.0, 2.0]))
        p = np.array([0.5, 0.5, 0.0])
        q = np.array([0.0, 0.5, 0.5])
        expected = brute_force_ot(p, q, grid, unit=0.5)
        assert expected == pytest.approx(1.0)
        assert ot_1d_monotone(p, q, grid) == pytest.approx(expected, abs=1e-12)

    def test_matches_enumeration_on_quarter_grids(self):
        rng = np.random.default_rng(81)
        grid = sb.Grid1D(points=np.array([0.0, 0.7, 1.1]))
        for _ in range(10):
            p = rng.multinomial(4, np.full(3, 1 / 3)) / 4.0
            q = rng.multinomial(4, np.full(3, 1 / 3)) / 4.0
            expected = brute_force_ot(p, q, grid, unit=0.25)
            assert ot_1d_monotone(p, q, grid) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("power", [1.0, 2.0])
    def test_matches_linear_program(self, power):
        rng = np.random.default_rng(82)
        grid = sb.Grid1D(points=np.sort(rng.uniform(0, 1, 7)))
        for _ in range(8):
            p = rng.dirichlet(np.ones(7))
            q = rng.dirichlet(np.ones(7))
            assert ot_1d_monotone(p, q, grid, power) == pytest.approx(
                lp_ot(p, q, grid, power), abs=1e-9
            )

    @pytest.mark.parametrize("power", [1.0, 2.0])
    def test_matches_merge_loop_with_zero_mass(self, power):
        rng = np.random.default_rng(89)
        for n in (2, 3, 7, 30):
            grid = sb.Grid1D(points=np.sort(rng.uniform(-2, 2, n)))
            for _ in range(25):
                p, q = rng.dirichlet(np.ones(n), 2)
                p[rng.random(n) < 0.4] = 0.0
                q[rng.random(n) < 0.4] = 0.0
                p[rng.integers(n)] += 1.0 - p.sum()
                q[rng.integers(n)] += 1.0 - q.sum()
                assert ot_1d_monotone(p, q, grid, power) == pytest.approx(
                    _merge_loop_ot(p, q, grid, power), abs=1e-12
                )

    def test_symmetry(self):
        rng = np.random.default_rng(83)
        grid = sb.Grid1D(points=np.linspace(-1, 1, 9))
        for _ in range(20):
            p = rng.dirichlet(np.ones(9))
            q = rng.dirichlet(np.ones(9))
            assert ot_1d_monotone(p, q, grid) == pytest.approx(
                ot_1d_monotone(q, p, grid), abs=1e-12
            )

    def test_rejects_length_mismatch(self):
        grid = sb.Grid1D(points=np.array([0.0, 1.0]))
        with pytest.raises(sb.ShapeError):
            ot_1d_monotone([1.0, 0.0, 0.0], [0.0, 1.0], grid)


class TestQuantileBarycenter:
    def test_mirrored_pair_is_symmetric(self):
        # mass on every other support point keeps all quantile averages on
        # the grid, so no rebin tie fires (the left-tie rule is asymmetric:
        # an atom exactly midway and its mirror both land leftward)
        rng = np.random.default_rng(84)
        n = 9
        grid = sb.Grid1D(points=np.linspace(-1, 1, n))
        q = np.zeros(n)
        q[::2] = rng.dirichlet(np.ones(5))
        pair = np.stack([q, q[::-1]])
        bary = sb.barycenter_1d_quantile(pair, grid)
        assert np.allclose(bary, bary[::-1], atol=1e-12)

    def test_rebin_ties_go_left(self):
        grid = sb.Grid1D(points=np.array([0.0, 1.0]))
        measures = np.array([[1.0, 0.0], [0.0, 1.0]])
        # the single atom sits exactly midway; the tie lands on the left cell
        assert np.array_equal(sb.barycenter_1d_quantile(measures, grid), [1.0, 0.0])

    def test_two_deltas_meet_in_the_middle(self):
        grid = sb.Grid1D(points=np.array([0.0, 0.5, 1.0]))
        measures = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        bary = sb.barycenter_1d_quantile(measures, grid)
        assert np.array_equal(bary, [0.0, 1.0, 0.0])

    def test_gaussian_pair_matches_analytic_barycenter(self):
        pts = np.linspace(-10, 10, 100)
        grid = sb.Grid1D(points=pts)

        def discretized(mean, std):
            w = np.exp(-((pts - mean) ** 2) / (2 * std**2))
            return w / w.sum()

        measures = np.stack([discretized(-1.0, 1.0), discretized(1.0, 1.0)])
        bary = sb.barycenter_1d_quantile(measures, grid)
        assert 0.5 * np.abs(bary - discretized(0.0, 1.0)).sum() <= 0.02

    def test_mass_preserved(self):
        rng = np.random.default_rng(85)
        grid = sb.Grid1D(points=np.sort(rng.uniform(0, 1, 12)))
        measures = rng.dirichlet(np.ones(12), 4)
        bary = sb.barycenter_1d_quantile(measures, grid)
        assert bary.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(bary >= 0)


class TestOptimalityGap:
    def make_problem(self, rng, n, m):
        grid = sb.Grid1D(points=np.linspace(0, 1, n))
        measures = rng.dirichlet(np.ones(n), m)
        prob = sb.BarycenterProblem(measures=measures, cost=sb.grid_cost(grid))
        return grid, prob

    def test_identity(self):
        rng = np.random.default_rng(86)
        grid, prob = self.make_problem(rng, 6, 2)
        p = rng.dirichlet(np.ones(6))
        assert sb.optimality_gap(p, p, prob, grid) == 0.0

    def test_single_measure_gap_is_distance(self):
        rng = np.random.default_rng(87)
        grid, prob = self.make_problem(rng, 6, 1)
        p = rng.dirichlet(np.ones(6))
        q = prob.measures[0]
        gap = sb.optimality_gap(p, q, prob, grid)
        assert gap == pytest.approx(ot_1d_monotone(p, q, grid), abs=1e-14)
        assert gap >= 0.0

    def test_matches_per_pair_sum_with_zero_mass(self):
        # one merge of all rows against the 2m separate monotone couplings
        rng = np.random.default_rng(90)
        for n, m in ((2, 1), (5, 3), (30, 10)):
            grid = sb.Grid1D(points=np.sort(rng.uniform(-2, 2, n)))
            for _ in range(10):
                rows = rng.dirichlet(np.ones(n), m + 2)
                rows[rng.random((m + 2, n)) < 0.4] = 0.0
                rows[np.arange(m + 2), rng.integers(n, size=m + 2)] += 1.0 - rows.sum(axis=1)
                p, p_star, measures = rows[0], rows[1], rows[2:]
                prob = sb.BarycenterProblem(measures=measures, cost=sb.grid_cost(grid))
                per_pair = sum(
                    ot_1d_monotone(p, q, grid) - ot_1d_monotone(p_star, q, grid)
                    for q in measures
                ) / m
                assert sb.optimality_gap(p, p_star, prob, grid) == pytest.approx(
                    per_pair, abs=1e-12
                )

    def test_nonnegative_against_quantile_barycenter(self):
        rng = np.random.default_rng(88)
        for _ in range(20):
            grid, prob = self.make_problem(rng, 7, 3)
            p_star = sb.barycenter_1d_quantile(prob.measures, grid)
            p = rng.dirichlet(np.ones(7))
            assert sb.optimality_gap(p, p_star, prob, grid) >= -1e-10


class TestQuantileSegments:
    def test_levels_are_bitwise_those_of_np_unique(self):
        # the merge as it was taken, by np.unique, on rows with -0.0 and
        # zero entries, subnormal masses and an all-zero row
        rng = np.random.default_rng(93)
        for _ in range(300):
            n, m = rng.integers(1, 25), rng.integers(1, 6)
            rows = rng.dirichlet(np.ones(n), m)
            rows[rng.random((m, n)) < 0.3] = 0.0
            rows[rng.random((m, n)) < 0.3] = -0.0
            rows[rng.random((m, n)) < 0.1] = 5e-324
            if rng.random() < 0.2:
                rows[rng.integers(m)] = 0.0
            cums = np.minimum(np.cumsum(rows, axis=1), 1.0)
            cums[:, -1] = 1.0
            levels = np.unique(np.concatenate([cums.ravel(), [0.0]]))
            widths, indices = _quantile_segments(rows)
            mids = 0.5 * (levels[:-1] + levels[1:])
            expected = np.stack([np.searchsorted(c, mids, side="left") for c in cums])
            assert widths.tobytes() == np.diff(levels).tobytes()
            assert indices.tobytes() == expected.tobytes()

    def test_oracles_leave_numpy_ma_unloaded(self):
        # np.unique imports numpy.ma on first use, tens of milliseconds of
        # set-up in every run with an oracle
        code = (
            "import sys, numpy as np, saddlebary as sb\n"
            "g = sb.Grid1D(points=np.linspace(0.0, 1.0, 4))\n"
            "q = np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 0.5, 0.5, 0.0]])\n"
            "prob = sb.BarycenterProblem(q, sb.grid_cost(g))\n"
            "p = sb.barycenter_1d_quantile(q, g)\n"
            "sb.optimality_gap(np.full(4, 0.25), p, prob, g)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ)
        src = str(Path(sb.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def _sandwich_inputs():
    measures, points = sb.gaussian_suite(sb.GaussianSuiteSpec(support=20, seed=0))
    yield "gauss-suite-20", measures, points
    rng = np.random.default_rng(94)
    yield "random-grid", rng.dirichlet(np.ones(9), 4), np.sort(rng.uniform(-3.0, 3.0, 9))


SANDWICH_RUNS = {
    "mp": lambda prob, driver: sb.run_mirror_prox(prob, 0.05, **driver)[2],
    "de": lambda prob, driver: sb.run_dual_extrapolation(prob, 0.25, max_outer=50, **driver)[2],
    "ibp-stabilized": lambda prob, driver: sb.ibp_barycenter(
        prob, sb.IBPConfig(reg=1e-3, stabilized=True), **driver)[1],
    "ibp-naive": lambda prob, driver: sb.ibp_barycenter(prob, sb.IBPConfig(reg=1e-2), **driver)[1],
}


@pytest.mark.parametrize("algo", sorted(SANDWICH_RUNS))
def test_duality_gap_bounds_the_exact_optimality_gap(algo):
    # every record's certificate is at least the exact 1-D optimality gap
    # of its barycenter, on the normalized cost, as the command line reports it
    for name, measures, points in _sandwich_inputs():
        grid = sb.Grid1D(points=points)
        cost = sb.grid_cost(grid)
        scale = cost.d_inf
        prob = sb.BarycenterProblem(measures, sb.CostData(C=cost.C / scale))
        p_star = sb.barycenter_1d_quantile(measures, grid)
        driver = {
            "log_stride": 1,
            "oracle": lambda bary: sb.optimality_gap(bary, p_star, prob, grid) / scale,
            "timer": lambda: 0.0,
        }
        report = SANDWICH_RUNS[algo](prob, driver)
        assert report.status in ("ok", "iteration-cap") and report.records, name
        for r in report.records:
            assert r.optimality_gap <= r.duality_gap + 1e-12, (name, r)
