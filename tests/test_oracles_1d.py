import math

import numpy as np
import pytest
from scipy.optimize import linprog

import saddlebary as sb


def brute_force_ot(p, q, grid, unit):
    """Exact OT by enumerating integer couplings in mass units of `unit`.

    Only works when both histograms are integer multiples of `unit`.
    """
    n = grid.n
    rows = np.rint(p / unit).astype(int)
    cols = np.rint(q / unit).astype(int)
    assert rows.sum() == cols.sum()
    cost_matrix = np.abs(grid.points[:, None] - grid.points[None, :]) ** grid.power

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


def lp_ot(p, q, grid):
    """Exact OT via a linear program over the transport polytope."""
    n = grid.n
    cost = (np.abs(grid.points[:, None] - grid.points[None, :]) ** grid.power).ravel()
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


def _merge_loop_ot(p, q, grid):
    """Monotone transport cost by walking the two histograms entry by entry,
    moving the smaller remaining mass at each step."""
    pts = grid.points
    n = grid.n
    i = j = 0
    remaining_p = float(p[0])
    remaining_q = float(q[0])
    cost = 0.0
    while True:
        move = remaining_p if remaining_p < remaining_q else remaining_q
        if move > 0.0:
            cost += move * abs(pts[i] - pts[j]) ** grid.power
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

    def test_rejects_sub_linear_power(self):
        with pytest.raises(sb.UnsupportedError):
            sb.Grid1D(points=np.array([0.0, 1.0]), power=0.5)

    def test_cost_matrix(self):
        grid = sb.Grid1D(points=np.array([0.0, 1.0, 3.0]), power=2.0)
        cd = sb.grid_cost(grid)
        assert cd.C[0, 2] == 9.0
        assert cd.d_inf == 9.0
        normalized = sb.grid_cost(grid, normalize=True)
        assert normalized.d_inf == 1.0


class TestMonotoneTransport:
    def test_identity(self):
        grid = sb.Grid1D(points=np.linspace(0, 1, 5), power=2.0)
        rng = np.random.default_rng(80)
        p = rng.dirichlet(np.ones(5))
        assert sb.ot_1d_monotone(p, p, grid) == 0.0

    def test_single_atom_move(self):
        grid = sb.Grid1D(points=np.array([0.0, 1.0]), power=2.0)
        assert sb.ot_1d_monotone([1.0, 0.0], [0.0, 1.0], grid) == pytest.approx(1.0)

    def test_half_mass_shift_against_enumeration(self):
        grid = sb.Grid1D(points=np.array([0.0, 1.0, 2.0]), power=2.0)
        p = np.array([0.5, 0.5, 0.0])
        q = np.array([0.0, 0.5, 0.5])
        expected = brute_force_ot(p, q, grid, unit=0.5)
        assert expected == pytest.approx(1.0)
        assert sb.ot_1d_monotone(p, q, grid) == pytest.approx(expected, abs=1e-12)

    def test_matches_enumeration_on_quarter_grids(self):
        rng = np.random.default_rng(81)
        grid = sb.Grid1D(points=np.array([0.0, 0.7, 1.1]), power=2.0)
        for _ in range(10):
            p = rng.multinomial(4, np.full(3, 1 / 3)) / 4.0
            q = rng.multinomial(4, np.full(3, 1 / 3)) / 4.0
            expected = brute_force_ot(p, q, grid, unit=0.25)
            assert sb.ot_1d_monotone(p, q, grid) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("power", [1.0, 2.0])
    def test_matches_linear_program(self, power):
        rng = np.random.default_rng(82)
        grid = sb.Grid1D(points=np.sort(rng.uniform(0, 1, 7)), power=power)
        for _ in range(8):
            p = rng.dirichlet(np.ones(7))
            q = rng.dirichlet(np.ones(7))
            assert sb.ot_1d_monotone(p, q, grid) == pytest.approx(
                lp_ot(p, q, grid), abs=1e-9
            )

    @pytest.mark.parametrize("power", [1.0, 2.0])
    def test_matches_merge_loop_with_zero_mass(self, power):
        rng = np.random.default_rng(89)
        for n in (2, 3, 7, 30):
            grid = sb.Grid1D(points=np.sort(rng.uniform(-2, 2, n)), power=power)
            for _ in range(25):
                p, q = rng.dirichlet(np.ones(n), 2)
                p[rng.random(n) < 0.4] = 0.0
                q[rng.random(n) < 0.4] = 0.0
                p[rng.integers(n)] += 1.0 - p.sum()
                q[rng.integers(n)] += 1.0 - q.sum()
                assert sb.ot_1d_monotone(p, q, grid) == pytest.approx(
                    _merge_loop_ot(p, q, grid), abs=1e-12
                )

    def test_symmetry(self):
        rng = np.random.default_rng(83)
        grid = sb.Grid1D(points=np.linspace(-1, 1, 9), power=2.0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(9))
            q = rng.dirichlet(np.ones(9))
            assert sb.ot_1d_monotone(p, q, grid) == pytest.approx(
                sb.ot_1d_monotone(q, p, grid), abs=1e-12
            )

    def test_rejects_unsupported_power(self):
        grid = sb.Grid1D(points=np.array([0.0, 1.0]), power=1.5)
        with pytest.raises(sb.UnsupportedError):
            sb.ot_1d_monotone([1.0, 0.0], [0.0, 1.0], grid)

    def test_rejects_length_mismatch(self):
        grid = sb.Grid1D(points=np.array([0.0, 1.0]), power=2.0)
        with pytest.raises(sb.ShapeError):
            sb.ot_1d_monotone([1.0, 0.0, 0.0], [0.0, 1.0], grid)


class TestQuantileBarycenter:
    def test_mirrored_pair_is_symmetric(self):
        # mass on every other support point keeps all quantile averages on
        # the grid, so no rebin tie fires (the left-tie rule is asymmetric:
        # an atom exactly midway and its mirror both land leftward)
        rng = np.random.default_rng(84)
        n = 9
        grid = sb.Grid1D(points=np.linspace(-1, 1, n), power=2.0)
        q = np.zeros(n)
        q[::2] = rng.dirichlet(np.ones(5))
        pair = np.stack([q, q[::-1]])
        bary = sb.barycenter_1d_quantile(pair, grid)
        assert np.allclose(bary, bary[::-1], atol=1e-12)

    def test_rebin_ties_go_left(self):
        grid = sb.Grid1D(points=np.array([0.0, 1.0]), power=2.0)
        measures = np.array([[1.0, 0.0], [0.0, 1.0]])
        # the single atom sits exactly midway; the tie lands on the left cell
        assert np.array_equal(sb.barycenter_1d_quantile(measures, grid), [1.0, 0.0])

    def test_two_deltas_meet_in_the_middle(self):
        grid = sb.Grid1D(points=np.array([0.0, 0.5, 1.0]), power=2.0)
        measures = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        bary = sb.barycenter_1d_quantile(measures, grid)
        assert np.array_equal(bary, [0.0, 1.0, 0.0])

    def test_gaussian_pair_matches_analytic_barycenter(self):
        pts = np.linspace(-10, 10, 100)
        grid = sb.Grid1D(points=pts, power=2.0)

        def discretized(mean, std):
            w = np.exp(-((pts - mean) ** 2) / (2 * std**2))
            return w / w.sum()

        measures = np.stack([discretized(-1.0, 1.0), discretized(1.0, 1.0)])
        bary = sb.barycenter_1d_quantile(measures, grid)
        assert 0.5 * np.abs(bary - discretized(0.0, 1.0)).sum() <= 0.02

    def test_rejects_non_quadratic_power(self):
        grid = sb.Grid1D(points=np.array([0.0, 1.0]), power=1.0)
        with pytest.raises(sb.UnsupportedError):
            sb.barycenter_1d_quantile(np.array([[1.0, 0.0]]), grid)

    def test_mass_preserved(self):
        rng = np.random.default_rng(85)
        grid = sb.Grid1D(points=np.sort(rng.uniform(0, 1, 12)), power=2.0)
        measures = rng.dirichlet(np.ones(12), 4)
        bary = sb.barycenter_1d_quantile(measures, grid)
        assert bary.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(bary >= 0)


class TestOptimalityGap:
    def make_problem(self, rng, n, m):
        grid = sb.Grid1D(points=np.linspace(0, 1, n), power=2.0)
        measures = rng.dirichlet(np.ones(n), m)
        prob = sb.BarycenterProblem.create(measures, sb.grid_cost(grid))
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
        assert gap == pytest.approx(sb.ot_1d_monotone(p, q, grid), abs=1e-14)
        assert gap >= 0.0

    def test_nonnegative_against_quantile_barycenter(self):
        rng = np.random.default_rng(88)
        for _ in range(20):
            grid, prob = self.make_problem(rng, 7, 3)
            p_star = sb.barycenter_1d_quantile(prob.measures, grid)
            p = rng.dirichlet(np.ones(7))
            assert sb.optimality_gap(p, p_star, prob, grid) >= -1e-10
