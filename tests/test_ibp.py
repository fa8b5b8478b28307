import math

import numpy as np
import pytest
from scipy.special import logsumexp, xlogy

import saddlebary as sb
import saddlebary.ibp as ibp
from saddlebary import GaussianSuiteSpec, gaussian_suite
from saddlebary.cli import main
from saddlebary.core import _clamped_exp, _form_plans
from conftest import random_problem


@pytest.fixture(scope="module")
def gaussian_problem():
    measures, grid = gaussian_suite(GaussianSuiteSpec(seed=0))
    cost = sb.grid_cost(sb.Grid1D(points=grid))
    return sb.BarycenterProblem(measures=measures, cost=sb.CostData(C=cost.C / cost.d_inf))


class TestConfig:
    def test_rejects_bad_reg(self):
        with pytest.raises(sb.ConfigError):
            sb.IBPConfig(reg=0.0, iters=10)

    def test_rejects_bad_iters(self):
        with pytest.raises(sb.ConfigError):
            sb.IBPConfig(reg=0.1, iters=0)

    @pytest.mark.parametrize("iters", [2.5, 3.0])
    def test_rejects_non_integer_iters(self, iters):
        # the sweep loop's range() takes integers only
        with pytest.raises(sb.ConfigError):
            sb.IBPConfig(reg=0.1, iters=iters)


class TestInstability:
    def test_naive_tiny_reg_degenerates(self, gaussian_problem):
        bary, report = sb.ibp_barycenter(gaussian_problem, sb.IBPConfig(reg=1e-5, iters=2000))
        assert bary is None
        assert report.status == "underflow-degenerate"

    def test_stabilized_tiny_reg_stays_on_simplex(self, gaussian_problem):
        bary, report = sb.ibp_barycenter(
            gaussian_problem, sb.IBPConfig(reg=1e-5, iters=30, stabilized=True)
        )
        assert bary is not None
        assert np.all(np.isfinite(bary))
        assert np.all(bary >= 0)
        assert bary.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_kernel_row_detected(self):
        # strictly positive off-diagonal costs with a huge scale: every
        # kernel entry underflows, including full rows
        C = np.full((3, 3), 1.0)
        prob = sb.BarycenterProblem(
            measures=np.full((2, 3), 1.0 / 3.0), cost=sb.CostData(C=C)
        )
        bary, report = sb.ibp_barycenter(prob, sb.IBPConfig(reg=1e-6, iters=5))
        assert bary is None
        assert report.status == "underflow-degenerate"
        assert report.iterations_run == 0


NAIVE_UNDERFLOW_INPUTS = {
    # v underflows to 0 under the mass 5e-324, where the merit takes log 0
    "column-scaling-underflow": (
        "# grid: 0.0,0.5,1.0\n5e-324,0.5,0.5\n0.5,0.5,0\n", []
    ),
    # u = u * p / UKv overflows before the finiteness check
    "row-scaling-overflow": (
        "# grid: 0.5438833638979692,2.221153200790804,3.2211532007908037,4.221153200790804\n"
        "0.15512739512187845,0.22777520597884704,1.0,0.3287365222598073\n"
        "0.13757679905921438,0.8351087780442564,0.9794107739067525,0.0\n"
        "0.034352730264955444,0.366962409400291,0.5,0.6852574307898845\n",
        ["--normalize", "--normalize-cost", "--reg", "1e-4"],
    ),
    # the kernel is diagonal and the plans cannot meet both marginals: the
    # scalings drift until v = Q / uK overflows, past sweep 1000
    "diagonal-kernel": ("# grid: 0,1,2\n0.2,0.3,0.5\n0.5,0.25,0.25\n", ["--reg", "1e-3"]),
}


@pytest.mark.parametrize("case", sorted(NAIVE_UNDERFLOW_INPUTS))
def test_naive_underflow_exits_4_without_warning(tmp_path, capsys, case):
    # the suite turns a RuntimeWarning into an error, which main does not catch
    text, flags = NAIVE_UNDERFLOW_INPUTS[case]
    path = tmp_path / "in.csv"
    path.write_text(text)
    argv = ["barycenter", "--input", str(path), "--algo", "ibp", *flags,
            "--timing", "off", "--out", str(tmp_path / "out")]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert "status: underflow-degenerate" in out and err == ""
    assert not (tmp_path / "out" / "barycenter.csv").exists()


@pytest.mark.parametrize(
    "text, reg",
    [
        # costs up to 1e20 on a grid point at 1e10
        ("# grid: 0,1,2,10000000002\n0,0,0,1\n0,0,5e-324,5e-324\n0,5e-324,0,0\n", "1"),
        ("# grid: 0,1\n1,0\n1,5e-324\n5e-324,1\n", "1e-20"),
    ],
)
def test_stabilized_rejects_a_cost_over_reg_past_2_to_52(tmp_path, capsys, text, reg):
    # max(C) / reg of 1e20 rounds the blocks' exponents by 2^14: an exp
    # overflowed within 100 sweeps.  At 2^51 the same input runs.
    path = tmp_path / "in.csv"
    path.write_text(text)
    argv = ["barycenter", "--input", str(path), "--algo", "ibp", "--stabilized", "--normalize",
            "--max-iters", "300", "--timing", "off", "--out", str(tmp_path / "out")]
    assert main(argv + ["--reg", reg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2^52" in err and "raise reg" in err
    points = [float(t) for t in text.split("\n")[0].removeprefix("# grid: ").split(",")]
    inside = (points[-1] - points[0]) ** 2 / 2.0**51
    assert main(argv + ["--reg", repr(inside)]) == 0
    assert capsys.readouterr().err == ""


class TestAgreement:
    def test_modes_agree_at_moderate_reg(self, gaussian_problem):
        cfg_args = dict(reg=0.05, iters=300)
        naive, rep_naive = sb.ibp_barycenter(gaussian_problem, sb.IBPConfig(**cfg_args))
        stab, rep_stab = sb.ibp_barycenter(
            gaussian_problem, sb.IBPConfig(stabilized=True, **cfg_args)
        )
        assert rep_naive.status != "underflow-degenerate"
        assert 0.5 * np.abs(naive - stab).sum() <= 1e-8

    def test_modes_agree_on_random_small_problem(self):
        prob = random_problem(70, 12, 3, zero_diagonal=True)
        naive, _ = sb.ibp_barycenter(prob, sb.IBPConfig(reg=0.1, iters=400))
        stab, _ = sb.ibp_barycenter(prob, sb.IBPConfig(reg=0.1, iters=400, stabilized=True))
        assert 0.5 * np.abs(naive - stab).sum() <= 1e-8


class TestMonotoneObjective:
    @pytest.mark.parametrize("stabilized", [False, True])
    def test_objective_non_increasing(self, gaussian_problem, stabilized):
        _, report = sb.ibp_barycenter(
            gaussian_problem,
            sb.IBPConfig(reg=0.1, iters=150, stabilized=stabilized),
            log_stride=1,
        )
        objectives = np.array([r.objective for r in report.records])
        assert np.all(np.diff(objectives) <= 1e-12)

    @pytest.mark.filterwarnings("error")
    def test_stabilized_merit_quiet_on_zero_mass(self):
        # log(0) = -inf in psi must be masked before it meets a zero mass
        grid = sb.Grid1D(points=np.array([0.0, 0.5, 1.0]))
        prob = sb.BarycenterProblem(
            measures=np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]), cost=sb.grid_cost(grid)
        )
        _, report = sb.ibp_barycenter(
            prob, sb.IBPConfig(reg=0.01, iters=20, stabilized=True), log_stride=1
        )
        assert all(np.isfinite(r.objective) for r in report.records)

    def test_gap_column_finite(self, gaussian_problem):
        _, report = sb.ibp_barycenter(gaussian_problem, sb.IBPConfig(reg=0.1, iters=100))
        assert all(np.isfinite(r.duality_gap) for r in report.records)


class TestSingleMeasure:
    def test_entropic_bias_shrinks_with_reg(self):
        rng = np.random.default_rng(71)
        n = 20
        pts = np.linspace(0.0, 1.0, n)
        grid = sb.Grid1D(points=pts)
        q = rng.dirichlet(np.ones(n))
        prob = sb.BarycenterProblem(measures=q[None, :], cost=sb.grid_cost(grid))
        gaps = []
        for reg in (0.1, 0.01, 0.001):
            bary, report = sb.ibp_barycenter(prob, sb.IBPConfig(reg=reg, iters=3000))
            assert report.status in ("ok", "iteration-cap")
            gaps.append(sb.optimality_gap(bary, q, prob, grid))
        assert all(g >= -1e-10 for g in gaps)
        assert gaps[-1] <= gaps[0]
        assert gaps[-1] <= 5e-4


class TestIterationCap:
    def test_cap_reported(self, gaussian_problem):
        bary, report = sb.ibp_barycenter(gaussian_problem, sb.IBPConfig(reg=0.05, iters=3))
        assert bary is not None
        assert report.status == "iteration-cap"


class TestCertifiedBarycenter:
    @pytest.mark.parametrize("stabilized", [False, True])
    def test_returned_barycenter_is_the_certified_one(self, gaussian_problem, stabilized):
        # the stabilized runner used to return its own normalisation of the
        # log barycenter, which differed from the certified one in last bits
        cfg = sb.IBPConfig(reg=1e-3 if stabilized else 0.05, stabilized=stabilized)
        bary, report = sb.ibp_barycenter(gaussian_problem, cfg)
        assert report.status == "ok"
        assert np.array_equal(bary, report.final_x.bary)
        assert np.array_equal(report.final_bary, report.final_x.bary)


def _reference_naive(prob, cfg, run):
    """Naive sweep that forms `u @ K` afresh at the start of every sweep."""
    n, m = prob.n, prob.m
    C, Q = prob.cost.C, prob.measures
    K = np.exp(-C / cfg.reg)
    u = np.full((m, n), 1.0 / n)
    v = p = None

    def step(k):
        nonlocal u, v, p
        v = Q / (u @ K)
        UKv = u * (v @ K.T)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.exp(np.log(UKv).mean(axis=0))
            u = u * p[None, :] / UKv
        return np.abs(v * (u @ K) - Q).sum(axis=1).max() <= ibp.TOL

    def certified():
        plans = u[:, :, None] * K[None, :, :] * v[:, None, :]
        merit = ibp._scaling_merit(
            float((u * (v @ K.T)).sum()), float(xlogy(Q, v).sum()), cfg.reg, m
        )
        return (*ibp._normalized_pair(plans.reshape(m, n * n), p, prob), merit)

    run(step, certified)


def _reference_stabilized(prob, cfg, run):
    """Absorbed-kernel sweep that forms the column sums u @ K afresh at the start of every sweep."""
    n, m = prob.n, prob.m
    logK = -prob.cost.C / cfg.reg
    Q = prob.measures
    support = Q > 0
    logQ = np.log(Q, out=np.full((m, n), -np.inf), where=support)
    f = np.full((m, n), -math.log(n))
    g = np.where(support, -(logK + f[:, :, None]).max(axis=1), -np.inf)
    K = np.empty((m, n, n))

    def rebuild():
        np.add(logK, f[:, :, None], out=K)
        _clamped_exp(np.add(K, g[:, None, :], out=K))

    rebuild()
    log_u, u = np.zeros((m, n)), np.ones((m, n))
    v = psi = log_p = None

    def step(k):
        nonlocal log_u, u, v, psi, log_p
        col = (u[:, None, :] @ K)[:, 0]
        log_col = ibp._log_reduction(
            col, support, lambda i, l: logK[:, l].T + (f + log_u)[i] + g[i, l, None]
        )
        log_v = np.subtract(logQ, log_col, out=np.full((m, n), -np.inf), where=support)
        psi = np.add(g, log_v, out=np.zeros((m, n)), where=support)
        if np.abs(log_v, out=np.zeros((m, n)), where=support).max() > ibp.SCALING_LOG_BOUND:
            np.copyto(g, psi, where=support)
            rebuild()
            log_v = np.where(support, 0.0, -np.inf)
        v = np.exp(log_v)
        kv = (K @ v[:, :, None])[:, :, 0]
        log_kv = ibp._log_reduction(kv, True, lambda i, j: logK[j] + (g + log_v)[i] + f[i, j, None])
        log_p = (log_u + log_kv).mean(axis=0)
        log_u = log_p - log_kv
        if np.abs(log_u).max() > ibp.SCALING_LOG_BOUND:
            np.add(f, log_u, out=f)
            rebuild()
            log_u = np.zeros((m, n))
        u = np.exp(log_u)
        return np.abs(v * (u[:, None, :] @ K)[:, 0] - Q).sum(axis=1).max() <= ibp.TOL

    def certified():
        plans = u[:, :, None] * K * v[:, None, :]
        p = np.exp(log_p)
        merit = ibp._scaling_merit(m * float(p.sum()), float((Q * psi).sum()), cfg.reg, m)
        return (*ibp._normalized_pair(plans.reshape(m, n * n), p, prob), merit)

    run(step, certified)


def _log_domain_stabilized(prob, cfg, run):
    """Stabilized sweep on log potentials: three scipy logsumexp passes over all plan entries."""
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
        return np.abs(col - Q).sum(axis=1).max() <= ibp.TOL

    def certified():
        plans = np.exp(phi[:, :, None] + logK[None, :, :] + psi[:, None, :])
        merit = ibp._scaling_merit(
            float(np.exp(phi + log_row).sum()),
            float((Q * np.where(Q > 0, psi, 0.0)).sum()),
            cfg.reg,
            m,
        )
        return (*ibp._normalized_pair(plans.reshape(m, n * n), np.exp(log_p), prob), merit)

    run(step, certified)


class TestCarriedColumnReduction:
    @pytest.mark.parametrize("stabilized", [False, True])
    def test_records_bitwise_equal_to_recomputing_sweep(
        self, gaussian_problem, monkeypatch, stabilized
    ):
        # a sweep reuses the column reduction of the previous sweep's stop
        # test; recomputing it instead must not change a single bit
        cfg = sb.IBPConfig(reg=1e-3, stabilized=stabilized)
        bary, report = sb.ibp_barycenter(gaussian_problem, cfg, log_stride=1, timer=lambda: 0.0)
        name = "_ibp_stabilized" if stabilized else "_ibp_naive"
        monkeypatch.setattr(ibp, name, _reference_stabilized if stabilized else _reference_naive)
        ref_bary, ref = sb.ibp_barycenter(gaussian_problem, cfg, log_stride=1, timer=lambda: 0.0)
        assert report.status == ref.status == "ok"
        assert len(report.records) == report.iterations_run > 100
        assert report.records == ref.records
        assert bary.tobytes() == ref_bary.tobytes()


def _zero_mass_problem():
    grid = sb.Grid1D(points=np.array([0.0, 0.5, 1.0]))
    return sb.BarycenterProblem(
        measures=np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]), cost=sb.grid_cost(grid)
    )


class TestUnderflowingMass:
    # At reg 1e-4, sweep 1's barycenter on the zero-mass input has mass about
    # e^-1250: p and every plan underflow to 0 in linear form, so the
    # certified pair is formed from its logs less the log mass.
    def test_every_record_is_finite(self):
        prob = _zero_mass_problem()
        grid = sb.Grid1D(points=np.array([0.0, 0.5, 1.0]))
        p_star = sb.barycenter_1d_quantile(prob.measures, grid)
        calls = []

        def oracle(bary):
            calls.append(bary.copy())
            return sb.optimality_gap(bary, p_star, prob, grid)

        cfg = sb.IBPConfig(reg=1e-4, iters=200, stabilized=True)
        bary, report = sb.ibp_barycenter(prob, cfg, log_stride=1, oracle=oracle)
        assert report.status == "ok" and len(report.records) == report.iterations_run > 1
        for r in report.records:
            assert all(map(math.isfinite, (r.duality_gap, r.objective, r.optimality_gap)))
        for barycenter in calls:
            assert np.all(barycenter >= 0.0) and abs(barycenter.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(bary, [1.0 / 3.0, 2.0 / 3.0, 0.0], atol=1e-6)

    def test_cli_run_exits_0_with_finite_records(self, tmp_path, capsys):
        path = tmp_path / "zero-mass.csv"
        path.write_text("# grid: 0.0,0.5,1.0\n1,0,0\n0,.5,.5\n")
        argv = ["barycenter", "--input", str(path), "--algo", "ibp", "--stabilized",
                "--reg", "1e-4", "--log-stride", "1", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert "status: ok" in capsys.readouterr().out
        rows = [row.split(",") for row in (tmp_path / "report.csv").read_text().splitlines()[1:]]
        # duality gap, objective and the exact 1-D oracle's optimality gap
        assert len(rows) > 1 and all(math.isfinite(float(v)) for row in rows for v in row[2:])

    @pytest.mark.parametrize("shift", [0.0, -1000.0])
    def test_log_formed_pair_is_the_normalized_pair(self, shift):
        # plans diag(u_i) K diag(v_i) with row sums p: the linear pair, and
        # the log-formed pair of the same logs shifted by 1000 below exp's
        # underflow bound, where the linear form is all zeros
        n, m = 5, 3
        prob = random_problem(8, n, m)
        rng = np.random.default_rng(9)
        logK = -prob.cost.C / 0.05
        log_u, log_v = rng.uniform(-3.0, 3.0, (m, n)), rng.uniform(-3.0, 3.0, (m, n))
        K = np.exp(logK)
        u, v = np.exp(log_u), np.exp(log_v)
        p = u[0] * (K @ v[0])
        u = p / (v @ K.T)  # every plan's row sums are p
        x, y = ibp._normalized_pair(_form_plans(K, u, v, np.empty((m, n * n))), p, prob)
        ours, ours_y = ibp._log_formed_pair(logK, np.log(u) + shift, log_v, np.log(p) + shift, prob)
        np.testing.assert_allclose(ours.plans, x.plans, rtol=1e-13, atol=0)
        np.testing.assert_allclose(ours.bary, x.bary, rtol=1e-13, atol=0)
        assert np.array_equal(ours_y.duals, y.duals)


class TestLogDomainOracle:
    @pytest.mark.parametrize(
        "case, reg, iters",
        [
            ("gaussian", 0.1, 10000),
            ("gaussian", 1e-2, 10000),
            ("gaussian", 1e-3, 10000),
            ("gaussian", 3e-4, 10000),
            ("gaussian", 1e-5, 30),
            ("random", 0.1, 10000),
            ("zero-mass", 0.01, 20),
            # the first sweep moves log u by about 500: the reductions of
            # rows whose block entries the clamp dropped are taken exactly
            ("zero-mass", 1e-3, 200),
            ("non-zero-diagonal", 1e-4, 100),
        ],
    )
    def test_absorbed_sweep_matches_the_log_domain_sweep(
        self, gaussian_problem, monkeypatch, case, reg, iters
    ):
        prob = {
            "gaussian": lambda: gaussian_problem,
            "random": lambda: random_problem(70, 12, 3, zero_diagonal=True),
            "zero-mass": _zero_mass_problem,
            "non-zero-diagonal": lambda: random_problem(8, 30, 4),
        }[case]()
        cfg = sb.IBPConfig(reg=reg, iters=iters, stabilized=True)
        builds = []
        monkeypatch.setattr(ibp, "_clamped_exp", lambda e: builds.append(1) or _clamped_exp(e))
        bary, report = sb.ibp_barycenter(prob, cfg, log_stride=1)
        monkeypatch.setattr(ibp, "_ibp_stabilized", _log_domain_stabilized)
        ref_bary, ref = sb.ibp_barycenter(prob, cfg, log_stride=1)
        assert report.status == ref.status != "underflow-degenerate"
        assert report.iterations_run == ref.iterations_run == len(report.records)
        for ours, theirs in zip(report.records, ref.records, strict=True):
            assert abs(ours.duality_gap - theirs.duality_gap) <= 1e-12
            assert abs(ours.objective - theirs.objective) <= 1e-12 * abs(theirs.objective)
        np.testing.assert_allclose(bary, ref_bary, rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.final_x.plans, ref.final_x.plans, rtol=0, atol=1e-12)
        if reg == 1e-5:
            assert len(builds) - 1 > 1  # rebuilt more than once after the first build


def test_log_reduction_takes_entries_below_the_floor_exactly():
    # row 0's sums are ordinary; row 1's terms lie far below the floor, and
    # partly below the clamp and the underflow bound of exp
    rng = np.random.default_rng(5)
    exponents = np.stack([rng.uniform(-5.0, 0.0, (3, 4)), rng.uniform(-1000.0, -600.0, (3, 4))])
    where = np.array([[True, False, True], [True, True, True]])
    sums = np.exp(exponents).sum(axis=2)
    logs = ibp._log_reduction(sums, where, lambda i, j: exponents[i, j])
    assert np.all(logs[~where] == -np.inf)
    np.testing.assert_allclose(logs[where], logsumexp(exponents, axis=2)[where], rtol=1e-14)
