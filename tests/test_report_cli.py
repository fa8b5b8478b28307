import argparse
import ast
import csv
import hashlib
import math
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import saddlebary as sb
import saddlebary.data as data
from saddlebary import GaussianSuiteSpec, gaussian_suite, load_histograms
from saddlebary.cli import build_parser, main
from saddlebary.report import REPORT_COLUMNS
from conftest import random_dual, random_primal, random_problem


class TestLoadHistograms:
    def test_basic_rows(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("1.0,0.0\n0.0,1.0\n")
        measures, grid = load_histograms(path)
        assert measures.shape == (2, 2)
        assert grid is None

    def test_grid_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("# grid: 0.0, 0.5, 1.0\n0.5,0.25,0.25\n")
        measures, grid = load_histograms(path)
        assert np.array_equal(grid, [0.0, 0.5, 1.0])

    def test_rejects_wrong_mass(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("0.25,0.25\n")
        with pytest.raises(sb.ParseError, match="line 1"):
            load_histograms(path)

    def test_normalize_rescales(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("0.25,0.25\n")
        measures, _ = load_histograms(path, normalize=True)
        assert np.allclose(measures, [[0.5, 0.5]])

    def test_rejects_negative_mass(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("1.5,-0.5\n")
        with pytest.raises(sb.ParseError, match="negative"):
            load_histograms(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("1.0,0.0\n0.5,0.25,0.25\n")
        with pytest.raises(sb.ParseError, match="line 2"):
            load_histograms(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("1.0,0.0\nnot,a,number\n")
        with pytest.raises(sb.ParseError, match="line 2"):
            load_histograms(path)


class TestLoadCost:
    def test_rows_and_comments(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# a comment\n0,1\n\n1,0\n")
        assert np.array_equal(sb.load_cost_csv(path), [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("text", ["0,1\n1,0,1\n", "0,1\n1,x\n", "0,1\n1,nan\n"])
    def test_bad_row_names_its_line(self, tmp_path, text):
        path = tmp_path / "c.csv"
        path.write_text(text)
        with pytest.raises(sb.ParseError, match="line 2"):
            sb.load_cost_csv(path)


class TestGaussianSuite:
    def test_defaults(self):
        spec = GaussianSuiteSpec()
        assert (spec.support, spec.seed) == (100, 0)
        assert (data.SUITE_COUNT, data.SUPPORT_RANGE) == (10, (-10.0, 10.0))
        assert (data.MEAN_RANGE, data.VAR_RANGE) == ((-5.0, 5.0), (0.8, 1.8))
        measures, grid = gaussian_suite(spec)
        assert measures.shape == (10, 100)
        assert np.allclose(measures.sum(axis=1), 1.0, atol=1e-12)
        assert grid[0] == -10.0 and grid[-1] == 10.0

    def test_seed_determinism(self):
        a, _ = gaussian_suite(GaussianSuiteSpec(seed=7))
        b, _ = gaussian_suite(GaussianSuiteSpec(seed=7))
        assert np.array_equal(a, b)
        c, _ = gaussian_suite(GaussianSuiteSpec(seed=8))
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 4099, 1, 2**64 + 3, 10**40])
    @pytest.mark.parametrize("support", [100, 20])
    def test_rows_are_the_documented_gaussians(self, seed, support):
        # ten means drawn from U(-5, 5), then ten variances from U(0.8, 1.8),
        # each row exp(-(x - mu)^2 / (2 sigma^2)) on linspace(-10, 10) normalized:
        # bit for bit NumPy's default_rng(seed).uniform construction
        rng = np.random.default_rng(seed)
        means, variances = rng.uniform(-5.0, 5.0, 10), rng.uniform(0.8, 1.8, 10)
        x = np.linspace(-10.0, 10.0, support)
        rows = np.exp(-((x - means[:, None]) ** 2) / (2.0 * variances[:, None]))
        measures, grid = gaussian_suite(GaussianSuiteSpec(support=support, seed=seed))
        assert np.array_equal(grid, x)
        assert np.array_equal(measures, rows / rows.sum(axis=1, keepdims=True))

    def test_draws_are_numpys_default_stream(self):
        # NumPy is the reference; seeds of several 32-bit words take
        # SeedSequence's extra-entropy path
        for seed in [*range(301), 4099, 2**32, 2**64 + 3, 2**127 + 11, 2**130 + 5, 10**40]:
            assert data._uniform_draws(seed, 20) == np.random.default_rng(seed).random(20).tolist()

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.integers(0, 2**200 - 1))
    def test_draws_match_numpy_for_any_seed(self, seed):
        assert data._uniform_draws(seed, 20) == np.random.default_rng(seed).random(20).tolist()

    @pytest.mark.parametrize("seed, digest", [
        (0, "ed27922552dc6a2cbb0d2f75e5ed9f087f71ffe8590af890859b2e9a3b142601"),
        (1, "13623eec7be8be4a0afc86ae43636ee9a645ff906b92533639ab9f43f3280813"),
        (4099, "04333c430169811c60d88fe38ddd507c6365675f8ef5ab0e55bc3f3c8663e39f"),
    ])
    def test_suite_bytes_are_pinned(self, seed, digest):
        # little-endian measures then grid, as the suite was first published;
        # holds whatever a later NumPy does to its Generator methods
        measures, grid = gaussian_suite(GaussianSuiteSpec(seed=seed))
        payload = measures.astype("<f8").tobytes() + grid.astype("<f8").tobytes()
        assert hashlib.sha256(payload).hexdigest() == digest

    @pytest.mark.parametrize("fields", [
        {"support": 0}, {"support": 1}, {"support": -1}, {"support": 2.5},
        {"support": "100"}, {"seed": -1}, {"seed": 1.5}, {"seed": None},
    ])
    def test_spec_rejects_fields(self, fields):
        with pytest.raises(sb.ConfigError):
            GaussianSuiteSpec(**fields)

    def test_spec_takes_numpy_integers(self):
        spec = GaussianSuiteSpec(support=np.int64(20), seed=np.uint32(4099))
        assert (spec.support, spec.seed) == (20, 4099)
        assert (type(spec.support), type(spec.seed)) == (int, int)

    def test_suite_run_loads_no_numpy_random(self, tmp_path):
        # conftest imports numpy.random here, so the check runs in a fresh interpreter
        code = (
            "import sys\n"
            "from saddlebary.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "assert main(['barycenter', '--algo', 'mp', '--gaussian', '--normalize-cost',\n"
            "             '--max-iters', '3', '--timing', 'off', '--out', out + '/mp']) == 0\n"
            "assert main(['gaussian-bench', '--normalize-cost', '--max-iters', '2',\n"
            "             '--timing', 'off', '--out', out + '/bench']) == 0\n"
            "print('numpy.random' in sys.modules)\n"
        )
        proc = _cli_subprocess("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
        assert (tmp_path / "bench" / "ibp_report.csv").exists()


class TestIteratesRoundTrip:
    def test_exact_replay(self, tmp_path):
        rng = np.random.default_rng(90)
        prob = random_problem(90, 4, 2)
        x, y = random_primal(rng, 4, 2), random_dual(rng, 4, 2)
        path = tmp_path / "iterates.csv"
        sb.write_iterates_csv(prob, x, y, path)
        prob2, x2, y2 = sb.read_iterates_csv(path)
        assert np.array_equal(prob2.cost.C, prob.cost.C)
        assert np.array_equal(prob2.measures, prob.measures)
        assert np.array_equal(x2.plans, x.plans)
        assert np.array_equal(x2.bary, x.bary)
        assert np.array_equal(y2.duals, y.duals)
        assert sb.duality_gap(x2, y2, prob2) == sb.duality_gap(x, y, prob)

    def test_bytes_are_the_csv_writer_bytes(self, tmp_path):
        # the writer's bytes against csv.writer with one repr per value, on
        # signed zeros, subnormals, exponent forms and long mantissas
        awkward = [-0.0, 0.0, 5e-324, 1e-05, 1e16, 1.0, 0.1 + 0.2, 1.0 / 3.0,
                   np.nextafter(1.0, 2.0), 123456789.12345679, 2.5e-310, 1e22, -1.7976931348623157e308]
        n, m = 4, 2
        cost = np.abs(np.resize(awkward, (n, n)))
        measures = np.array([[5e-324, 1e-05, 0.1 + 0.2, 1.0 - 1e-05 - (0.1 + 0.2)], [0.25] * 4])
        # a cost of 1.8e308 is too large for a BarycenterProblem (its
        # certificate overflows), so the writer gets the two arrays it reads
        prob = types.SimpleNamespace(measures=measures, cost=types.SimpleNamespace(C=cost))
        x = sb.PrimalPoint(plans=np.resize(awkward, (m, n * n)), bary=np.resize(awkward[::-1], n))
        y = sb.DualPoint(duals=np.resize(awkward[3:], (m, 2 * n)))
        path, reference = tmp_path / "iterates.csv", tmp_path / "reference.csv"
        sb.write_iterates_csv(prob, x, y, path)
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "index", "values..."])
            for kind, rows in [("cost_row", prob.cost.C), ("measure", prob.measures),
                               ("plan", x.plans), ("bary", [x.bary]), ("dual", y.duals)]:
                for i, row in enumerate(rows):
                    writer.writerow([kind, i] + [repr(float(v)) for v in row])
        assert path.read_bytes() == reference.read_bytes()
        assert b"-0.0," in path.read_bytes() and b"5e-324" in path.read_bytes()

    def test_report_and_barycenter_bytes_are_the_csv_writer_bytes(self, tmp_path):
        # the same reference for the other two files: csv.writer, repr per
        # float, the elapsed column to six places, an empty optimality gap
        awkward = [-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, 1.0 / 3.0, 2.5e-310, 1e22, np.inf]
        report = sb.RunReport(config={})
        for k, value in enumerate(awkward, start=1):
            report.add(k, 1.0 / k, value, -value, None if k % 3 else value / 7.0)
        bary = np.array(awkward[:-1])
        path, reference = tmp_path / "out.csv", tmp_path / "reference.csv"
        sb.write_report_csv(report, path)
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_COLUMNS)
            for r in report.records:
                writer.writerow([r.iteration, f"{r.elapsed_seconds:.6f}", repr(r.duality_gap),
                                 repr(r.objective),
                                 "" if r.optimality_gap is None else repr(r.optimality_gap)])
        assert path.read_bytes() == reference.read_bytes()
        sb.write_barycenter_csv(bary, path)
        with open(reference, "w", newline="") as fh:
            csv.writer(fh).writerow([repr(float(v)) for v in bary])
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("column", [0, 2])
    def test_quoted_field_is_a_parse_error(self, tmp_path, column):
        # the writer never quotes; a quoted kind or value names its line
        rng = np.random.default_rng(92)
        prob = random_problem(92, 3, 2)
        path = tmp_path / "iterates.csv"
        sb.write_iterates_csv(prob, random_primal(rng, 3, 2), random_dual(rng, 3, 2), path)
        lines = path.read_bytes().split(b"\r\n")
        fields = lines[4].split(b",")
        assert fields[0] == b"measure"
        fields[column] = b'"' + fields[column] + b'"'
        lines[4] = b",".join(fields)
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(sb.ParseError, match="line 5"):
            sb.read_iterates_csv(path)

    def test_cost_rescaling_scales_certificate(self, tmp_path):
        rng = np.random.default_rng(91)
        prob = random_problem(91, 3, 2)
        x, y = random_primal(rng, 3, 2), random_dual(rng, 3, 2)
        gap = sb.duality_gap(x, y, prob)
        for lam in (0.25, 3.0):
            cost = sb.CostData(C=lam * prob.cost.C)
            scaled = sb.BarycenterProblem(measures=prob.measures, cost=cost)
            assert sb.duality_gap(x, y, scaled) == pytest.approx(lam * gap, rel=1e-12)

    @pytest.fixture(scope="class")
    def suite(self):
        measures, grid = gaussian_suite(GaussianSuiteSpec(seed=0))
        cost = sb.grid_cost(sb.Grid1D(points=grid))
        return sb.BarycenterProblem(measures=measures, cost=sb.CostData(C=cost.C / cost.d_inf))

    @pytest.mark.parametrize("algo", ["mp", "de", "ibp-stabilized", "ibp-naive"])
    def test_solver_output_round_trips(self, suite, tmp_path, algo):
        # every solver's output lies in the domain `read_iterates_csv` enforces
        if algo == "mp":
            x, y, _ = sb.run_mirror_prox(suite, 0.05, max_iters=300)
        elif algo == "de":
            x, y, _ = sb.run_dual_extrapolation(suite, 0.25, max_outer=50)
        else:
            cfg = sb.IBPConfig(reg=1e-3 if algo == "ibp-stabilized" else 1e-2,
                               stabilized=algo == "ibp-stabilized")
            _, report = sb.ibp_barycenter(suite, cfg)
            x, y = report.final_x, report.final_y
        path = tmp_path / "iterates.csv"
        sb.write_iterates_csv(suite, x, y, path)
        prob, x2, y2 = sb.read_iterates_csv(path)
        assert np.array_equal(x2.plans, x.plans) and np.array_equal(y2.duals, y.duals)
        assert sb.duality_gap(x2, y2, prob) == sb.duality_gap(x, y, suite)


class TestReportValidation:
    def test_iterations_strictly_increasing(self):
        report = sb.RunReport(config={})
        report.add(1, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            report.add(1, 0.0, 0.5, 0.5)


def run_cli(args):
    return main(args)


class TestCLI:
    def write_problem(self, tmp_path):
        path = tmp_path / "hists.csv"
        path.write_text("# grid: 0.0, 0.5, 1.0\n1.0,0.0,0.0\n0.0,0.0,1.0\n")
        return str(path)

    def test_mp_run_emits_replayable_outputs(self, tmp_path, capsys):
        inp = self.write_problem(tmp_path)
        out = tmp_path / "run"
        code = run_cli(
            ["barycenter", "--algo", "mp", "--input", inp, "--eps", "0.1",
             "--out", str(out), "--timing", "off"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "final duality gap" in printed
        report_rows = list(csv.reader(open(out / "report.csv")))
        assert report_rows[0] == list(REPORT_COLUMNS)
        stored_gap = float(report_rows[-1][2])
        prob, x, y = sb.read_iterates_csv(out / "iterates.csv")
        assert sb.duality_gap(x, y, prob) == pytest.approx(stored_gap, abs=1e-10)
        bary = np.loadtxt(out / "barycenter.csv", delimiter=",")
        assert bary.shape == (3,)
        assert bary.sum() == pytest.approx(1.0, abs=1e-9)

    def test_gap_subcommand_replays(self, tmp_path, capsys):
        inp = self.write_problem(tmp_path)
        out = tmp_path / "run"
        run_cli(["barycenter", "--algo", "de", "--input", inp, "--eps", "0.4",
                 "--out", str(out), "--timing", "off"])
        final = capsys.readouterr().out
        code = run_cli(["gap", "--iterates", str(out / "iterates.csv")])
        assert code == 0
        replay = capsys.readouterr().out
        assert replay.split(":")[1].strip() in final

    def test_deterministic_bytes(self, tmp_path):
        args = ["barycenter", "--algo", "mp", "--gaussian", "--seed", "3", "--eps", "0.5",
                "--normalize-cost", "--max-iters", "150", "--timing", "off"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        for name in ("report.csv", "barycenter.csv", "iterates.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("algo", ["mp", "de"])
    def test_eps_far_above_the_start_bound_exits_0(self, tmp_path, algo):
        # eps above twice de's start bound E0 (about 1,000 here): one sweep a prox call
        code = run_cli(
            ["barycenter", "--algo", algo, "--gaussian", "--normalize-cost", "--eps", "2000",
             "--out", str(tmp_path / algo), "--timing", "off"]
        )
        assert code == 0

    def test_ibp_underflow_exit_code(self, tmp_path):
        code = run_cli(
            ["barycenter", "--algo", "ibp", "--reg", "1e-5", "--gaussian",
             "--normalize-cost", "--out", str(tmp_path / "u"), "--timing", "off"]
        )
        assert code == 4

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,0.2\n")
        code = run_cli(["barycenter", "--algo", "mp", "--input", str(bad),
                        "--out", str(tmp_path / "x")])
        assert code == 2

    def test_missing_input_source_exit_code(self, tmp_path):
        code = run_cli(["barycenter", "--algo", "mp", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise sb.NumericalFailure("non-finite multiplicative update", iteration=7)

        monkeypatch.setattr("saddlebary.cli.run_mirror_prox", failing)
        out = tmp_path / "run"
        code = run_cli(["barycenter", "--algo", "mp", "--input", self.write_problem(tmp_path),
                        "--out", str(out), "--timing", "off"])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: non-finite multiplicative update (iteration 7)\n"
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("below", ["run", ""], ids=["below-a-file", "a-file"])
    def test_unwritable_out_exits_2_before_the_solve(self, tmp_path, capsys, monkeypatch, below):
        def solve(*args, **kwargs):
            raise AssertionError("the solver ran before --out was created")

        monkeypatch.setattr("saddlebary.cli.run_mirror_prox", solve)
        blocker = tmp_path / "plain-file"
        blocker.write_text("")
        out = blocker / below
        code = run_cli(["barycenter", "--algo", "mp", "--gaussian", "--normalize-cost",
                        "--out", str(out), "--timing", "off"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [["barycenter", "--algo", "mp", "--gaussian", "--scaling", "derived"],
         ["barycenter", "--algo", "de", "--gaussian", "--theta", "exact"],
         ["gaussian-bench", "--gaussian"]],
        ids=["scaling", "theta", "bench-gaussian"],
    )
    def test_unknown_option_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_input_and_gaussian_conflict(self, tmp_path):
        inp = self.write_problem(tmp_path)
        code = run_cli(["barycenter", "--algo", "mp", "--input", inp, "--gaussian",
                        "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("algo", ["mp", "de", "ibp", "ibp-stabilized"])
    def test_cost_scale_outside_the_step_sizes_exits_2(self, tmp_path, capsys, algo):
        # mp's and de's step sizes are multiples of 1 / max(C) and their
        # budgets of max(C) / eps.  A largest cost of 4e-320 (subnormal) or
        # 1e308 makes one of them non-finite.  ibp takes neither, but its
        # kernel exponent max(C) / reg overflows at 1e308.  A largest cost of
        # 2.25e-308, just above the smallest normal float, runs, and
        # --normalize-cost rescales either cost to largest entry 1.
        hists = tmp_path / "h.csv"
        rows = "0.2,0.3,0.5\n0.5,0.25,0.25\n"
        cost = tmp_path / "cost.csv"
        cost.write_text("0,1e308,1\n1,0,1\n1,1,0\n")
        solver = ["--algo", "ibp", "--stabilized"] if algo == "ibp-stabilized" else ["--algo", algo]

        def run(name, grid, *extra):
            hists.write_text(f"# grid: {grid}\n{rows}")
            argv = ["barycenter", *solver, "--input", str(hists), "--max-iters", "30",
                    "--timing", "off", "--out", str(tmp_path / name), *extra]
            return run_cli(argv), capsys.readouterr().err

        code, err = run("subnormal", "0,1e-160,2e-160")
        if algo.startswith("ibp"):
            assert (code, err) == (0, "")
        else:
            assert code == 2 and err.startswith("error:") and "subnormal" in err, err
            assert "--normalize-cost" in err
        code, err = run("huge", "0,1,2", "--cost", f"csv:{cost}")
        named = "largest cost 1e+308" if algo.startswith("ibp") else "cost scale"
        assert code == 2 and err.startswith("error:") and named in err, err
        assert "--normalize-cost" in err
        for name, grid, extra in (("subnormal-1", "0,1e-160,2e-160", []),
                                  ("huge-1", "0,1,2", ["--cost", f"csv:{cost}"])):
            assert run(name, grid, "--normalize-cost", *extra) == (0, "")
            assert sb.read_iterates_csv(tmp_path / name / "iterates.csv")[0].cost.d_inf == 1.0
        assert run("smallest-normal", "0,7.5e-155,1.5e-154") == (0, "")

    @pytest.mark.parametrize("stabilized", [False, True])
    def test_cost_too_large_for_the_certificate_exits_2(self, tmp_path, capsys, stabilized):
        # the certificate's 2 d_inf |residual|_1 overflowed on a 1e308 cost:
        # ibp, whose own checks pass at reg 1e10, certified nan and exited 0
        # (naive: 4).  Every solver and `gap` now reject a cost with
        # 10 max(m, 2) d_inf past the largest double; 8e306 at m = 2 still runs.
        hists = tmp_path / "h.csv"
        hists.write_text("# grid: 0,1,2\n0.2,0.3,0.5\n0.5,0.25,0.25\n")
        mode = ["--stabilized"] if stabilized else []

        def cost_file(name, off):
            path = tmp_path / f"{name}.csv"
            path.write_text("".join(
                ",".join("0" if j == k else off for k in range(3)) + "\n" for j in range(3)
            ))
            return path

        def run(*argv):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run_cli(list(argv))
            return code, capsys.readouterr()

        def barycenter(name, off, reg):
            return run("barycenter", "--algo", "ibp", *mode, "--reg", reg, "--input", str(hists),
                       "--cost", f"csv:{cost_file(name, off)}", "--timing", "off",
                       "--out", str(tmp_path / name))

        def rejected(code, captured):
            return (code == 2 and captured.out == "" and captured.err.startswith("error:")
                    and "--normalize-cost" in captured.err)

        assert rejected(*barycenter("huge", "1e308", "1e10"))
        code, captured = barycenter("inside", "8e306", "1e306")
        assert code == 0 and captured.err == "", captured.err
        assert math.isfinite(float(captured.out.split("\n")[0].removeprefix("final duality gap: ")))
        iterates = tmp_path / "inside" / "iterates.csv"
        code, captured = run("gap", "--iterates", str(iterates))
        assert code == 0 and math.isfinite(float(captured.out.removeprefix("duality gap: ")))
        # a feasible pair on the 1e308 cost, written by hand
        huge = cost_file("huge-cost", "1e308").read_text().splitlines()
        by_hand = tmp_path / "huge-iterates.csv"
        by_hand.write_text(
            "kind,index,values...\n"
            + "".join(f"cost_row,{j},{row}\n" for j, row in enumerate(huge))
            + "measure,0,0.2,0.3,0.5\nmeasure,1,0.5,0.25,0.25\n"
            + "plan,0,1,0,0,0,0,0,0,0,0\nplan,1,1,0,0,0,0,0,0,0,0\nbary,0,1,0,0\n"
            + "dual,0,0,0,0,0,0,0\ndual,1,0,0,0,0,0,0\n"
        )
        assert rejected(*run("gap", "--iterates", str(by_hand)))


class TestGaussianBenchCLI:
    def test_bench_emits_per_algorithm_reports(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = run_cli(
            ["gaussian-bench", "--seed", "1", "--eps", "0.4", "--max-iters", "120",
             "--normalize-cost", "--reg", "0.05", "--out", str(out), "--timing", "off",
             "--log-stride", "40"]
        )
        assert code == 0
        for algo in ("mp", "de", "ibp"):
            rows = list(csv.reader(open(out / f"{algo}_report.csv")))
            assert rows[0][0] == "iteration"
            assert len(rows) > 1
            # optimality-gap column is filled on the Gaussian suite
            assert rows[-1][4] != ""
        assert (out / "true_barycenter.csv").exists()
        printed = capsys.readouterr().out
        assert printed.count("status=") == 3

    def test_csv_cost_exits_2_before_the_solve(self, tmp_path, capsys, monkeypatch):
        # the exact-barycenter column is the squared-distance quantile barycenter
        def solve(*args, **kwargs):
            raise AssertionError("a solver ran on a csv cost")

        monkeypatch.setattr("saddlebary.cli.run_mirror_prox", solve)
        hists = tmp_path / "h.csv"
        hists.write_text("# grid: 0,1,2\n0.5,0.25,0.25\n0.2,0.3,0.5\n")
        cost = tmp_path / "c.csv"
        cost.write_text("0,1,4\n1,0,1\n4,1,0\n")
        out = tmp_path / "bench"
        code = run_cli(["gaussian-bench", "--input", str(hists), "--cost", f"csv:{cost}",
                        "--out", str(out)])
        assert code == 2
        assert "--cost sqdist" in capsys.readouterr().err
        assert not out.exists()


class TestGapCLIErrors:
    def test_missing_iterates_file(self, tmp_path):
        assert run_cli(["gap", "--iterates", str(tmp_path / "nope.csv")]) == 2

    def test_truncated_iterates_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("kind,index,values...\ncost_row,0,0.0,1.0\n")
        assert run_cli(["gap", "--iterates", str(bad)]) == 2

    def test_single_measure_gap_past_the_largest_double_exits_2(self, tmp_path, capsys):
        # at m = 1 the primal value reaches 9 d_inf and the dual value -8
        # d_inf: on a 1.5e307 cost this pair's (1.35e308, -6e307), a gap of
        # 13 d_inf, overflowed, and `gap` printed "duality gap: inf" with
        # exit 0.  8e306 keeps 17 d_inf finite and still replays.
        def iterates(off):
            path = tmp_path / f"{off}.csv"
            path.write_text(
                "kind,index,values...\n"
                + "".join(
                    f"cost_row,{j}," + ",".join("0" if j == k else off for k in range(3)) + "\n"
                    for j in range(3)
                )
                + "measure,0,0.5,0.5,0\nplan,0,0,0,1,0,0,0,0,0,0\nbary,0,0,0,1\n"
                + "dual,0,-1,-1,-1,1,1,-1\n"
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run_cli(["gap", "--iterates", str(path)])
            return code, capsys.readouterr()

        code, captured = iterates("1.5e307")
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "--normalize-cost" in captured.err
        code, captured = iterates("8e306")
        assert code == 0 and captured.err == ""
        assert float(captured.out.removeprefix("duality gap: ")) == pytest.approx(13 * 8e306)


def _cli_subprocess(*args):
    """`python -m saddlebary.cli ...` in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(sb.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


class TestLibraryWithoutCLI:
    def test_import_leaves_cli_out(self):
        proc = _cli_subprocess(
            "-c", "import sys, saddlebary; print('saddlebary.cli' in sys.modules)"
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    def test_import_loads_no_csv(self):
        # the package writes and reads its CSV rows itself
        proc = _cli_subprocess("-c", "import sys, saddlebary; print('csv' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_leaves_the_formatter_to_the_writers(self):
        # a run that writes no CSV does not compile the float formatter
        code = "import sys, saddlebary; print('saddlebary._floattext' in sys.modules)"
        proc = _cli_subprocess("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("module", ["saddlebary", "saddlebary.cli"])
    def test_import_loads_no_scipy(self, module):
        code = f"import sys, {module}; print([k for k in sys.modules if k.split('.')[0] == 'scipy'])"
        proc = _cli_subprocess("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_run_prints_no_runpy_warning(self):
        proc = _cli_subprocess("-m", "saddlebary.cli", "--help")
        assert proc.returncode == 0
        assert "RuntimeWarning" not in proc.stderr


class TestNonFiniteInputs:
    def test_histogram_with_nan(self):
        with pytest.raises(sb.DomainError):
            sb.validate_histogram([np.nan, 0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_cost_with_non_finite_entry(self, bad):
        with pytest.raises(sb.InvalidCostError):
            sb.CostData(C=[[0.0, bad], [1.0, 0.0]])

    @pytest.mark.parametrize("eps", [np.nan, np.inf, 5e-324, 1e-300, 1e-160])
    def test_config_builders_reject_eps(self, t1_problem, eps):
        # mp's budget 8 sqrt(6 n ln n) / eps is still finite at 1e-300 and 1e-160;
        # de's sweep budget 24 ln(2 E0 / eps) is not
        if not 1e-300 <= eps <= 1e-160:
            with pytest.raises(sb.ConfigError):
                sb.mp_config(t1_problem, eps)
        with pytest.raises(sb.ConfigError):
            sb.de_config(t1_problem, eps)

    @pytest.mark.parametrize("reg", [np.nan, np.inf])
    def test_ibp_config_rejects_reg(self, reg):
        with pytest.raises(sb.ConfigError):
            sb.IBPConfig(reg=reg)

    @pytest.mark.parametrize(
        "case",
        ["eps-nan-mp", "eps-nan-de", "reg-nan", "eps-nan-ibp", "eps-negative-ibp", "reg-nan-mp",
         "reg-nan-de", "stride-negative", "stride-zero", "nan-histogram",
         "inf-cost", "ragged-cost", "max-iters-zero-mp", "max-iters-zero-de",
         "max-iters-zero-ibp", "eps-min-mp", "eps-min-de", "eps-1e-300-de", "eps-1e-160-de",
         "non-utf8-input", "non-utf8-cost", "non-utf8-iterates", "negative-seed",
         "reg-overflow-stabilized", "reg-overflow-stabilized-csv-cost", "reg-overflow-naive",
         "sqdist-overflow"],
    )
    def test_cli_exits_2_without_traceback(self, tmp_path, case):
        hists = tmp_path / "h.csv"
        hists.write_text("# grid: 0.0, 0.5, 1.0\n0.5,0.25,0.25\n0.2,0.3,0.5\n")
        cost = tmp_path / "c.csv"
        cost.write_text("0,1,inf\n1,0,1\n1,1,0\n")
        bad_hists = tmp_path / "bad.csv"
        bad_hists.write_text("# grid: 0.0, 0.5, 1.0\nnan,0.5,0.5\n")
        finite_cost = tmp_path / "finite.csv"
        finite_cost.write_text("0,1,4\n1,0,1\n4,1,0\n")
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("0,1\n1,0,1\n")
        far = tmp_path / "far.csv"
        far.write_text("# grid: 0,1e200,2e200\n0.5,0.25,0.25\n")
        utf16 = tmp_path / "utf16.csv"
        utf16.write_bytes(b"\xff\xfe" + "0.5,0.5\n".encode("utf-16-le"))
        base = ["barycenter", "--input", str(hists), "--out", str(tmp_path / "o")]
        argv = {
            "eps-nan-mp": base + ["--algo", "mp", "--eps", "nan"],
            "eps-nan-de": base + ["--algo", "de", "--eps", "nan"],
            "reg-nan": base + ["--algo", "ibp", "--reg", "nan"],
            # checked although the solver ignores them
            "eps-nan-ibp": base + ["--algo", "ibp", "--eps", "nan"],
            "eps-negative-ibp": base + ["--algo", "ibp", "--eps", "-1"],
            "reg-nan-mp": base + ["--algo", "mp", "--reg", "nan"],
            "reg-nan-de": base + ["--algo", "de", "--reg", "nan"],
            "stride-negative": base + ["--algo", "mp", "--log-stride", "-3"],
            "stride-zero": base + ["--algo", "mp", "--log-stride", "0"],
            "nan-histogram": ["barycenter", "--input", str(bad_hists), "--algo", "mp",
                              "--out", str(tmp_path / "o")],
            "inf-cost": base + ["--algo", "mp", "--cost", f"csv:{cost}"],
            "ragged-cost": base + ["--algo", "mp", "--cost", f"csv:{ragged}"],
            "max-iters-zero-mp": base + ["--algo", "mp", "--max-iters", "0"],
            "max-iters-zero-de": base + ["--algo", "de", "--max-iters", "0"],
            "max-iters-zero-ibp": base + ["--algo", "ibp", "--max-iters", "0"],
            "eps-min-mp": base + ["--algo", "mp", "--eps", "5e-324"],
            "eps-min-de": base + ["--algo", "de", "--eps", "5e-324"],
            "eps-1e-300-de": base + ["--algo", "de", "--eps", "1e-300"],
            "eps-1e-160-de": base + ["--algo", "de", "--eps", "1e-160"],
            "non-utf8-input": ["barycenter", "--input", str(utf16), "--algo", "mp",
                               "--out", str(tmp_path / "o")],
            "non-utf8-cost": base + ["--algo", "mp", "--cost", f"csv:{utf16}"],
            "non-utf8-iterates": ["gap", "--iterates", str(utf16)],
            "negative-seed": ["barycenter", "--gaussian", "--seed", "-1", "--algo", "mp",
                              "--out", str(tmp_path / "o")],
            # -C / reg overflows: rejected before either mode sweeps
            "reg-overflow-stabilized": base + ["--algo", "ibp", "--reg", "1e-310", "--stabilized",
                                               "--max-iters", "5"],
            "reg-overflow-stabilized-csv-cost": base + [
                "--algo", "ibp", "--reg", "1e-310", "--stabilized", "--max-iters", "5",
                "--cost", f"csv:{finite_cost}",
            ],
            "reg-overflow-naive": base + ["--algo", "ibp", "--reg", "1e-310", "--max-iters", "5"],
            # the squared distances of the grid overflow
            "sqdist-overflow": ["barycenter", "--input", str(far), "--algo", "mp",
                                "--out", str(tmp_path / "o")],
        }[case]
        proc = _cli_subprocess("-m", "saddlebary.cli", *argv)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """Input files saved with a UTF-8 byte-order mark read as their bytes without it."""

    @staticmethod
    def _run(argv, capsys):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    @staticmethod
    def _files(tmp_path):
        hists = tmp_path / "h.csv"
        hists.write_text("# grid: 0,1,2\n0.5,0.25,0.25\n0.2,0.3,0.5\n")
        cost = tmp_path / "c.csv"
        cost.write_text("0,1,4\n1,0,1\n4,1,0\n")
        return hists, cost

    @staticmethod
    def _marked(path):
        marked = path.with_name("bom-" + path.name)
        marked.write_bytes(BOM + path.read_bytes())
        return marked

    @pytest.mark.parametrize("kind", ["input", "cost"])
    def test_barycenter_outputs_match(self, tmp_path, capsys, kind):
        hists, cost = self._files(tmp_path)
        results = []
        for mark in (False, True):
            out = tmp_path / f"run-{mark}"
            h = self._marked(hists) if mark and kind == "input" else hists
            c = self._marked(cost) if mark and kind == "cost" else cost
            argv = ["barycenter", "--algo", "mp", "--input", str(h), "--cost", f"csv:{c}",
                    "--max-iters", "5", "--timing", "off", "--out", str(out)]
            code, stdout, stderr = self._run(argv, capsys)
            assert code == 0, stderr
            files = [(out / name).read_bytes()
                     for name in ("report.csv", "barycenter.csv", "iterates.csv")]
            results.append((stdout, files))
        assert results[0] == results[1]

    def test_gap_matches(self, tmp_path, capsys):
        hists, _ = self._files(tmp_path)
        argv = ["barycenter", "--algo", "mp", "--input", str(hists), "--max-iters", "5",
                "--timing", "off", "--out", str(tmp_path / "run")]
        assert self._run(argv, capsys)[0] == 0
        iterates = tmp_path / "run" / "iterates.csv"
        plain = self._run(["gap", "--iterates", str(iterates)], capsys)
        marked = self._run(["gap", "--iterates", str(self._marked(iterates))], capsys)
        assert plain[0] == 0 and plain[1].startswith("duality gap: ")
        assert marked == plain

    def test_invalid_utf8_after_the_mark_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(BOM + b"# grid: 0,1\n0.5,\xff0.5\n")
        code, _, stderr = self._run(["barycenter", "--algo", "mp", "--input", str(bad),
                                     "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert stderr == f"error: {bad}: not UTF-8 text\n"


def _edit_rows(path, edit):
    """Rewrite a CSV file after `edit` mutates its list of rows in place."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _row(rows, kind, index):
    return next(r for r in rows if r[0] == kind and r[1] == str(index))


def _scale_measure(rows, factor):
    r = _row(rows, "measure", 0)
    r[2:] = [repr(factor * float(v)) for v in r[2:]]


def _shift_entry(rows, kind, index, column, delta):
    r = _row(rows, kind, index)
    r[column] = repr(float(r[column]) + delta)


def _off_domain(rows):
    # a plan shifted off its simplex and a dual outside the box: shapes and
    # values stay finite, but a gap at such a point certifies nothing
    _shift_entry(rows, "plan", 0, 2, -5.0)
    _row(rows, "dual", 0)[2] = "7.0"


ITERATE_EDITS = {
    "ragged-cost-row": lambda rows: _row(rows, "cost_row", 1).append("1.0"),
    "short-plan-row": lambda rows: _row(rows, "plan", 0).pop(),
    "non-integer-index": lambda rows: _row(rows, "measure", 0).__setitem__(1, "x"),
    "extra-plan-row": lambda rows: rows.append(["plan", "2"] + _row(rows, "plan", 1)[2:]),
    "duplicate-measure": lambda rows: rows.append(list(_row(rows, "measure", 0))),
    "nan-measure-entry": lambda rows: _row(rows, "measure", 1).__setitem__(2, "nan"),
    "inf-dual-entry": lambda rows: _row(rows, "dual", 0).__setitem__(3, "inf"),
    "measure-mass-two": lambda rows: _scale_measure(rows, 2.0),
    "plan-off-simplex-dual-seven": _off_domain,
    "negative-bary-entry": lambda rows: _shift_entry(rows, "bary", 0, 2, -1.0),
    "bary-mass-off": lambda rows: _shift_entry(rows, "bary", 0, 2, 1e-9),
    "dual-outside-box": lambda rows: _row(rows, "dual", 1).__setitem__(2, "-1.0000000000000002"),
}


class TestGapEditedIterates:
    @pytest.fixture(scope="class")
    def iterates(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("gap")
        hists = root / "h.csv"
        hists.write_text("# grid: 0.0, 0.5, 1.0\n0.5,0.25,0.25\n0.2,0.3,0.5\n")
        argv = ["barycenter", "--algo", "mp", "--input", str(hists), "--eps", "0.1",
                "--out", str(root / "run"), "--timing", "off"]
        assert main(argv) == 0
        return root / "run" / "iterates.csv"

    def test_unedited_file_replays(self, iterates):
        proc = _cli_subprocess("-m", "saddlebary.cli", "gap", "--iterates", str(iterates))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("duality gap: ")

    @pytest.mark.parametrize("case", sorted(ITERATE_EDITS))
    def test_edited_file_exits_2_without_traceback(self, iterates, tmp_path, case):
        path = tmp_path / "iterates.csv"
        path.write_bytes(iterates.read_bytes())
        _edit_rows(path, ITERATE_EDITS[case])
        proc = _cli_subprocess("-m", "saddlebary.cli", "gap", "--iterates", str(path))
        assert proc.returncode == 2, (proc.stdout, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")


class TestReadmeFlags:
    """README.md names every option of the command line, and no option it lacks."""

    @staticmethod
    def _options():
        """Each subcommand's `--` option strings, argparse's `--help` included."""
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        return {
            name: {flag for action in p._actions for flag in action.option_strings
                   if flag.startswith("--")}
            for name, p in sub.choices.items()
        }

    @staticmethod
    def _readme():
        return (Path(__file__).resolve().parents[1] / "README.md").read_text()

    @staticmethod
    def _flags(text):
        return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))

    def test_every_backticked_flag_is_an_option(self):
        options = self._options()
        fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
        readme = self._readme()
        # inline code spans, which may wrap a line, against every subcommand
        spans = re.findall(r"`([^`]+)`", fence.sub("", readme))
        unknown = self._flags(" ".join(spans)) - set().union(*options.values())
        # example command lines against their own subcommand
        for block in fence.findall(readme):
            for line in block.splitlines():
                words = line.split()
                if words[:1] == ["saddlebary"]:
                    unknown |= self._flags(line.split("#")[0]) - options[words[1]]
        assert sorted(unknown) == []

    def test_every_option_is_in_the_readme(self):
        named = self._flags(self._readme())
        missing = {
            f"{name} {flag}" for name, flags in self._options().items() for flag in flags
            if flag not in named
        }
        assert sorted(missing) == []


class TestPublicSurface:
    def test_sorted_public_names(self):
        names = sorted(
            name for name, value in vars(sb).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        )
        assert names == [
            "BarycenterProblem", "ConfigError", "CostData", "DEConfig", "DomainError",
            "DualPoint", "GaussianSuiteSpec", "Grid1D", "IBPConfig", "InvalidCostError",
            "MPConfig", "NumericalFailure", "ParseError", "PrimalPoint", "RunRecord",
            "RunReport", "SaddlebaryError", "ShapeError",
            "am_inner_iterations", "barycenter_1d_quantile", "certificate_values", "de_config",
            "de_initial_error_bound", "duality_gap", "gaussian_suite", "grid_cost",
            "ibp_barycenter", "load_cost_csv", "load_histograms", "mp_config", "optimality_gap",
            "read_iterates_csv", "run_certified", "run_dual_extrapolation",
            "run_mirror_prox", "theta", "validate_histogram", "vectorize_cost",
            "write_barycenter_csv", "write_iterates_csv", "write_report_csv",
        ]

    def test_every_public_name_has_a_package_caller(self):
        """Every public name is used in a package module or in the benchmark.

        A name only tests use belongs in the tests.  The scan counts any use
        outside `__init__.py`, so test-only functions that call only each
        other escape it.  The names, public or members of public classes,
        whose only reader outside the tests is the benchmark are pinned:
        `BarycenterProblem.create` and `vectorize_cost`, the benchmark's
        spellings of the constructors, which go when it respells its call.
        """
        root = Path(__file__).resolve().parents[1]

        def uses(paths):
            used = set()
            for path in paths:
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Name):
                        used.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        used.add(node.attr)
            return used

        package = uses(p for p in (root / "src" / "saddlebary").glob("*.py")
                       if p.name != "__init__.py")
        bench = uses(sorted((root / "perfbench").glob("*.py")))
        public = {
            name: value for name, value in vars(sb).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert sorted(set(public) - package - bench) == []
        members = {
            name for value in public.values() if isinstance(value, type)
            for name in [*vars(value), *getattr(value, "__dataclass_fields__", ())]
            if not name.startswith("_")
        }
        bench_only = ((set(public) | members) & bench) - package
        assert sorted(bench_only) == ["create", "vectorize_cost"]

    @staticmethod
    def _package_and_reads():
        """The package modules, and the attribute names loaded in them or in the benchmark.

        `__init__.py` only re-exports, so its loads do not count.
        """
        root = Path(__file__).resolve().parents[1]
        package = sorted((root / "src" / "saddlebary").glob("*.py"))
        readers = [p for p in package if p.name != "__init__.py"]
        read = {
            node.attr
            for path in readers + sorted((root / "perfbench").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        return package, read

    def test_every_member_has_a_package_reader(self):
        """Every method, property and class-level assignment of a package class is read there.

        A member is read when an attribute load of its name appears in a
        package module (less `__init__.py`) or in the benchmark.  The scan
        matches names, not owners, so a member whose name other objects
        share (`n`, `m`) escapes it.  Dataclass fields are the next test's.
        """
        package, read = self._package_and_reads()
        unread = []
        for path in package:
            for cls in ast.walk(ast.parse(path.read_text())):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        names = [node.name]
                    elif isinstance(node, ast.Assign):
                        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                    else:
                        continue
                    unread += [
                        f"{cls.name}.{name}" for name in names
                        if not name.startswith("__") and name not in read
                    ]
        assert unread == []

    def test_every_dataclass_field_has_a_reader(self):
        """Every field of a package dataclass is read in a package module or the benchmark.

        A field is read when an attribute load of its name appears in a
        package module (less `__init__.py`) or in the benchmark.  The scan
        matches names, not owners, so a field whose name other objects
        share (`n`, `plans`) escapes it.  The config records are exempt:
        their fields are recorded whole through `asdict` or set by callers.
        """
        exempt = {"MPConfig", "DEConfig", "IBPConfig", "GaussianSuiteSpec"}
        package, read = self._package_and_reads()

        def is_dataclass(cls):
            return any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in cls.decorator_list
            )

        unread = [
            f"{cls.name}.{node.target.id}"
            for path in package
            for cls in ast.walk(ast.parse(path.read_text()))
            if isinstance(cls, ast.ClassDef) and is_dataclass(cls) and cls.name not in exempt
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and node.target.id not in read
        ]
        assert unread == []

    def test_every_module_level_name_is_loaded(self):
        """Every module-level function, class and constant of the package is loaded elsewhere.

        A name counts as loaded when a package module (`__init__.py`'s
        re-exports are imports, not loads) reads it outside the statement
        that defines it, or the benchmark reads it.  Private names count
        too.  The names whose only reader is the benchmark are pinned:
        `vectorize_cost`, its spelling of `CostData(C=...)`, and
        `__version__`, which it records.
        """
        root = Path(__file__).resolve().parents[1]

        def loads(tree):
            return {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            }

        def defined(stmt):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                return [stmt.name]
            if isinstance(stmt, ast.Assign):
                return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                return [stmt.target.id]
            return []

        statements = [
            stmt for path in sorted((root / "src" / "saddlebary").glob("*.py"))
            for stmt in ast.parse(path.read_text()).body
        ]
        read = [loads(stmt) for stmt in statements]
        bench = set().union(*(loads(ast.parse(p.read_text()))
                              for p in sorted((root / "perfbench").glob("*.py"))))
        unloaded = sorted(
            name for i, stmt in enumerate(statements) for name in defined(stmt)
            if not any(name in names for j, names in enumerate(read) if j != i)
        )
        assert [name for name in unloaded if name not in bench] == []
        assert unloaded == ["__version__", "vectorize_cost"]
