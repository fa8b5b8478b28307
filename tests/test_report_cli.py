import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import saddlebary as sb
from saddlebary.cli import GaussianSuiteSpec, gaussian_suite, load_histograms, main
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


class TestGaussianSuite:
    def test_defaults(self):
        spec = GaussianSuiteSpec()
        assert (spec.count, spec.support) == (10, 100)
        assert spec.support_range == (-10.0, 10.0)
        assert spec.mean_range == (-5.0, 5.0)
        assert spec.var_range == (0.8, 1.8)
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

    def test_centered_gaussian_is_symmetric(self):
        spec = GaussianSuiteSpec(count=1, support=50, mean_range=(0.0, 0.0), var_range=(1.0, 1.0))
        measures, _ = gaussian_suite(spec)
        assert np.allclose(measures[0], measures[0][::-1], atol=1e-15)


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

    def test_cost_rescaling_scales_certificate(self, tmp_path):
        rng = np.random.default_rng(91)
        prob = random_problem(91, 3, 2)
        x, y = random_primal(rng, 3, 2), random_dual(rng, 3, 2)
        gap = sb.duality_gap(x, y, prob)
        for lam in (0.25, 3.0):
            scaled = prob.with_cost(prob.cost.scaled(lam))
            assert sb.duality_gap(x, y, scaled) == pytest.approx(lam * gap, rel=1e-12)


class TestReportValidation:
    def test_iterations_strictly_increasing(self):
        report = sb.RunReport(algorithm="mp", config={})
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

    def test_input_and_gaussian_conflict(self, tmp_path):
        inp = self.write_problem(tmp_path)
        code = run_cli(["barycenter", "--algo", "mp", "--input", inp, "--gaussian",
                        "--out", str(tmp_path / "x")])
        assert code == 2


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


class TestGapCLIErrors:
    def test_missing_iterates_file(self, tmp_path):
        assert run_cli(["gap", "--iterates", str(tmp_path / "nope.csv")]) == 2

    def test_truncated_iterates_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("kind,index,values...\ncost_row,0,0.0,1.0\n")
        assert run_cli(["gap", "--iterates", str(bad)]) == 2


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
            sb.vectorize_cost([[0.0, bad], [1.0, 0.0]])

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_config_builders_reject_eps(self, t1_problem, eps):
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
        ["eps-nan-mp", "eps-nan-de", "reg-nan", "stride-negative", "stride-zero", "nan-histogram",
         "inf-cost", "ragged-cost"],
    )
    def test_cli_exits_2_without_traceback(self, tmp_path, case):
        hists = tmp_path / "h.csv"
        hists.write_text("# grid: 0.0, 0.5, 1.0\n0.5,0.25,0.25\n0.2,0.3,0.5\n")
        cost = tmp_path / "c.csv"
        cost.write_text("0,1,inf\n1,0,1\n1,1,0\n")
        bad_hists = tmp_path / "bad.csv"
        bad_hists.write_text("# grid: 0.0, 0.5, 1.0\nnan,0.5,0.5\n")
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("0,1\n1,0,1\n")
        base = ["barycenter", "--input", str(hists), "--out", str(tmp_path / "o")]
        argv = {
            "eps-nan-mp": base + ["--algo", "mp", "--eps", "nan"],
            "eps-nan-de": base + ["--algo", "de", "--eps", "nan"],
            "reg-nan": base + ["--algo", "ibp", "--reg", "nan"],
            "stride-negative": base + ["--algo", "mp", "--log-stride", "-3"],
            "stride-zero": base + ["--algo", "mp", "--log-stride", "0"],
            "nan-histogram": ["barycenter", "--input", str(bad_hists), "--algo", "mp",
                              "--out", str(tmp_path / "o")],
            "inf-cost": base + ["--algo", "mp", "--cost", f"csv:{cost}"],
            "ragged-cost": base + ["--algo", "mp", "--cost", f"csv:{ragged}"],
        }[case]
        proc = _cli_subprocess("-m", "saddlebary.cli", *argv)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")
