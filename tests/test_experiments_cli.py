"""Experiment runners and the CLI wrapper: config handling, reproducibility,
exit-code protocol, report structure."""
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracsde

from fracsde.cli import _parser, build_settings, main, parse_config_file
from fracsde.experiments import (
    EmptyRegion,
    RunSettings,
    cmd_negativity,
    cmd_operator_check,
    cmd_simulate,
)
from fracsde.fields import factor_covariance
from fracsde.model import RngStreamSpec

# every command; the sampling ones span two replica chunks (4096 each)
_SMALL_RUNS = [
    ["simulate", "--alpha", "0.3", "--grid-n", "8", "--samples", "5000"],
    ["simulate", "--alpha", "0.3", "--beta", "0.7", "--grid-n", "8",
     "--samples", "5000"],
    ["exact-vs-chaos", "--alpha", "0.7", "--grid-n", "16", "--samples", "5000"],
    ["euler-study", "--samples", "5000"],
    ["negativity", "--T", "3", "--grid-n", "8", "--epsilon", "0.05",
     "--samples", "5000"],
    ["girsanov-check", "--alpha", "0.3", "--beta", "0.3", "--grid-n", "8",
     "--samples", "5000"],
    ["operator-check", "--alpha", "0.25"],
]


class TestConfigFile:
    def test_flat_pairs_comments_and_dashes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment sweep\n"
            "alpha = 0.7\n"
            "grid-n = 32   # coarse\n"
            "\n"
            "epsilon = 0.25\n"
            "beta = none\n"
            "debug-corrupt-quadrature = true\n"
        )
        parsed = parse_config_file(cfg)
        assert parsed == {
            "alpha": 0.7,
            "grid_n": 32,
            "epsilon": 0.25,
            "beta": None,
            "debug_corrupt_quadrature": True,
        }
        assert isinstance(parsed["grid_n"], int)

    def test_unknown_key_reports_location(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha = 0.3\nstep_size = 7\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:2"):
            parse_config_file(cfg)

    def test_missing_equals_reports_location(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 0.3\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:1"):
            parse_config_file(cfg)

    def test_precedence_defaults_config_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.7\nsamples = 123\n")
        args = _parser().parse_args(
            ["operator-check", "--config", str(cfg), "--alpha", "0.25"]
        )
        settings = build_settings(args)
        assert settings.alpha == 0.25  # flag beats config
        assert settings.samples == 123  # config beats default
        assert settings.grid_n == RunSettings().grid_n  # untouched default

    def test_no_beta_flag_forces_line_model(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 0.7\n")
        args = _parser().parse_args(["simulate", "--config", str(cfg), "--no-beta"])
        assert build_settings(args).beta is None


class TestSettingsValidation:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            RunSettings(grid_n=0)
        with pytest.raises(ValueError):
            RunSettings(samples=0)
        with pytest.raises(ValueError):
            RunSettings(threads=0)
        with pytest.raises(ValueError):
            RunSettings(epsilon=0.0)
        with pytest.raises(ValueError):
            RunSettings(seed=-1)

    def test_model_params_roundtrip(self):
        s = RunSettings(alpha=0.3, beta=0.7, a=1.5, b=-0.2, T=2.0)
        p = s.model_params()
        assert p.hurst.alpha == 0.3 and p.hurst.beta == 0.7
        assert (p.a, p.b, p.T) == (1.5, -0.2, 2.0)


def _strip_wall(payload: dict) -> dict:
    payload = dict(payload)
    payload.pop("wall_seconds")
    return payload


class TestDeterminism:
    def test_same_invocation_same_bytes(self, tmp_path):
        argv = [
            "simulate", "--alpha", "0.3", "--grid-n", "8",
            "--samples", "3000", "--seed", "11",
        ]
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            assert main(argv + ["--out", str(out)]) == 0
            outs.append(out)
        r1 = _strip_wall(json.loads((outs[0] / "report.json").read_text()))
        r2 = _strip_wall(json.loads((outs[1] / "report.json").read_text()))
        assert r1 == r2
        csvs = sorted(p.name for p in outs[0].glob("*.csv"))
        assert csvs  # at least one table per run
        for name in csvs:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_thread_count_does_not_change_estimates(self, tmp_path):
        # chunk-granular streams: per-chunk seeding keys on the chunk
        # index, so the split across workers cannot move any estimate;
        # the verdicts need not pass at these sizes, they must agree
        for idx, argv in enumerate(_SMALL_RUNS):
            outs, codes = [], []
            for threads in ("1", "2"):
                out = tmp_path / f"{idx}_{threads}"
                codes.append(main(argv + ["--seed", "7", "--threads", threads,
                                          "--out", str(out)]))
                outs.append(out)
            assert codes[0] in (0, 1) and codes[0] == codes[1], argv
            r1, r2 = (
                _strip_wall(json.loads((o / "report.json").read_text()))
                for o in outs
            )
            assert r1["parameters"].pop("threads") == 1
            assert r2["parameters"].pop("threads") == 2
            assert r1 == r2, argv
            for m in r1["metrics"]:
                assert m["seed"] == 7, m["name"]
                # a "< X" tolerance must be the bound its verdict applies
                bound = re.match(r"< (\S+)", m["tolerance"])
                if bound:
                    below = m["value"] is not None and m["value"] < float(bound[1])
                    assert m["passed"] == below, m["name"]
            csvs = sorted(p.name for p in outs[0].glob("*.csv"))
            assert csvs and csvs == sorted(p.name for p in outs[1].glob("*.csv"))
            for name in csvs:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_seed_changes_estimates(self):
        base = dict(alpha=0.3, grid_n=8, samples=3000)
        a = cmd_simulate(RunSettings(seed=1, **base))
        b = cmd_simulate(RunSettings(seed=2, **base))
        assert [m.value for m in a.metrics] != [m.value for m in b.metrics]


class TestReportShape:
    def test_every_metric_declares_tolerance_and_seed(self):
        report = cmd_operator_check(RunSettings(alpha=0.3, samples=10))
        assert report.metrics
        for m in report.metrics:
            assert isinstance(m.tolerance, str) and m.tolerance
            assert m.seed >= 0
            assert math.isfinite(m.value)

    def test_report_dict_is_json_clean(self):
        report = cmd_operator_check(RunSettings(alpha=0.25, samples=10))
        payload = json.dumps(report.to_dict(), sort_keys=True)
        back = json.loads(payload)
        assert back["experiment"] == "operator-check"
        assert back["passed"] is True
        assert isinstance(back["tables"], list)

    def test_operator_check_echoes_only_what_it_reads(self, tmp_path):
        # the checks read alpha, T, seed and the debug flag; settings they
        # ignore must neither change a metric nor be echoed as if used
        reports = []
        for tag, extra in (("plain", []), ("ignored", ["--samples", "50", "--a", "3"])):
            out = tmp_path / tag
            assert main(["operator-check", "--alpha", "0.25"] + extra + ["--out", str(out)]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
        for report in reports:
            params = report["parameters"]
            for key in ("samples", "beta", "a", "b", "grid_n", "epsilon", "truncation"):
                assert params[key] is None, key
            assert (params["alpha"], params["T"], params["threads"]) == (0.25, 1.0, 1)
        assert reports[0]["metrics"] == reports[1]["metrics"]

    def test_verdict_lines_on_stdout(self, tmp_path, capsys):
        code = main([
            "operator-check", "--alpha", "0.3", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "operator-check: PASS" in out
        assert out.count("PASS") >= 2  # one per metric plus the summary


class TestExitCodes:
    def test_failing_metric_exits_one(self, tmp_path):
        code = main([
            "operator-check", "--alpha", "0.3",
            "--debug-corrupt-quadrature", "--out", str(tmp_path),
        ])
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is False
        failed = [m for m in report["metrics"] if not m["passed"]]
        assert failed and failed[0]["detail"]["corrupted"] is True

    def test_usage_error_exits_two(self, tmp_path, capsys):
        # drifted Euler scheme is undefined
        code = main([
            "euler-study", "--b", "0.5", "--samples", "10",
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_half_exponent_change_of_measure_exits_two(self, tmp_path, capsys):
        code = main([
            "girsanov-check", "--alpha", "0.5", "--beta", "0.3",
            "--samples", "10", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "RegimeUndefined" in capsys.readouterr().err

    def test_empty_window_exits_two(self, tmp_path, capsys):
        # T = 1 puts every product a s t below the negativity band
        code = main([
            "negativity", "--T", "1", "--grid-n", "8", "--samples", "100",
            "--epsilon", "0.05", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "EmptyRegion" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted({a[0] for a in _SMALL_RUNS}))
    def test_single_sample_exits_two(self, command, tmp_path, capsys):
        # one replica has no standard error; stop before any sampling
        code = main([command, "--samples", "1", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: ValueError: samples must be >= 2" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--alpha", "0.9", "--grid-n", "8", "--samples", "100"],
        ["girsanov-check", "--alpha", "0.9", "--beta", "0.9", "--grid-n", "8",
         "--samples", "200"],
    ])
    def test_tiny_horizon_is_not_rank_deficient(self, argv, tmp_path):
        # at T = 1e-7 every covariance entry is below 1e-12, yet the matrix
        # is as well conditioned as at T = 1: the rank guard must not refuse
        code = main(argv + ["--T", "1e-7", "--out", str(tmp_path)])
        assert code == 0

    def test_nonpositive_noise_negativity_exits_two(self, tmp_path, capsys):
        code = main(["negativity", "--a", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "a must be > 0" in capsys.readouterr().err

    def test_coarse_truncation_exits_two(self, tmp_path, capsys):
        # epsilon far above the calibrated level leaves a heavy chaos tail
        code = main([
            "negativity", "--T", "3", "--grid-n", "16", "--epsilon", "5.0",
            "--samples", "10", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "TruncationTooLow" in capsys.readouterr().err


class TestNegativitySetup:
    def test_empty_region_raises(self):
        settings = RunSettings(a=1.0, T=1.0, grid_n=8, epsilon=0.05, samples=10)
        with pytest.raises(EmptyRegion):
            cmd_negativity(settings)

    def test_small_run_produces_all_metrics(self):
        settings = RunSettings(T=3.0, grid_n=8, epsilon=0.05, samples=50, seed=3)
        report = cmd_negativity(settings)
        names = [m.name for m in report.metrics]
        assert names == [
            "limit_surface_margin",
            "all_negative_lcb",
            "all_negative_rate",
            "mean_surface_gap",
        ]
        assert report.metrics[0].passed  # limit surface really is below -delta
        table = report.tables["negativity_surface"]
        assert len(table[1]) == 9 * 9
        assert any(row[4] for row in table[1])  # some node sits in the window

    def test_echoes_the_model_it_runs(self, tmp_path):
        # the study runs at Hurst (1/2, 1/2) with drift -a whatever
        # --alpha, --beta and --b say; the report must say what ran
        base = ["negativity", "--T", "3", "--grid-n", "8", "--epsilon", "0.05",
                "--samples", "200"]
        reports = []
        for tag, extra in (("plain", []), ("ignored", [
            "--alpha", "0.7", "--beta", "0.2", "--b", "5",
        ])):
            out = tmp_path / tag
            assert main(base + extra + ["--out", str(out)]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
        for report in reports:
            params = report["parameters"]
            assert (params["alpha"], params["beta"], params["b"]) == (0.5, 0.5, -1.0)
        assert reports[0]["metrics"] == reports[1]["metrics"]

    def test_oversized_grid_is_refused_before_drawing(self, tmp_path, capsys,
                                                      monkeypatch):
        # 65 x 65 cells is past the chain route's 4096-cell guard; at 20000
        # samples a late refusal would first draw two 138 MB noise chunks
        drawn = []
        make = RngStreamSpec.generator
        monkeypatch.setattr(RngStreamSpec, "generator",
                            lambda spec: drawn.append(spec) or make(spec))
        code = main([
            "negativity", "--T", "3", "--grid-n", "65", "--epsilon", "0.05",
            "--samples", "20000", "--threads", "2", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "grid too large" in capsys.readouterr().err
        assert drawn == []

    def test_battery_run_does_not_depend_on_blas_threads(self, tmp_path):
        # the battery's negativity command in fresh interpreters: the
        # triangular BLAS products must not split their sums by thread
        src = Path(fracsde.__file__).resolve().parents[1]
        argv = ["negativity", "--T", "3", "--grid-n", "16", "--epsilon", "0.05",
                "--samples", "2000", "--seed", "20240801"]
        outs = []
        for blas, threads in (("1", "1"), ("2", "1"), ("1", "2")):
            out = tmp_path / f"blas{blas}_threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                       PYTHONPATH=os.pathsep.join(filter(None, [
                           str(src), os.environ.get("PYTHONPATH")])))
            subprocess.run(
                [sys.executable, "-m", "fracsde", *argv, "--threads", threads,
                 "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            outs.append((out / "negativity_surface.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]


class TestSimulateStatistics:
    @pytest.mark.parametrize("samples", ["2", "3"])
    def test_line_covariance_holds_at_tiny_sample_counts(self, samples, tmp_path):
        code = main(["simulate", "--alpha", "0.3", "--grid-n", "8",
                     "--samples", samples, "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        cov = report["metrics"][0]
        assert cov["passed"] is True
        assert cov["detail"]["critical_value"] > 5.0

    def test_line_covariance_rejects_wrong_law(self, monkeypatch):
        # sample at alpha + 0.1 while checking against the alpha covariance
        monkeypatch.setattr(
            "fracsde.experiments.factor_covariance",
            lambda alpha, grid: factor_covariance(alpha + 0.1, grid),
        )
        report = cmd_simulate(RunSettings(alpha=0.3, grid_n=8, samples=5000))
        cov = {m.name: m for m in report.metrics}["covariance_max_z"]
        assert not cov.passed
        assert cov.value > cov.detail["critical_value"]

    def test_line_covariance_metric_passes(self):
        report = cmd_simulate(RunSettings(alpha=0.5, grid_n=8, samples=20_000, seed=9))
        assert report.passed
        cov = {m.name: m for m in report.metrics}["covariance_max_z"]
        assert cov.value < 5.0

    def test_sheet_corner_variance_passes(self):
        report = cmd_simulate(
            RunSettings(alpha=0.3, beta=0.7, grid_n=8, samples=5000, seed=10)
        )
        assert report.passed
        names = [m.name for m in report.metrics]
        assert any("corner" in n for n in names)

    def test_trajectory_table_written(self, tmp_path):
        assert main([
            "simulate", "--alpha", "0.3", "--grid-n", "8", "--samples", "100",
            "--seed", "1", "--out", str(tmp_path),
        ]) == 0
        csvs = {p.name for p in tmp_path.glob("*.csv")}
        assert csvs  # trajectory plus covariance diagnostics
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report["tables"]) == {p.removesuffix(".csv") for p in csvs}


class TestStatisticalHonesty:
    def test_tiny_noise_standard_error_does_not_collapse(self, tmp_path):
        # at a = 1e-8 every X_T sits within 1e-7 of 1; a sum-of-squares
        # variance cancels to 0, the pairwise (n, mean, M2) merge does not
        argv = [
            "exact-vs-chaos", "--alpha", "0.3", "--a", "1e-8",
            "--samples", "100000",
        ]
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
            outs.append(out)
        report = json.loads((outs[0] / "report.json").read_text())
        mean = {m["name"]: m for m in report["metrics"]}["terminal_mean"]
        assert mean["passed"] is True
        assert 2e-11 < mean["std_error"] < 4e-11
        r1, r2 = (
            _strip_wall(json.loads((o / "report.json").read_text())) for o in outs
        )
        assert r1["parameters"].pop("threads") == 1
        assert r2["parameters"].pop("threads") == 2
        assert r1 == r2
        csv_bytes = [(o / "exact_vs_chaos.csv").read_bytes() for o in outs]
        assert csv_bytes[0] == csv_bytes[1]

    def test_non_finite_metric_fails_and_is_written_as_null(self, tmp_path, capsys):
        code = main([
            "exact-vs-chaos", "--a", "1e80", "--samples", "100",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(
            (tmp_path / "report.json").read_text(), parse_constant=reject
        )
        sup = {m["name"]: m for m in report["metrics"]}["sup_node_error"]
        assert sup["value"] is None and sup["passed"] is False
        assert report["passed"] is False

    def test_non_finite_setting_exits_two(self, tmp_path, capsys):
        code = main(["operator-check", "--a", "inf", "--out", str(tmp_path)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
