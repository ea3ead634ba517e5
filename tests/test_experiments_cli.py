"""Experiment runners and the CLI wrapper: config handling, reproducibility,
exit-code protocol, report structure."""
import csv
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fracsde

from fracsde import chaos, experiments
from fracsde.cli import _parser, build_settings, main, parse_config_file
from fracsde.experiments import (
    EmptyRegion,
    RunSettings,
    cmd_girsanov_check,
    cmd_negativity,
    cmd_operator_check,
    cmd_simulate,
)
from fracsde.chaos import chaos_total_1d, exact_solution_1d, wick_euler_paths
from fracsde.fields import factor_covariance, sample_fbm_batch, sample_sheet_batch
from fracsde.model import (
    HurstPair,
    ModelParams,
    RngStreamSpec,
    build_grid,
    chunk_moments,
)

try:
    import resource
except ImportError:  # not on Windows
    resource = None

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
# a small sheet model for the overflow cases
_SHEET = ["--alpha", "0.3", "--beta", "0.3", "--grid-n", "8"]


def _run_id(argv: list[str]) -> str:
    if argv[0] != "simulate":
        return argv[0]
    return "simulate-sheet" if "--beta" in argv else "simulate-line"


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

    @pytest.mark.parametrize("value", ["-1e-3", "-2.5E+1", "-1", "-.5"])
    def test_negative_values_parse_in_either_spelling(self, value):
        # argparse reads "-1" as a value but "-1e-3" as an unknown option
        spaced = _parser().parse_args(["exact-vs-chaos", "--b", value])
        joined = _parser().parse_args(["exact-vs-chaos", f"--b={value}"])
        assert spaced == joined
        assert spaced.b == float(value)

    def test_negative_exponent_gives_the_same_report(self, tmp_path):
        reports = []
        for flag in (["--b", "-1e-3"], ["--b=-1e-3"]):
            out = tmp_path / str(len(reports))
            argv = ["exact-vs-chaos", "--samples", "100", *flag, "--out", str(out)]
            assert main(argv) == 0
            reports.append(_strip_wall(json.loads((out / "report.json").read_text())))
        assert reports[0] == reports[1]
        assert reports[0]["parameters"]["b"] == -1e-3


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
    @pytest.mark.parametrize("alpha, pins", [
        (0.25, (7.044022698465824e-09, 1.361133428190442e-13, 0.0)),
        (0.75, (2.220446049250313e-16, 5.919709167301335e-13, 0.0)),
    ])
    def test_operator_check_values_keep_their_bits(self, alpha, pins):
        # the operator layer's floats as operator-check reports them
        report = cmd_operator_check(RunSettings(alpha=alpha))
        values = {m.name: m.value for m in report.metrics}
        names = ("indicator_norm_identity", "derivative_integral_roundtrip",
                 "unit_orders_integral")
        assert tuple(values[k] for k in names) == pins

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

    def test_euler_study_echoes_only_what_it_reads(self, tmp_path, capsys):
        # the study fixes its Hurst exponents and step counts; settings it
        # ignores must neither change a metric nor be echoed as if used
        base = ["euler-study", "--samples", "200"]
        reports, codes = [], []
        for tag, extra in (("plain", []), ("ignored", [
            "--alpha", "0.9", "--grid-n", "8", "--epsilon", "3", "--truncation", "5",
        ])):
            out = tmp_path / tag
            codes.append(main(base + extra + ["--out", str(out)]))
            reports.append(json.loads((out / "report.json").read_text()))
        assert codes[0] in (0, 1) and codes[0] == codes[1]
        for report in reports:
            params = report["parameters"]
            for key in ("alpha", "beta", "grid_n", "epsilon", "truncation"):
                assert params[key] is None, key
            assert (params["a"], params["samples"], params["T"]) == (1.0, 200, 1.0)
        assert reports[0]["metrics"] == reports[1]["metrics"]
        capsys.readouterr()
        code = main(base + ["--beta", "0.7", "--out", str(tmp_path / "sheet")])
        assert code == 2
        assert "one-parameter experiment" in capsys.readouterr().err

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

    def test_operator_check_at_alpha_one_tenth_exits_two(self, tmp_path, capsys):
        # the kernel constant is closed-form at every alpha, but the
        # indicator norm's graded quadrature still stalls at alpha = 0.1
        code = main(["operator-check", "--alpha", "0.1", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: QuadratureDiverged:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("alpha", ["0", "1", "1.5"])
    def test_operator_check_outside_the_unit_interval_exits_two(
        self, tmp_path, capsys, alpha
    ):
        # the norm identity's grading exponent is the first thing to see
        # alpha; at 0 it would divide by 1 + 2 (alpha - 1/2) = 0
        code = main(["operator-check", "--alpha", alpha, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: ValueError:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("alpha, T, code", [
        # an absolute gate failed here on 2.4e-4 at a relative error of 2e-16
        ("0.75", "1e8", 0),
        # and passed here on 3e-151 at a relative error of 0.45
        ("0.25", "1e-300", 1),
    ])
    def test_norm_identity_gate_is_relative(self, tmp_path, alpha, T, code):
        argv = ["operator-check", "--alpha", alpha, "--T", T, "--out", str(tmp_path)]
        assert main(argv) == code
        report = json.loads((tmp_path / "report.json").read_text())
        norm = {m["name"]: m for m in report["metrics"]}["indicator_norm_identity"]
        assert norm["tolerance"] == "< 1e-4 relative"
        assert norm["passed"] is (code == 0)

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

    def test_single_cell_sheet_simulate_exits_two(self, tmp_path, capsys):
        # at one cell the first rectangle increment is V(0, 0) = 0, so the
        # decorrelation check would pass 0 against a target of 0
        code = main(["simulate", "--beta", "0.5", "--grid-n", "1",
                     "--samples", "100", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: ValueError:" in err
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

    def test_truncation_above_four_gives_a_verdict(self, tmp_path, capsys):
        # order 4 leaves a 14.4% tail here and the refusal says to raise
        # the truncation; order 5 (8.2% tail) must then run, not exit 2
        code = main([
            "negativity", "--T", "3", "--grid-n", "8", "--epsilon", "2.5",
            "--samples", "100", "--truncation", "5", "--out", str(tmp_path),
        ])
        assert code in (0, 1), capsys.readouterr().err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["parameters"]["truncation"] == 5

    @pytest.mark.parametrize("epsilon", ["1e100", "1e154", "1e300"])
    def test_overflowing_chaos_norms_exit_two(self, tmp_path, capsys, epsilon):
        # the proxy's order norms leave the double range: no small tail
        code = main([
            "negativity", "--T", "3", "--grid-n", "8", "--epsilon", epsilon,
            "--samples", "10", "--out", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: TruncationTooLow:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_coarse_truncation_exits_two(self, tmp_path, capsys):
        # epsilon far above the calibrated level leaves a heavy chaos tail
        code = main([
            "negativity", "--T", "3", "--grid-n", "16", "--epsilon", "5.0",
            "--samples", "10", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "TruncationTooLow" in capsys.readouterr().err


def _fresh_python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports this checkout's fracsde."""
    src = Path(fracsde.__file__).resolve().parents[1]
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, [
        str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=120)


class TestImports:
    def test_cold_import_loads_no_scipy(self):
        # scipy.special alone costs about 0.3 s to import; commands that
        # never call it must not pay for it
        out = _fresh_python(
            "-c", "import sys, fracsde, fracsde.cli\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        assert out.stdout.strip() == "[]"

    def test_every_listed_name_resolves(self):
        # a function deleted but still listed in a module's __all__ fails
        # only a star import; the package's own names are plain imports,
        # which ``import fracsde`` already checks
        for info in pkgutil.iter_modules(fracsde.__path__):
            if info.name == "__main__":
                continue
            module = importlib.import_module(f"fracsde.{info.name}")
            missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
            assert missing == [], info.name

    @pytest.mark.parametrize(
        "argv", [a for a in _SMALL_RUNS if a[0] != "operator-check"],
        ids=_run_id,
    )
    def test_chunk_map_imports_nothing(self, argv, tmp_path):
        # each command in a fresh interpreter, over two chunks on two
        # threads: a module first loaded inside the map would be timed as
        # sampling, so set-up must load everything the map uses
        script = (
            "import json, sys\n"
            "import fracsde.cli as cli\n"
            "import fracsde.experiments as ex\n"
            "original, added = ex._map_chunks, []\n"
            "def map_chunks(work, total, threads):\n"
            "    before = set(sys.modules)\n"
            "    parts = original(work, total, threads)\n"
            "    added.append(sorted(set(sys.modules) - before))\n"
            "    return parts\n"
            "ex._map_chunks = map_chunks\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(json.dumps({'code': code, 'added': added}))\n"
        )
        out = _fresh_python("-c", script, *argv, "--seed", "7", "--threads", "2",
                            "--out", str(tmp_path))
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["code"] in (0, 1)
        assert result["added"] and all(a == [] for a in result["added"]), result

    @pytest.mark.parametrize(
        "argv",
        [a for a in _SMALL_RUNS if _run_id(a) in ("simulate-sheet", "girsanov-check")],
        ids=_run_id,
    )
    def test_sheet_noise_commands_load_no_scipy(self, argv, tmp_path):
        # the Gauss-Legendre nodes, the gamma function and the tilt's
        # triangular solves come from numpy and math
        script = (
            "import sys\n"
            "import fracsde.cli as cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
        )
        out = _fresh_python("-c", script, *argv, "--seed", "7",
                            "--out", str(tmp_path))
        code, loaded = out.stdout.splitlines()[-1].split(" ", 1)
        assert code in ("0", "1") and loaded == "[]", out.stdout

    @pytest.mark.parametrize("argv", _SMALL_RUNS, ids=_run_id)
    def test_command_loads_no_scipy_stats(self, argv, tmp_path):
        # scipy.stats costs about 0.5 s to import; each quantile a command
        # needs comes from scipy.special instead.  scipy.integrate (which
        # loads scipy.optimize) and scipy.optimize cost about 0.3 s more:
        # the inverse-kernel profiles use the package's own graded rule and
        # the negativity window comes from Bessel zeros
        script = (
            "import sys\n"
            "import fracsde.cli as cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "heavy = ('scipy.stats', 'scipy.integrate', 'scipy.optimize')\n"
            "print(code, [m for m in heavy if m in sys.modules])\n"
        )
        out = _fresh_python("-c", script, *argv, "--seed", "7",
                            "--out", str(tmp_path))
        code, loaded = out.stdout.splitlines()[-1].split(" ", 1)
        assert code in ("0", "1") and loaded == "[]", out.stdout


class TestQuantiles:
    # the reports' quantiles come from scipy.special; scipy.stats, imported
    # only here, is the oracle they must equal bit for bit
    def test_clopper_pearson_bound_matches_beta_ppf(self):
        from scipy.special import betaincinv
        from scipy.stats import beta

        for n in (50, 2000):
            k = np.arange(1, n + 1)
            assert np.array_equal(betaincinv(k, n - k + 1, 0.05),
                                  beta.ppf(0.05, k, n - k + 1)), n
        report = cmd_negativity(
            RunSettings(T=3.0, grid_n=8, epsilon=0.05, samples=300, seed=3))
        lcb = {m.name: m for m in report.metrics}["all_negative_lcb"]
        k, n = lcb.detail["successes"], lcb.detail["replicas"]
        assert 0 < k and lcb.value == float(beta.ppf(0.05, k, n - k + 1))

    def test_t_critical_value_matches_t_isf(self):
        from scipy.special import ndtr, stdtrit
        from scipy.stats import norm, t

        df = np.append(np.arange(1, 200), 100_000)
        assert np.array_equal(-stdtrit(df, ndtr(-5.0)),
                              t.isf(norm.sf(5.0), df))
        report = cmd_simulate(RunSettings(alpha=0.3, grid_n=8, samples=40, seed=3))
        cov = {m.name: m for m in report.metrics}["covariance_max_z"]
        assert cov.detail["critical_value"] == float(t.isf(norm.sf(5.0), 39))


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

    def test_limit_surface_stays_in_the_range_of_h0(self, tmp_path):
        # a s t reaches 900 here; h0 = J0(2 sqrt(-x)) on the negative axis
        # lies in [-0.4028, 1], where a summed power series read -7e6
        code = main(["negativity", "--T", "3", "--grid-n", "16", "--a", "100",
                     "--epsilon", "0.001", "--samples", "20", "--out", str(tmp_path)])
        assert code in (0, 1)
        with open(tmp_path / "negativity_surface.csv") as fh:
            limit = [float(row["limit"]) for row in csv.DictReader(fh)]
        assert -0.41 <= min(limit) and max(limit) <= 1.0

    def test_far_negative_limit_surface_gives_a_verdict(self, tmp_path, capsys):
        # a s t reaches 18000, past any cap on the series' argument
        code = main(["negativity", "--T", "3", "--grid-n", "64", "--a", "2000",
                     "--epsilon", "1e-6", "--samples", "10", "--out", str(tmp_path)])
        assert code in (0, 1)
        assert "Traceback" not in capsys.readouterr().err

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)

    @staticmethod
    def _surfaces(tmp_path, argv, runs):
        """The surface CSV of ``argv`` in a fresh interpreter per (BLAS
        threads, worker threads) pair of ``runs``."""
        outs = []
        for blas, threads in runs:
            out = tmp_path / f"blas{blas}_threads{threads}"
            _fresh_python("-m", "fracsde", *argv, "--threads", threads,
                          "--out", str(out), OPENBLAS_NUM_THREADS=blas)
            outs.append((out / "negativity_surface.csv").read_bytes())
        return outs

    def test_battery_run_does_not_depend_on_blas_threads(self, tmp_path):
        # the battery's negativity command in fresh interpreters: the
        # triangular BLAS products must not split their sums by thread
        argv = ["negativity", "--T", "3", "--grid-n", "16", "--epsilon", "0.05",
                "--samples", "2000", "--seed", "20240801"]
        outs = self._surfaces(tmp_path, argv, (("1", "1"), ("2", "1"), ("1", "2")))
        assert outs[0] == outs[1] == outs[2]

    def test_cross_tile_products_do_not_depend_on_blas_threads(self, tmp_path):
        # grid 32 runs on three tiles of 11 t cells, the last one padded,
        # so every tile pair's trmm runs at 1 and at 2 BLAS threads
        argv = ["negativity", "--T", "3", "--grid-n", "32", "--epsilon", "0.05",
                "--samples", "300", "--seed", "20240801"]
        outs = self._surfaces(tmp_path, argv, (("1", "1"), ("2", "1")))
        assert outs[0] == outs[1]


class TestNegativityBlocks:
    _ARGV = ["negativity", "--T", "3", "--grid-n", "8", "--epsilon", "0.05",
             "--samples", str(4096 + 300), "--seed", "5"]

    @staticmethod
    def _outputs(monkeypatch, tmp_path, argv, n, rows_list):
        """Report and surface CSV of ``argv`` (grid ``n``) per block size in
        ``rows_list``, at 1 and 2 threads."""
        outs = []
        for rows in rows_list:
            monkeypatch.setattr(experiments, "_CHAIN_BLOCK_VALUES", rows * n * n)
            for threads in ("1", "2"):
                out = tmp_path / f"rows{rows}_threads{threads}"
                assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
                report = _strip_wall(json.loads((out / "report.json").read_text()))
                report["parameters"].pop("threads")
                outs.append((report, (out / "negativity_surface.csv").read_bytes()))
        return outs

    def test_block_size_does_not_move_results(self, monkeypatch, tmp_path):
        # two chunks (4096 and 300); blocks of 7 replicas divide neither, and
        # 4096 a block solves each chunk whole; at 1 and 2 threads
        outs = self._outputs(monkeypatch, tmp_path, self._ARGV, 8, (7, 4096))
        assert all(o == outs[0] for o in outs[1:])

    def test_block_size_does_not_move_results_across_tiles(self, monkeypatch, tmp_path):
        # grid 32 runs on three tiles, the last one padded; blocks of 7
        # replicas and one block of all 300
        argv = ["negativity", "--T", "3", "--grid-n", "32", "--epsilon", "0.05",
                "--samples", "300", "--seed", "5"]
        outs = self._outputs(monkeypatch, tmp_path, argv, 32, (7, 300))
        assert all(o == outs[0] for o in outs[1:])

    def test_step_kernel_is_built_once_a_chunk(self, monkeypatch, tmp_path):
        # one array holds both chain kernels; one build per chunk, however
        # many blocks the chunk draws
        built = []
        make = chaos._chain_kernels
        monkeypatch.setattr(chaos, "_chain_kernels", lambda b, grid: (
            built.append(b) or make(b, grid)))
        monkeypatch.setattr(experiments, "_CHAIN_BLOCK_VALUES", 7 * 8 * 8)
        assert main(self._ARGV + ["--out", str(tmp_path)]) == 0
        assert built == [-1.0, -1.0]

    @staticmethod
    def _peak(settings: RunSettings) -> int:
        tracemalloc.start()
        try:
            cmd_negativity(settings)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_chunk_holds_one_kernel_and_a_few_blocks(self):
        # grid 32: the kernel tiles (3 tiles of 11 t cells, each a square of
        # 368 rows) take 3.2 MB and a block of 512 replicas 4.2 MB; a
        # cells x cells kernel (8.4 MB) in their place breaks the bound, and
        # so does a chunk-wide array of 2000 replicas' summed weights (16.4
        # MB).  The peak must not grow with the replica count: 4000
        # replicas, still one chunk, stay within one block of 2000
        settings = RunSettings(T=3.0, grid_n=32, epsilon=0.05, samples=2000)
        cmd_negativity(replace(settings, samples=10))  # imports and caches
        tiles, block = 3 * 368 * 368, 8 * experiments._CHAIN_BLOCK_VALUES
        peak = self._peak(settings)
        assert peak <= 8 * tiles + 5 * block, peak / 1e6
        more = self._peak(replace(settings, samples=4000))
        assert more <= peak + block, (peak / 1e6, more / 1e6)


def _same_bits(got, want) -> None:
    """Equal structure, and arrays and floats equal bit for bit (nan too)."""
    if isinstance(want, (tuple, list)):
        assert isinstance(got, (tuple, list)) and len(got) == len(want)
        for g, w in zip(got, want):
            _same_bits(g, w)
    elif want is None:
        assert got is None
    else:
        np.testing.assert_array_equal(got, want, strict=True)


def _line_chunks(settings: RunSettings, alpha: float, n: int):
    """(chunk index, fresh values) of the sampler's default call, one a chunk."""
    factor = factor_covariance(alpha, build_grid(n, settings.T))
    for idx, count in experiments._chunk_layout(settings.samples):
        yield idx, sample_fbm_batch(factor, count, RngStreamSpec(settings.seed, idx))[0]


def _one_shot_exact_vs_chaos(s: RunSettings) -> list:
    # the chunk work as first written: each chunk sums the chaos and the
    # exact solution over all its paths at once
    p, t = s.model_params(), build_grid(s.grid_n, s.T).points
    N = 20 if s.truncation is None else s.truncation
    parts = []
    for _, values in _line_chunks(s, s.alpha, s.grid_n):
        with np.errstate(all="ignore"):
            chaos = chaos_total_1d(p.a, p.b, s.alpha, t, values, N)
            exact = exact_solution_1d(p.a, p.b, s.alpha, t, values)
            parts.append((np.max(np.abs(chaos - exact)), chunk_moments(exact[:, -1])))
    return [parts]


def _one_shot_euler_study(s: RunSettings) -> list:
    n_fine = experiments._EULER_STEPS[-1]
    maps = []
    for alpha in experiments._EULER_ALPHAS:
        p = ModelParams(HurstPair(alpha), s.a, 0.0, s.T)
        parts = []
        for _, values in _line_chunks(s, alpha, n_fine):
            limit = exact_solution_1d(s.a, 0.0, alpha, s.T, values[:, -1])
            parts.append([
                chunk_moments((wick_euler_paths(
                    p, build_grid(n, s.T), values[:, :: n_fine // n]
                )[:, -1] - limit) ** 2)
                for n in experiments._EULER_STEPS
            ])
        maps.append(parts)
    return maps


def _one_shot_simulate(s: RunSettings) -> list:
    parts = []
    for idx, values in _line_chunks(s, s.alpha, s.grid_n):
        sq = values**2
        parts.append((len(values), values.T @ values, sq.T @ sq,
                      values[0] if idx == 0 else None))
    return [parts]


class TestLineChunkBuffers:
    """The line commands' chunks run on reused per-thread buffers and row
    blocks; every chunk result keeps the bits of the one-shot chunk work."""

    COMMANDS = {
        "exact-vs-chaos": (experiments.cmd_exact_vs_chaos, _one_shot_exact_vs_chaos,
                           dict(alpha=0.3, grid_n=64, truncation=28)),
        "euler-study": (experiments.cmd_euler_study, _one_shot_euler_study,
                        dict(a=0.25)),
        "simulate": (cmd_simulate, _one_shot_simulate, dict(alpha=0.25, grid_n=8)),
    }

    @staticmethod
    def _chunk_results(monkeypatch, command, settings) -> tuple[list, object]:
        maps = []
        original = experiments._map_chunks

        def recording(work, total, threads):
            maps.append(original(work, total, threads))
            return maps[-1]

        monkeypatch.setattr(experiments, "_map_chunks", recording)
        report = command(settings)
        return maps, report

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("ragged", [1, 7, 100])
    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_chunks_keep_the_one_shot_bits(self, name, ragged, threads, monkeypatch):
        # two full chunks and a ragged third, shorter than one row block
        command, one_shot, model = self.COMMANDS[name]
        settings = RunSettings(samples=2 * 4096 + ragged, seed=5, threads=threads,
                               **model)
        maps, report = self._chunk_results(monkeypatch, command, settings)
        want = one_shot(settings)
        _same_bits(maps, want)
        if name == "exact-vs-chaos":
            sup = {m.name: m for m in report.metrics}["sup_node_error"].value
            assert sup == max(part[0] for part in want[0])

    def test_non_finite_chunks_are_written_as_null(self, monkeypatch, tmp_path):
        # at a = 1e80 every chunk's error is nan; a Python max() over row
        # blocks would drop it
        settings = RunSettings(alpha=0.3, a=1e80, samples=2 * 4096 + 7, seed=5)
        with np.errstate(all="ignore"):
            maps, _ = self._chunk_results(monkeypatch, experiments.cmd_exact_vs_chaos,
                                          settings)
        want = _one_shot_exact_vs_chaos(settings)
        assert all(np.isnan(part[0]) for part in want[0])
        _same_bits(maps, want)
        code = main(["exact-vs-chaos", "--alpha", "0.3", "--a", "1e80", "--samples",
                     str(settings.samples), "--seed", "5", "--out", str(tmp_path)])
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text())
        sup = {m["name"]: m for m in report["metrics"]}["sup_node_error"]
        assert sup["value"] is None and sup["passed"] is False

    def test_first_path_is_not_overwritten_by_later_chunks(self):
        settings = RunSettings(alpha=0.25, grid_n=8, samples=3 * 4096, seed=5)
        report = cmd_simulate(settings)
        _, first = next(_line_chunks(settings, 0.25, 8))
        _, rows = report.tables["sample_path"]
        assert [row[1] for row in rows] == first[0].tolist()

    def test_coefficient_table_is_assembled_once(self):
        chaos._horner_table.cache_clear()
        experiments.cmd_exact_vs_chaos(
            RunSettings(alpha=0.3, grid_n=64, truncation=28, samples=3 * 4096)
        )
        assert chaos._horner_table.cache_info().misses == 1

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_chunks_do_not_fault_in_fresh_pages(self):
        # Linux-specific in practice: ru_minflt counts minor page faults.
        # The one-shot chunk work freed its chunk-sized arrays, and glibc
        # handed their pages back, about 3000 faults a chunk at grid 64; the
        # reused buffers fault in about 1000 pages once per command
        settings = RunSettings(alpha=0.3, grid_n=64, truncation=28, samples=8 * 4096)
        experiments.cmd_exact_vs_chaos(replace(settings, samples=10))  # caches
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        experiments.cmd_exact_vs_chaos(settings)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 8 * 3000 / 4, faults


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


class TestSimulateSheetBlocks:
    def test_blocks_reproduce_the_field_sampler(self, monkeypatch):
        # two chunks, the second ragged (301); blocks of 1 and 7 replicas
        # and one block a chunk give the same report, and its first sheet
        # is chunk 0's first replica, from fields.sample_sheet_batch fed the
        # chunk's noise in one draw
        settings = RunSettings(alpha=0.3, beta=0.7, grid_n=8, samples=4096 + 301,
                               seed=5)
        reports = []
        for rows in (1, 7, 4096):
            monkeypatch.setattr(experiments, "_NOISE_BLOCK_VALUES", rows * 8 * 8)
            reports.append(cmd_simulate(settings))
        payloads = [_strip_wall(r.to_dict()) for r in reports]
        assert payloads[0] == payloads[1] == payloads[2]
        assert [r.tables for r in reports[1:]] == [reports[0].tables] * 2
        line = build_grid(8, 1.0)
        z = RngStreamSpec(5, 0).generator().standard_normal((4096, 8, 8))
        values = sample_sheet_batch(
            factor_covariance(0.3, line), factor_covariance(0.7, line), z,
            np.empty((4096, 9, 9)),
        )
        _, rows = reports[0].tables["sample_sheet"]
        assert [row[2] for row in rows] == values[0].ravel().tolist()

    def test_every_replica_goes_through_the_field_sampler(self, monkeypatch):
        # a traced run times the sampler by wrapping this name, as here; a
        # simulate that bypassed it would leave that layer reading 0
        settings = RunSettings(alpha=0.3, beta=0.7, grid_n=8, samples=4096 + 301,
                               seed=5)
        monkeypatch.setattr(experiments, "_NOISE_BLOCK_VALUES", 7 * 8 * 8)
        plain = _strip_wall(cmd_simulate(settings).to_dict())
        replicas = []
        sampler = experiments.sample_sheet_batch

        def traced(factor_s, factor_t, z, out):
            replicas.append(len(z))
            return sampler(factor_s, factor_t, z, out)

        monkeypatch.setattr(experiments, "sample_sheet_batch", traced)
        assert _strip_wall(cmd_simulate(settings).to_dict()) == plain
        assert sum(replicas) == settings.samples
        assert max(replicas) == 7

    def test_holds_blocks_not_the_chunk(self):
        # one 4096-replica chunk of grid-32 noise takes 33.5 MB
        settings = RunSettings(alpha=0.3, beta=0.7, grid_n=32, samples=4096)
        cmd_simulate(replace(settings, samples=10))  # imports and caches
        tracemalloc.start()
        try:
            cmd_simulate(settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestGirsanovTilt:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7, 0.9])
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_tilt_vector_reproduces_the_grid_points(self, alpha, n):
        # E[W_{s,t} xi] = s t needs L a = t at every positive grid point
        line = build_grid(n, 3.0)
        L = factor_covariance(alpha, line).lower_triangular
        t = line.points[1:]
        a = experiments._solve_lower(L, t)
        assert np.max(np.abs(L @ a - t) / t) < 1e-13


class TestGirsanovNoiseBlocks:
    def test_block_size_does_not_move_results(self, monkeypatch):
        # two chunks, the second ragged (301); blocks of 3 replicas leave a
        # ragged block in each chunk, and 4096 per block is one block a chunk
        settings = RunSettings(alpha=0.3, beta=0.3, epsilon=1.0, grid_n=8,
                               samples=4096 + 301, seed=5)
        payloads = []
        for rows in (3, 4096):
            monkeypatch.setattr(experiments, "_NOISE_BLOCK_VALUES", rows * 8 * 8)
            payloads.append(_strip_wall(cmd_girsanov_check(settings).to_dict()))
        assert payloads[0] == payloads[1]

    def test_holds_blocks_not_the_chunk(self):
        # one 4096-replica chunk of grid-32 noise takes 33.5 MB
        settings = RunSettings(alpha=0.3, beta=0.3, epsilon=1.0, grid_n=32,
                               samples=4096)
        cmd_girsanov_check(replace(settings, samples=10))  # imports and caches
        tracemalloc.start()
        try:
            cmd_girsanov_check(settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


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

    def test_partly_overflowing_chaos_fails_its_metric(self, tmp_path, capsys):
        # at a = 1e12 the chaos sum is finite in some cells and not in others
        code = main([
            "exact-vs-chaos", "--a", "1e12", "--samples", "300",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "report.json").read_text())
        sup = {m["name"]: m for m in report["metrics"]}["sup_node_error"]
        assert sup["passed"] is False

    @pytest.mark.parametrize("argv", [
        # the predicted continuum mean overflows; at 1e-200 2 eps^2 is 0
        ["girsanov-check", "--epsilon", "0.01", *_SHEET],
        ["girsanov-check", "--epsilon", "1e-200", *_SHEET],
        # non-finite Monte Carlo moments
        ["girsanov-check", "--T", "1e200", *_SHEET],
        ["euler-study", "--a", "1e200"],
        ["simulate", "--T", "1e300", *_SHEET],
        # the grid's powers and the inverse-kernel quadrature overflow
        ["girsanov-check", "--T", "1e300", *_SHEET],
        ["euler-study", "--T", "1e300"],
        # the product variance overflows, so every standard error is inf
        ["simulate", "--alpha", "0.3", "--grid-n", "8", "--T", "1e300"],
        # the chaos sum overflows, in the calling thread and in the pool's
        # worker threads, which do not inherit an np.errstate
        ["exact-vs-chaos", "--a", "1e80"],
        ["exact-vs-chaos", "--a", "1e80", "--threads", "2"],
        # the norm identity's target T^{2 alpha} underflows to 0
        ["operator-check", "--alpha", "0.75", "--T", "1e-300"],
        # the norm's quadrature and its target T^{2 alpha} both overflow
        ["operator-check", "--alpha", "0.75", "--T", "1e300"],
        ["operator-check", "--alpha", "0.6", "--T", "1e300"],
        # the terminal mean's target e^{bT} overflows
        ["exact-vs-chaos", "--b", "800"],
        ["exact-vs-chaos", "--alpha", "0.7", "--a", "1", "--b", "0.5", "--T", "1e8"],
    ], ids=["eps0.01", "eps1e-200", "girsanovT", "euler", "simulate",
            "girsanovT1e300", "eulerT1e300", "simulateLine", "chaos",
            "chaosThreads2", "operatorT1e-300", "operatorT1e300",
            "operatorAlpha0.6T1e300", "chaosB800", "chaosT1e8"])
    def test_overflow_fails_its_metric_without_a_traceback(self, argv, tmp_path,
                                                          capsys, recwarn):
        code = main(argv + ["--samples", "100", "--out", str(tmp_path)])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(
            (tmp_path / "report.json").read_text(), parse_constant=reject
        )
        assert report["passed"] is False
        failed = [m for m in report["metrics"] if not m["passed"]]
        assert any(m["value"] is None or m["target"] is None for m in failed)

    def test_non_finite_setting_exits_two(self, tmp_path, capsys):
        code = main(["operator-check", "--a", "inf", "--out", str(tmp_path)])
        assert code == 2
        assert "finite" in capsys.readouterr().err


class TestCompareRuns:
    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"

    def _compare(self, old: Path, new: Path) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, str(self.SCRIPT), str(old), str(new)],
                              capture_output=True, text=True, timeout=60)

    def test_thread_counts_compare_equal_and_edits_do_not(self, tmp_path):
        argv = ["simulate", "--grid-n", "8", "--samples", "200"]
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
        run = self._compare(tmp_path / "1", tmp_path / "2")
        assert run.returncode == 0, run.stdout
        csv_file = tmp_path / "2" / "covariance.csv"
        data = bytearray(csv_file.read_bytes())
        data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
        csv_file.write_bytes(bytes(data))
        run = self._compare(tmp_path / "1", tmp_path / "2")
        assert run.returncode == 1 and "differs: covariance.csv" in run.stdout
        (tmp_path / "1" / "covariance.csv").write_bytes(bytes(data))
        (tmp_path / "2" / "sample_path.csv").unlink()
        run = self._compare(tmp_path / "1", tmp_path / "2")
        assert run.returncode == 1 and "sample_path.csv" in run.stdout
        assert "differs" not in run.stdout

    def test_csv_differences_are_sized(self, tmp_path):
        # one cell moves in its last bits, one by 0.5, and a flag flips; the
        # header and the unchanged cells do not count
        rows = [["s", "mean", "in_window"], ["0.5", "1.0", "True"],
                ["1.0", "-0.25", "False"]]
        moved = [["s", "mean", "in_window"], ["0.5", repr(1.0 + 2**-52), "True"],
                 ["1.0", "0.25", "True"]]
        for side, table in (("old", rows), ("new", moved)):
            (tmp_path / side).mkdir()
            text = "\n".join(",".join(row) for row in table) + "\n"
            (tmp_path / side / "surface.csv").write_text(text)
        run = self._compare(tmp_path / "old", tmp_path / "new")
        assert run.returncode == 1
        assert run.stdout.strip() == (
            "differs: surface.csv (2 numeric cells, largest gap 0.5 absolute "
            "and 2 relative; 1 other cells)"
        )
        (tmp_path / "new" / "surface.csv").write_text("s,mean\n0.5,1.0\n")
        run = self._compare(tmp_path / "old", tmp_path / "new")
        assert "differs: surface.csv (tables differ in shape)" in run.stdout

    def test_report_differences_name_the_metric_and_field(self, tmp_path):
        # a moved tolerance text and list entry are named down to the field,
        # a metric on one side only by its name; wall time and threads, and
        # a metric that moved only its position, do not count
        for side in ("old", "new"):
            assert main(["operator-check", "--alpha", "0.25", "--threads", "1",
                         "--out", str(tmp_path / side)]) == 0
        path = tmp_path / "new" / "report.json"
        report = json.loads(path.read_text())
        metrics = {m["name"]: m for m in report["metrics"]}
        metrics["indicator_norm_identity"]["tolerance"] = "< 1e-4"
        metrics["derivative_integral_roundtrip"]["detail"]["orders"][1] = 0.5
        del metrics["gap_integral_slope"]
        report["metrics"] = list(reversed(metrics.values()))
        report["wall_seconds"] += 1.0
        report["parameters"]["threads"] = 2
        path.write_text(json.dumps(report))
        run = self._compare(tmp_path / "old", tmp_path / "new")
        assert run.returncode == 1
        assert run.stdout.splitlines() == [
            "differs: report.json [metrics.derivative_integral_roundtrip.detail.orders.1]",
            "differs: report.json [metrics.gap_integral_slope]",
            "differs: report.json [metrics.indicator_norm_identity.tolerance]",
        ]
