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
from fracsde.quad import gauss_legendre_01
from fracsde.special import volterra_kernel
from fracsde.model import RngStreamSpec, build_grid, chunk_moments

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
        )
        parsed = parse_config_file(cfg)
        assert parsed == {
            "alpha": 0.7,
            "grid_n": 32,
            "epsilon": 0.25,
            "beta": None,
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
            ["simulate", "--config", str(cfg), "--alpha", "0.25"]
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

    @pytest.mark.parametrize("value", ["-1e-3", "-2.5E+1", "-1", "-.5",
                                       "-inf", "-Infinity", "-nan"])
    def test_negative_values_parse_in_either_spelling(self, value, tmp_path,
                                                      capsys):
        # argparse reads "-1" as a value but "-1e-3" and "-inf" as unknown
        # options; a non-finite value stops in RunSettings either way
        spaced = _parser().parse_args(["exact-vs-chaos", "--b", value])
        joined = _parser().parse_args(["exact-vs-chaos", f"--b={value}"])
        assert repr(spaced) == repr(joined)
        assert repr(spaced.b) == repr(float(value))
        if not math.isfinite(float(value)):
            errors = []
            for flag in (["--b", value], [f"--b={value}"]):
                assert main(["exact-vs-chaos", *flag, "--out", str(tmp_path)]) == 2
                errors.append(capsys.readouterr().err)
            assert errors[0] == errors[1]
            assert "error: ValueError: real-valued settings must be finite" in errors[0]

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



def _refused(base: list[str], flags: list[list[str]], capsys) -> None:
    """Each flag, added to ``base``, stops in the parser with exit 2 and an
    error that names it."""
    for flag in flags:
        with pytest.raises(SystemExit) as exit_:
            main(base + flag)
        assert exit_.value.code == 2, flag
        assert f"error: unrecognized arguments: {' '.join(flag)}" in (
            capsys.readouterr().err), flag


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

    def test_operator_check_echoes_only_what_it_reads(self, tmp_path, capsys):
        # the checks read alpha and T; settings they ignore are refused as
        # flags and echoed as null
        base = ["operator-check", "--alpha", "0.25"]
        assert main(base + ["--out", str(tmp_path)]) == 0
        params = json.loads((tmp_path / "report.json").read_text())["parameters"]
        for key in ("samples", "beta", "a", "b", "grid_n", "epsilon", "truncation"):
            assert params[key] is None, key
        assert (params["alpha"], params["T"], params["threads"]) == (0.25, 1.0, 1)
        _refused(base, [["--samples", "50"], ["--a", "3"]], capsys)

    def test_euler_study_echoes_only_what_it_reads(self, tmp_path, capsys):
        # the study fixes its Hurst exponents and step counts and is
        # driftless; settings it ignores are refused as flags and echoed as
        # null
        base = ["euler-study", "--samples", "200"]
        assert main(base + ["--out", str(tmp_path)]) in (0, 1)
        params = json.loads((tmp_path / "report.json").read_text())["parameters"]
        for key in ("alpha", "beta", "b", "grid_n", "epsilon", "truncation"):
            assert params[key] is None, key
        assert (params["a"], params["samples"], params["T"]) == (1.0, 200, 1.0)
        _refused(base, [["--alpha", "0.9"], ["--grid-n", "8"], ["--epsilon", "3"],
                        ["--truncation", "5"], ["--beta", "0.7"], ["--b", "0.5"]],
                 capsys)

    def test_verdict_lines_on_stdout(self, tmp_path, capsys):
        code = main([
            "operator-check", "--alpha", "0.3", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "operator-check: PASS" in out
        assert out.count("PASS") >= 2  # one per metric plus the summary


class TestExitCodes:
    def test_failing_metric_exits_one(self, tmp_path, monkeypatch):
        # an ungraded Gauss-Legendre rule misses the kernel's endpoint
        # singularity, so the norm identity fails
        def ungraded(alpha, t, T):
            nodes, weights = gauss_legendre_01(8)
            return float(t * np.sum(weights * volterra_kernel(alpha, t, t * nodes) ** 2))

        monkeypatch.setattr(experiments, "kstar_indicator_norm_sq", ungraded)
        code = main(["operator-check", "--alpha", "0.3", "--out", str(tmp_path)])
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is False
        failed = [m["name"] for m in report["metrics"] if not m["passed"]]
        assert failed == ["indicator_norm_identity"]

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
        # the Euler scheme is driftless, so the study takes no --b
        _refused(["euler-study", "--samples", "10", "--out", str(tmp_path)],
                 [["--b", "0.5"]], capsys)

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

    @pytest.mark.parametrize(
        "command", sorted({a[0] for a in _SMALL_RUNS} - {"operator-check"}))
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

    def test_echoes_the_model_it_runs(self, tmp_path, capsys):
        # the study runs at Hurst (1/2, 1/2) with drift -a, so it takes no
        # --alpha, --beta or --b; the report must say what ran
        base = ["negativity", "--T", "3", "--grid-n", "8", "--epsilon", "0.05",
                "--samples", "200"]
        assert main(base + ["--out", str(tmp_path)]) == 0
        params = json.loads((tmp_path / "report.json").read_text())["parameters"]
        assert (params["alpha"], params["beta"], params["b"]) == (0.5, 0.5, -1.0)
        _refused(base, [["--alpha", "0.7"], ["--beta", "0.2"], ["--b", "5"]], capsys)

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
            monkeypatch.setattr(experiments, "_NOISE_BLOCK_VALUES", rows * n * n)
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

    def test_block_size_does_not_move_results_at_the_benchmark_grid(
        self, monkeypatch, tmp_path
    ):
        # grid 48 runs on four tiles of 12 t cells, in squares of 592 rows;
        # blocks of 113 and 227 replicas divide 240 into 3 and 2 blocks
        argv = ["negativity", "--T", "3", "--grid-n", "48", "--epsilon", "0.05",
                "--samples", "240", "--seed", "5"]
        outs = self._outputs(monkeypatch, tmp_path, argv, 48, (113, 227))
        assert all(o == outs[0] for o in outs[1:])

    def test_step_kernel_is_built_once_a_chunk(self, monkeypatch, tmp_path):
        # one array holds both chain kernels; one build per chunk, however
        # many blocks the chunk draws
        built = []
        make = chaos._chain_kernels
        monkeypatch.setattr(chaos, "_chain_kernels", lambda b, grid: (
            built.append(b) or make(b, grid)))
        monkeypatch.setattr(experiments, "_NOISE_BLOCK_VALUES", 7 * 8 * 8)
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
        # 368 rows) take 3.2 MB and a block of 256 replicas 2.1 MB.  A block
        # holds three arrays at once (noise, level, summed weights, then
        # the solution in place of the level), about 3.5 blocks with the
        # trmm buffer; a block's solution kept alive while the next one is
        # solved adds a fourth and breaks the bound, and so do a cells x
        # cells kernel (8.4 MB) in place of the tiles and a chunk-wide
        # array of 2000 replicas' summed weights (16.9 MB).  The peak must
        # not grow with the replica count: 4000 replicas, still one chunk,
        # stay within one block of 2000
        settings = RunSettings(T=3.0, grid_n=32, epsilon=0.05, samples=2000)
        cmd_negativity(replace(settings, samples=10))  # imports and caches
        tiles, block = 3 * 368 * 368, 8 * experiments._NOISE_BLOCK_VALUES
        peak = self._peak(settings)
        assert peak <= 8 * tiles + 4 * block, peak / 1e6
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
        rng = RngStreamSpec(settings.seed, idx).generator()
        yield idx, sample_fbm_batch(factor, count, rng)[0]


def _row_block_mismatches(n: int, values: int, node_major: bool) -> list[int]:
    """Chunk sizes at which ``experiments._row_blocks`` (blocks of about
    ``values`` values of n+1 nodes) gives a block a GEMM by L whose bits
    differ from its rows of one GEMM over the chunk.  The sizes leave every
    last block the blocking can: a lone tail of each length above 192
    rows, a full block joined by a tail of each length up to 192, and a
    full block; then a whole 4096-replica chunk.  Each product is written
    where the command writes it: the chunk's into an array of the chunk,
    a block's into the prefix of an array of the largest block."""
    L = factor_covariance(0.3, build_grid(n, 1.0))
    rows = experiments._row_blocks(4096, values // (n + 1))[0][1]
    tail = experiments._GEMM_TAIL_ROWS
    z = np.random.default_rng(0).standard_normal((4096, n))
    flat = np.empty((2, 4096 * (n + 1)))

    def product(z, most, k):
        # the transpose of an (n+1, most) array, or a (most, n+1) one
        shape = (n + 1, most) if node_major else (most, n + 1)
        out = flat[k][:math.prod(shape)].reshape(shape)
        out = out.T if node_major else out
        return np.matmul(z, L.T, out=out[:len(z), 1:])

    counts = [*range(rows + tail + 1, 2 * rows), *range(2 * rows, 2 * rows + tail + 1),
              4096]
    bad = []
    for count in counts:
        blocks = experiments._row_blocks(count, values // (n + 1))
        most = max(stop - start for start, stop in blocks)
        whole = product(z[:count], count, 0)
        if not all(np.array_equal(product(z[start:stop], most, 1), whole[start:stop])
                   for start, stop in blocks):
            bad.append(count)
    return bad


def _one_shot_exact_vs_chaos(s: RunSettings) -> list:
    # the chunk work as first written: each chunk sums the chaos and the
    # exact solution over all its paths at once
    t = build_grid(s.grid_n, s.T).points
    N = 20 if s.truncation is None else s.truncation
    parts = []
    for _, values in _line_chunks(s, s.alpha, s.grid_n):
        with np.errstate(all="ignore"):
            chaos = chaos_total_1d(s.a, s.b, s.alpha, t, values, N)
            exact = exact_solution_1d(s.a, s.b, s.alpha, t, values)
            parts.append((np.max(np.abs(chaos - exact)), chunk_moments(exact[:, -1])))
    return [parts]


def _one_shot_euler_study(s: RunSettings) -> list:
    n_fine = experiments._EULER_STEPS[-1]
    maps = []
    for alpha in experiments._EULER_ALPHAS:
        parts = []
        for _, values in _line_chunks(s, alpha, n_fine):
            limit = exact_solution_1d(s.a, 0.0, alpha, s.T, values[:, -1])
            parts.append([
                chunk_moments((wick_euler_paths(
                    s.a, alpha, build_grid(n, s.T), values[:, :: n_fine // n]
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


def _gemv_block_mismatches(n: int) -> list[int]:
    """Chunk sizes from 1 to 4096 at which girsanov-check's blocks of n x n
    noise give a block's gemv bits that differ from its rows of one gemv
    over the chunk's first contractions.  A block's contractions are written
    where the command writes them, at the head of one array.  Every block
    but a count's last is a full block of the same rows at every count, so
    its gemv is taken once."""
    rng = np.random.default_rng(0)
    w, x = rng.standard_normal((4096, n)), rng.standard_normal(n)
    rows = experiments._NOISE_BLOCK_VALUES // (n * n)
    head = np.empty((4096, n))

    def block_gemv(start, stop, out):
        head[:stop - start] = w[start:stop]
        np.matmul(head[:stop - start], x, out=out[start:stop])

    step = experiments._row_blocks(4096, rows, tail=experiments._GEMV_TAIL_ROWS)[0][1]
    got = np.empty(4096)
    for start in range(0, 4096 - step + 1, step):
        block_gemv(start, start + step, got)
    full = got.copy()
    bad = []
    for count in range(1, 4097):
        start, stop = experiments._row_blocks(
            count, rows, tail=experiments._GEMV_TAIL_ROWS)[-1]
        got[:start] = full[:start]
        block_gemv(start, stop, got)
        if not np.array_equal(got[:count], w[:count] @ x):
            bad.append(count)
    return bad


def _one_shot_girsanov(s: RunSettings) -> list:
    # each chunk's xi and W_TT as first written: one gemv over the chunk's
    # first contractions, in the order girsanov_log_density reads them
    n = s.grid_n
    line = build_grid(n, s.T)
    Ls, Lt = factor_covariance(s.alpha, line), factor_covariance(s.beta, line)
    avec = experiments._solve_lower(Ls, line.points[1:])
    bvec = experiments._solve_lower(Lt, line.points[1:])
    out = []
    for idx, count in experiments._chunk_layout(s.samples):
        rng = RngStreamSpec(s.seed, idx).generator()
        w_s, xi_s = np.empty((count, n)), np.empty((count, n))
        for r0 in range(0, count, 64):
            z = rng.standard_normal((min(64, count - r0), n, n))
            np.matmul(Ls[-1, :], z, out=w_s[r0:r0 + len(z)])
            np.matmul(avec, z, out=xi_s[r0:r0 + len(z)])
        out += [xi_s @ bvec, w_s @ Lt[-1, :]]
    return out


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

    @pytest.mark.parametrize("name, model, nodes, arrays", [
        ("exact-vs-chaos", dict(alpha=0.3, grid_n=64, truncation=28), 65, 0.75),
        ("euler-study", dict(a=0.25), 129, 0.75),
        ("simulate", dict(alpha=0.25, grid_n=64), 65, 2.5),
    ], ids=["exact-vs-chaos", "euler-study", "simulate"])
    def test_noise_shares_an_array_with_the_outputs(self, name, model, nodes, arrays):
        # the peak of one 4096-replica chunk, in arrays of `nodes` values a
        # replica.  exact-vs-chaos and euler-study sample, and work on, row
        # blocks of a few hundred paths: no chunk-sized array of paths or
        # noise, and a quarter of an array of slack covers the blocks, the
        # chunk's moments and the report's tables (they peak at 0.58 and
        # 0.39).  Line simulate keeps two chunk-sized arrays: its noise is
        # dead before the squares are written, so it lives in their array,
        # and the slack of half an array covers the moments and the tables
        command = self.COMMANDS[name][0]
        settings = RunSettings(samples=4096, **model)
        command(replace(settings, samples=10))  # imports and caches
        tracemalloc.start()
        try:
            command(settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        array = 4096 * nodes * 8
        assert peak < arrays * array, (peak / 1e6, array / 1e6)

    def test_row_blocks_keep_the_one_shot_bits(self):
        # the rule of experiments._row_blocks, in a fresh interpreter at one
        # BLAS thread, where the battery and the benchmark run (at two, the
        # node-major blocks move bits): exact-vs-chaos samples 65 nodes
        # row-major, at its block size and at the floor of 200 rows that a
        # smaller block size is raised to, and euler-study 129 node-major
        cases = [(64, experiments._CHAOS_BLOCK_VALUES, False), (64, 1, False),
                 (128, experiments._EULER_BLOCK_VALUES, True)]
        out = _fresh_python(
            "-c",
            f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from test_experiments_cli import _row_block_mismatches as mismatches\n"
            f"print([mismatches(*case) for case in {cases!r}])",
            OPENBLAS_NUM_THREADS="1",
        )
        assert out.stdout.strip() == repr([[]] * len(cases))
        assert [experiments._row_blocks(4096, v // (n + 1))[0][1]
                for n, v, _ in cases] == [248, 200, 504]

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

    def test_chaos_block_size_does_not_move_bits(self, monkeypatch, tmp_path):
        # two chunks (4096 and 300) at 65 nodes; row blocks of 1 row (from
        # 1 and from 65 values), of 4 and of 126 rows, and one block a chunk
        # give the same report and table bytes
        argv = ["exact-vs-chaos", "--alpha", "0.7", "--a", "1.3", "--grid-n", "64",
                "--truncation", "28", "--samples", str(4096 + 300), "--seed", "9"]
        outs = []
        for values in (1, 65, 4 * 65 + 7, 2**13, 2**20):
            monkeypatch.setattr(experiments, "_CHAOS_BLOCK_VALUES", values)
            out = tmp_path / str(values)
            assert main(argv + ["--out", str(out)]) == 0
            report = _strip_wall(json.loads((out / "report.json").read_text()))
            outs.append((report, (out / "exact_vs_chaos.csv").read_bytes()))
        assert all(o == outs[0] for o in outs[1:])

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
    # values a replica holds in a block at grid 8: noise, L_s Z and sheet
    VALUES = 2 * 8 * 8 + 9 * 9

    def test_blocks_reproduce_the_field_sampler(self, monkeypatch):
        # two chunks, the second ragged (301); blocks of 1 and 7 replicas
        # and one block a chunk give the same report, and its first sheet
        # is chunk 0's first replica, from fields.sample_sheet_batch fed the
        # chunk's noise in one draw
        settings = RunSettings(alpha=0.3, beta=0.7, grid_n=8, samples=4096 + 301,
                               seed=5)
        reports = []
        for rows in (1, 7, 4096):
            monkeypatch.setattr(experiments, "_SHEET_BLOCK_VALUES", rows * self.VALUES)
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
        monkeypatch.setattr(experiments, "_SHEET_BLOCK_VALUES", 7 * self.VALUES)
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
        # one 4096-replica chunk of grid-32 noise takes 33.5 MB.  A block of
        # 20 replicas holds its noise, L_s Z and its sheets in 0.5 MB, and
        # the count-long outputs and the table take 0.15 MB more; blocks of
        # 256 replicas (2 MB of noise, three such arrays) would peak at 6.6 MB
        settings = RunSettings(alpha=0.3, beta=0.7, grid_n=32, samples=4096)
        cmd_simulate(replace(settings, samples=10))  # imports and caches
        tracemalloc.start()
        try:
            cmd_simulate(settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6, peak / 1e6


class TestGirsanovTilt:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7, 0.9])
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_tilt_vector_reproduces_the_grid_points(self, alpha, n):
        # E[W_{s,t} xi] = s t needs L a = t at every positive grid point
        line = build_grid(n, 3.0)
        L = factor_covariance(alpha, line)
        t = line.points[1:]
        a = experiments._solve_lower(L, t)
        assert np.max(np.abs(L @ a - t) / t) < 1e-13


class TestGirsanovNoiseBlocks:
    def test_block_size_does_not_move_results(self, monkeypatch):
        # two chunks, the second ragged (301); blocks of 3 replicas round up
        # to 8 and leave a ragged block of 5 in the second chunk, and 4096
        # per block is one block a chunk
        settings = RunSettings(alpha=0.3, beta=0.3, epsilon=1.0, grid_n=8,
                               samples=4096 + 301, seed=5)
        payloads = []
        for rows in (3, 4096):
            monkeypatch.setattr(experiments, "_NOISE_BLOCK_VALUES", rows * 8 * 8)
            payloads.append(_strip_wall(cmd_girsanov_check(settings).to_dict()))
        assert payloads[0] == payloads[1]

    def test_holds_blocks_not_the_chunk(self):
        # one 4096-replica chunk of grid-32 noise takes 33.5 MB; a block of
        # 256 replicas takes 2.1 MB; keeping the whole chunk's two first
        # contractions (1 MB each) would peak at 4.4 MB
        settings = RunSettings(alpha=0.3, beta=0.3, epsilon=1.0, grid_n=32,
                               samples=4096)
        cmd_girsanov_check(replace(settings, samples=10))  # imports and caches
        tracemalloc.start()
        try:
            cmd_girsanov_check(settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6, peak / 1e6

    @pytest.mark.parametrize("n", [64, 48])
    def test_block_gemv_keeps_the_chunk_bits(self, n):
        # the rule of _GEMV_TAIL_ROWS at the blocks the command cuts: 64 rows
        # at grid 64 and 112 (113 rounded down to a multiple of 8) at grid 48
        rows = experiments._NOISE_BLOCK_VALUES // (n * n)
        blocks = experiments._row_blocks(4096, rows, tail=experiments._GEMV_TAIL_ROWS)
        assert blocks[0][1] == {64: 64, 48: 112}[n]
        assert _gemv_block_mismatches(n) == []

    def test_one_row_tail_keeps_the_one_shot_bits(self, monkeypatch):
        # grid 64, two chunks; the second (65) ends in a 1-row block that
        # joins the block before it.  The report reads the noise only
        # through each chunk's xi and W_TT, so they must keep the bits of
        # one gemv over the chunk's first contractions
        settings = RunSettings(alpha=0.3, beta=0.3, epsilon=1.0, grid_n=64,
                               samples=4096 + 65, seed=5)
        seen = []
        density = experiments.girsanov_log_density
        monkeypatch.setattr(experiments, "girsanov_log_density", lambda eps, x, norm: (
            seen.append(x.copy()) or density(eps, x, norm)))
        assert cmd_girsanov_check(settings).passed
        _same_bits(seen, _one_shot_girsanov(settings))


class TestSheetFieldsBlasThreads:
    def test_reports_do_not_depend_on_blas_threads(self, tmp_path):
        # the sheet-fields commands at grid 64 on two chunks (4096 and 65),
        # in fresh interpreters at one and two BLAS threads
        common = ["--grid-n", "64", "--samples", str(4096 + 65), "--seed", "5",
                  "--threads", "2"]
        argvs = {"simulate": ["simulate", "--alpha", "0.3", "--beta", "0.7", *common],
                 "girsanov": ["girsanov-check", "--alpha", "0.3", "--beta", "0.3",
                              "--epsilon", "1", *common]}
        outs = []
        for blas in ("1", "2"):
            runs = {name: [*argv, "--out", str(tmp_path / blas / name)]
                    for name, argv in argvs.items()}
            _fresh_python("-c", "from fracsde.cli import main\n"
                          f"for argv in {list(runs.values())!r}: main(argv)",
                          OPENBLAS_NUM_THREADS=blas)
            for name in runs:
                out = tmp_path / blas / name
                report = _strip_wall(json.loads((out / "report.json").read_text()))
                report["parameters"].pop("threads")
                outs.append((report, {p.name: p.read_bytes()
                                      for p in sorted(out.glob("*.csv"))}))
        assert outs[:2] == outs[2:]


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
        ["girsanov-check", "--epsilon", "0.01", *_SHEET, "--samples", "100"],
        ["girsanov-check", "--epsilon", "1e-200", *_SHEET, "--samples", "100"],
        # non-finite Monte Carlo moments
        ["girsanov-check", "--T", "1e200", *_SHEET, "--samples", "100"],
        ["euler-study", "--a", "1e200", "--samples", "100"],
        ["simulate", "--T", "1e300", *_SHEET, "--samples", "100"],
        # the grid's powers and the inverse-kernel quadrature overflow
        ["girsanov-check", "--T", "1e300", *_SHEET, "--samples", "100"],
        ["euler-study", "--T", "1e300", "--samples", "100"],
        # the coarse inverse-kernel norm underflows to 0, so the refinement
        # ratio has no denominator
        ["girsanov-check", "--T", "1e-300", *_SHEET, "--samples", "100"],
        # every Euler error underflows to 0: the verdicts have no signal
        ["euler-study", "--T", "1e-100", "--samples", "100"],
        # the product variance overflows, so every standard error is inf
        ["simulate", "--alpha", "0.3", "--grid-n", "8", "--T", "1e300",
         "--samples", "100"],
        # every product and standard error underflows to 0, which leaves a
        # covariance gap of about 1e-180 with no spread to measure it by
        ["simulate", "--alpha", "0.3", "--grid-n", "8", "--T", "1e-300",
         "--samples", "100"],
        # the chaos sum overflows, in the calling thread and in the pool's
        # worker threads, which do not inherit an np.errstate
        ["exact-vs-chaos", "--a", "1e80", "--samples", "100"],
        ["exact-vs-chaos", "--a", "1e80", "--threads", "2", "--samples", "100"],
        # the norm identity's target T^{2 alpha} underflows to 0
        ["operator-check", "--alpha", "0.75", "--T", "1e-300"],
        # the norm's quadrature and its target T^{2 alpha} both overflow
        ["operator-check", "--alpha", "0.75", "--T", "1e300"],
        ["operator-check", "--alpha", "0.6", "--T", "1e300"],
        # the terminal mean's target e^{bT} overflows
        ["exact-vs-chaos", "--b", "800", "--samples", "100"],
        ["exact-vs-chaos", "--alpha", "0.7", "--a", "1", "--b", "0.5", "--T", "1e8",
         "--samples", "100"],
    ], ids=["eps0.01", "eps1e-200", "girsanovT", "euler", "simulate",
            "girsanovT1e300", "eulerT1e300", "girsanovT1e-300", "eulerT1e-100",
            "simulateLine", "simulateLineT1e-300", "chaos",
            "chaosThreads2", "operatorT1e-300", "operatorT1e300",
            "operatorAlpha0.6T1e300", "chaosB800", "chaosT1e8"])
    def test_overflow_fails_its_metric_without_a_traceback(self, argv, tmp_path,
                                                          capsys, recwarn):
        code = main(argv + ["--out", str(tmp_path)])
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

    @pytest.mark.parametrize("flags", [["--T", "1e-100"], ["--a", "1e200"]],
                             ids=["underflow", "overflow"])
    def test_euler_errors_without_signal_fail_both_verdicts(self, flags, tmp_path):
        # at T = 1e-100 every error is exactly 0, where "0 >= 0 / 2" would
        # pass alpha 0.3; at a = 1e200 every error overflows
        code = main(["euler-study", *flags, "--samples", "100", "--out", str(tmp_path)])
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text())
        metrics = {m["name"]: m for m in report["metrics"]}
        assert {m["detail"]["verdict"] for m in metrics.values()} == {"NO-SIGNAL"}
        for alpha in ("0.3", "0.7"):
            assert metrics[f"euler_alpha_{alpha}"]["value"] is None
            assert metrics[f"euler_alpha_{alpha}"]["passed"] is False

    @pytest.mark.parametrize("a, signal", [("1e-8", False), ("1e-7", False),
                                           ("1e-6", True)])
    def test_euler_errors_at_the_rounding_floor_carry_no_signal(self, a, signal,
                                                                tmp_path):
        # each factor of a 128-step product rounds X_T by about eps, so
        # errors up to (128 eps)^2 E[X_T^2], about 8e-28, are rounding noise:
        # err(8) reads at most 2.6e-29 at a = 1e-7, and at least 1.1e-26 at
        # a = 1e-6.  At a = 1e-8 alpha 0.3 used to pass on rounding noise
        code = main(["euler-study", "--a", a, "--samples", "10", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "report.json").read_text())
        metrics = {m["name"]: m for m in report["metrics"]}
        verdicts = {m["detail"]["verdict"] for m in metrics.values()}
        if signal:
            assert "NO-SIGNAL" not in verdicts
            return
        assert code == 1 and verdicts == {"NO-SIGNAL"}
        for alpha in ("0.3", "0.7"):
            assert metrics[f"euler_alpha_{alpha}"]["value"] is None
            assert metrics[f"euler_alpha_{alpha}"]["passed"] is False

    def test_underflowing_target_fails_its_metric(self, tmp_path):
        # e^{bT} underflows to 0 at b = -800, and so does every X_T: a
        # mean of 0 with no spread would match a target of 0 exactly
        argv = ["exact-vs-chaos", "--alpha", "0.7", "--grid-n", "8",
                "--samples", "10", "--b", "-800", "--out", str(tmp_path)]
        assert main(argv) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        mean = {m["name"]: m for m in report["metrics"]}["terminal_mean"]
        assert mean["value"] == 0.0 and mean["std_error"] == 0.0
        assert mean["target"] is None and mean["passed"] is False

    def test_non_finite_standard_error_fails_its_metric(self, tmp_path):
        # at T = 1e100 the corner variance (about 1.6e200) is finite, but
        # its standard error overflows: "gap <= 4 * inf" bounds nothing
        argv = ["simulate", "--alpha", "0.3", "--beta", "0.7", "--grid-n", "8",
                "--samples", "10", "--T", "1e100", "--out", str(tmp_path)]
        assert main(argv) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        corner = {m["name"]: m for m in report["metrics"]}["corner_variance"]
        assert math.isfinite(corner["value"]) and corner["std_error"] is None
        assert corner["passed"] is False

    def test_zero_spread_is_judged_relative_to_the_target(self, tmp_path):
        # at T = 1e-100 the sheet's fourth moments underflow and both
        # standard errors read 0: the corner variance, 1.6 times its target
        # 1e-200, and the increment covariance, 3.7e-203 against -1.9e-202,
        # used to pass on an absolute gap below 1e-12
        argv = ["simulate", "--alpha", "0.3", "--beta", "0.7", "--grid-n", "8",
                "--samples", "10", "--T", "1e-100", "--out", str(tmp_path)]
        assert main(argv) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        for metric in report["metrics"]:
            assert metric["std_error"] == 0.0 and metric["passed"] is False
        # a zero spread that matches its target still passes: girsanov's
        # density is exactly 1 when epsilon is huge
        argv = ["girsanov-check", "--alpha", "0.3", "--beta", "0.3", "--grid-n", "8",
                "--samples", "10", "--epsilon", "1e300", "--out", str(tmp_path)]
        main(argv)
        report = json.loads((tmp_path / "report.json").read_text())
        density = {m["name"]: m for m in report["metrics"]}["density_mean"]
        assert density["std_error"] == 0.0 and density["passed"] is True

    def test_rounding_spread_counts_as_none(self, tmp_path):
        # at a = 0 every path is e^{bT}: only the chunk mean rounds, leaving
        # a standard error of 2e-17 against a gap of 7e-16 to the target, so
        # only the zero-spread rule can pass it
        argv = ["exact-vs-chaos", "--a", "0", "--b", "0.5", "--grid-n", "8",
                "--samples", "1000", "--seed", "1", "--out", str(tmp_path)]
        assert main(argv) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        mean = {m["name"]: m for m in report["metrics"]}["terminal_mean"]
        assert mean["value"] != mean["target"]
        assert 0.0 < mean["std_error"] <= np.finfo(float).eps * mean["value"]

    def test_euler_verdicts_name_the_trend(self):
        report = experiments.cmd_euler_study(RunSettings(a=0.25, samples=2000))
        verdicts = {m.name: m.detail["verdict"] for m in report.metrics}
        assert verdicts["euler_alpha_0.3"] == "DOES-NOT-CONVERGE"
        assert verdicts["euler_alpha_0.7"] == "CONVERGES"
        assert report.passed

    def test_non_finite_setting_exits_two(self, tmp_path, capsys):
        code = main(["exact-vs-chaos", "--a", "inf", "--out", str(tmp_path)])
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
