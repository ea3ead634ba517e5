"""Acceptance gate: ten headline checks with hard tolerances and runtime
budgets.  Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line on the live
terminal (bypassing capture) before asserting, so the verdict survives even
when an assertion trips."""
import functools
import math
import time

import numpy as np

from fracsde.chaos import chaos_norm_decay, deterministic_sheet_solution
from fracsde.experiments import (
    RunSettings,
    cmd_exact_vs_chaos,
    cmd_euler_study,
    cmd_girsanov_check,
    cmd_negativity,
    cmd_operator_check,
    cmd_simulate,
)
from fracsde.model import build_grid2d
from oracles import picard_sheet


def _metric(report, name):
    return {m.name: m for m in report.metrics}[name]


def _announce(capsys, idx: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'}  [{detail}]")


@functools.cache
def _operator_report(alpha: float):
    return cmd_operator_check(RunSettings(alpha=alpha, seed=20240804))


def test_01_chaos_sum_matches_exponential_pathwise(capsys):
    # sup-node gap of the order-20 Hermite sum over 100 paths, 64 nodes,
    # a = 1, b = 0.5, T = 1, for rough / Brownian / smooth exponents
    t0 = time.perf_counter()
    sups = {}
    for alpha in (0.3, 0.5, 0.7):
        report = cmd_exact_vs_chaos(RunSettings(
            alpha=alpha, a=1.0, b=0.5, T=1.0, grid_n=64, samples=100,
            seed=20240801,
        ))
        assert report.parameters["truncation"] == 20
        sups[alpha] = _metric(report, "sup_node_error").value
    elapsed = time.perf_counter() - t0
    worst = max(sups.values())
    ok = worst < 1e-8 and elapsed < 10.0
    _announce(capsys, 1, ok, f"sup error {worst:.3e} < 1e-8, {elapsed:.2f}s < 10s")
    assert worst < 1e-8, sups
    assert elapsed < 10.0


def test_02_monte_carlo_terminal_mean(capsys):
    # E X_T = e^{bT} within 4 standard errors at 1e5 replicas; the deeper
    # truncation keeps the pathwise sup clean at the extreme sample values
    t0 = time.perf_counter()
    gaps = {}
    for alpha, b in ((0.3, 0.0), (0.7, 1.0)):
        report = cmd_exact_vs_chaos(RunSettings(
            alpha=alpha, a=1.0, b=b, T=1.0, grid_n=64, samples=100_000,
            truncation=28, seed=20240802,
        ))
        m = _metric(report, "terminal_mean")
        gaps[(alpha, b)] = abs(m.value - m.target) / m.std_error
        assert report.passed
    elapsed = time.perf_counter() - t0
    worst = max(gaps.values())
    ok = worst < 4.0 and elapsed < 30.0
    _announce(capsys, 2, ok, f"max |z| {worst:.2f} < 4, {elapsed:.2f}s < 30s")
    assert worst < 4.0, gaps
    assert elapsed < 30.0


def test_03_euler_threshold(capsys):
    # the corrected Euler scheme improves with refinement above the
    # exponent threshold and does not below it, on coupled samples
    t0 = time.perf_counter()
    report = cmd_euler_study(RunSettings(a=1.0, b=0.0, T=1.0,
                                         samples=10_000, seed=20240803))
    smooth = _metric(report, "euler_alpha_0.7")
    rough = _metric(report, "euler_alpha_0.3")
    elapsed = time.perf_counter() - t0
    halves = smooth.value < 0.5 * smooth.detail["err_coarse"]
    stalls = rough.value >= 0.5 * rough.detail["err_coarse"]
    ok = halves and stalls and elapsed < 120.0
    _announce(capsys, 3, ok,
              f"0.7 err(128)/err(8) {smooth.value / smooth.detail['err_coarse']:.3f}, "
              f"0.3 ratio {rough.value / rough.detail['err_coarse']:.3f}, "
              f"{elapsed:.2f}s < 120s")
    assert halves and smooth.passed
    assert stalls and rough.passed
    assert report.passed
    assert elapsed < 120.0


def test_04_adjoint_map_isometry_normalisation(capsys):
    # squared image norm of a time indicator equals t^{2 alpha}
    t0 = time.perf_counter()
    errs = {a: _metric(_operator_report(a), "indicator_norm_identity").value
            for a in (0.25, 0.75)}
    elapsed = time.perf_counter() - t0
    worst = max(errs.values())
    ok = worst < 1e-4 and elapsed < 5.0
    _announce(capsys, 4, ok, f"norm gap {worst:.3e} < 1e-4, {elapsed:.2f}s < 5s")
    assert worst < 1e-4, errs
    assert elapsed < 5.0


def test_05_gap_integral_scaling_exponent(capsys):
    # log-log slope of the inverse-kernel gap integral over t in
    # {0.25, 0.5, 1} equals 1 - 2 alpha within 0.02
    t0 = time.perf_counter()
    gaps = {}
    for alpha in (0.25, 0.75):
        m = _metric(_operator_report(alpha), "gap_integral_slope")
        gaps[alpha] = abs(m.value - (1.0 - 2.0 * alpha))
    elapsed = time.perf_counter() - t0
    worst = max(gaps.values())
    ok = worst < 0.02 and elapsed < 5.0
    _announce(capsys, 5, ok, f"slope gap {worst:.4f} < 0.02, {elapsed:.2f}s < 5s")
    assert worst < 0.02, gaps
    assert elapsed < 5.0


def test_06_change_of_measure_normalisation(capsys):
    # unit mean of the tilting density and centering of the shifted field
    # at the far corner, 1e5 replicas, epsilon = 1, both exponents 0.3
    t0 = time.perf_counter()
    report = cmd_girsanov_check(RunSettings(
        alpha=0.3, beta=0.3, T=1.0, epsilon=1.0, samples=100_000,
        grid_n=64, seed=20240806,
    ))
    dens = _metric(report, "density_mean")
    shift = _metric(report, "shifted_field_mean")
    elapsed = time.perf_counter() - t0
    z_dens = abs(dens.value - 1.0) / dens.std_error
    z_shift = abs(shift.value) / shift.std_error
    ok = z_dens < 4.0 and z_shift < 4.0 and elapsed < 60.0
    _announce(capsys, 6, ok,
              f"density z {z_dens:.2f} < 4, shifted z {z_shift:.2f} < 4, "
              f"{elapsed:.2f}s < 60s")
    assert z_dens < 4.0 and dens.passed
    assert z_shift < 4.0 and shift.passed
    assert report.passed
    assert elapsed < 60.0


def test_07_picard_fixed_point(capsys):
    # g = 1 + a iint g on a 64 x 64 grid against the exact profile
    t0 = time.perf_counter()
    g = build_grid2d(64, 64, 2.0)
    ref = {a: deterministic_sheet_solution(a, g.s[:, None], g.t[None, :])
           for a in (-1.0, 1.0)}
    errs = {}
    for a in (-1.0, 1.0):
        res = picard_sheet(a, g)
        assert res.converged
        errs[a] = float(np.max(np.abs(res.values - ref[a])))
    elapsed = time.perf_counter() - t0
    worst = max(errs.values())
    ok = worst < 1e-3 and elapsed < 10.0
    _announce(capsys, 7, ok, f"sup error {worst:.3e} < 1e-3, {elapsed:.2f}s < 10s")
    assert worst < 1e-3, errs
    assert elapsed < 10.0


def test_08_small_noise_negativity(capsys):
    # P(X^eps < 0 on the whole depth-0.1 window) has a strictly positive
    # 95% lower confidence bound at eps = 0.05, order-3 truncation,
    # 16 x 16 grid, 2000 replicas
    t0 = time.perf_counter()
    report = cmd_negativity(RunSettings(
        T=3.0, grid_n=16, epsilon=0.05, samples=2000, seed=20240808,
    ))
    lcb = _metric(report, "all_negative_lcb")
    elapsed = time.perf_counter() - t0
    ok = lcb.value > 0.0 and elapsed < 300.0
    _announce(capsys, 8, ok,
              f"LCB {lcb.value:.4f} > 0 (rate {lcb.detail['p_hat']:.4f}), "
              f"{elapsed:.2f}s < 300s")
    assert lcb.value > 0.0
    assert report.passed
    assert elapsed < 300.0


def test_09_chaos_norm_envelope(capsys):
    # per-order norms sit under C |a|^n T^{alpha (2n+1)} / n! for one
    # fitted constant, and successive ratios contract from order 3 on
    t0 = time.perf_counter()
    norms = chaos_norm_decay(1.0, 0.3, 1.0, 6)
    n = np.arange(7)
    envelope = 1.0 ** n * 1.0 ** (0.3 * (2 * n + 1)) / np.array(
        [math.factorial(k) for k in n]
    )
    fitted = float(np.max(norms / envelope))
    dominated = bool(np.all(norms <= fitted * envelope * (1.0 + 1e-12)))
    ratios = norms[1:] / norms[:-1]
    contracts = bool(np.all(ratios[3:] < 1.0))
    elapsed = time.perf_counter() - t0
    ok = dominated and fitted <= 2.0 and contracts and elapsed < 30.0
    _announce(capsys, 9, ok,
              f"fitted C {fitted:.3f} <= 2, ratios from n=3 max "
              f"{float(ratios[3:].max()):.3f} < 1, {elapsed:.2f}s < 30s")
    assert dominated and fitted <= 2.0
    # the envelope is tight at low order and slack later, so one constant
    # really does cover the whole range
    assert float(np.argmax(norms / envelope)) == 0.0
    assert contracts, ratios
    assert elapsed < 30.0


def test_10_driving_field_covariances(capsys):
    # fBm covariance matrix entrywise within 5 standard errors at 2e5
    # replicas on an 8-point grid; sheet corner variance within 4
    t0 = time.perf_counter()
    zs = {}
    for alpha in (0.25, 0.5, 0.75):
        report = cmd_simulate(RunSettings(
            alpha=alpha, grid_n=8, samples=200_000, seed=20240810,
        ))
        zs[alpha] = _metric(report, "covariance_max_z").value
        assert report.passed
    sheet = cmd_simulate(RunSettings(
        alpha=0.3, beta=0.7, T=1.0, grid_n=8, samples=50_000, seed=20240810,
    ))
    corner = _metric(sheet, "corner_variance")
    z_corner = abs(corner.value - corner.target) / corner.std_error
    elapsed = time.perf_counter() - t0
    worst = max(zs.values())
    ok = worst < 5.0 and z_corner < 4.0 and elapsed < 60.0
    _announce(capsys, 10, ok,
              f"line max z {worst:.2f} < 5, corner z {z_corner:.2f} < 4, "
              f"{elapsed:.2f}s < 60s")
    assert worst < 5.0, zs
    assert z_corner < 4.0 and corner.passed
    assert sheet.passed
    assert elapsed < 60.0
