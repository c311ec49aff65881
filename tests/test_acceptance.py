"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import hashlib
import math

import numpy as np
import pytest

from reference_chain import apply_two_mode_squeezer, mean_photon, vacuum
from squint import presets
from squint.cli import main
from squint.detection import fringe
from squint.estimation import bootstrap_sigma, estimate_phases
from squint.fock import required_n_max, simulate_fock, truncation_error_bound
from squint.gaussian import InterferometerConfig
from squint.metrology import (
    SNL_PER_PHOTON,
    crlb,
    fisher_max_ideal,
    max_fisher,
    noon_fisher_per_photon,
    photons_through_sample,
    threshold_noon,
    threshold_tm,
    threshold_tm_numeric,
)
from squint.simkit import run_tracking, sensitivity_report


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_closed_form_fisher_maximum():
    worst = 0.0
    for r in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
        cfg = InterferometerConfig(r1=r, r2=r)
        _, fmax = max_fisher(cfg)
        closed = fisher_max_ideal(r)
        rel = abs(fmax - closed) / closed
        worst = max(worst, rel)
        assert rel < 1e-3, f"r={r}: relative error {rel:.2e} exceeds 0.1%"
    report(f"1 (closed-form Fisher maximum, r=0.1..0.6): worst rel err {worst:.2e} PASS")


def test_criterion_2_headline_mean_photon_number():
    n_bar = mean_photon(apply_two_mode_squeezer(vacuum(2), 0, 1, 0.59))
    assert n_bar == pytest.approx(0.781, abs=5e-4)
    assert 0.77 <= n_bar <= 0.79  # inside the quoted 0.78(1)
    report(f"2 (mean photon number at r=0.59): {n_bar:.6f} = 0.781 PASS")


def test_criterion_3_ideal_per_photon_benchmark():
    cfg = InterferometerConfig(r1=0.59, r2=0.59)
    _, fmax = max_fisher(cfg)
    per_photon = fmax / photons_through_sample(cfg)
    assert per_photon == pytest.approx(11.12, abs=0.02)
    noon5 = noon_fisher_per_photon(5, 1.0)
    assert per_photon > noon5 > SNL_PER_PHOTON
    report(
        "3 (ideal per-photon benchmark): "
        f"{per_photon:.4f} rad^-2 > 5-NOON {noon5:.1f} > SNL {SNL_PER_PHOTON:.1f}; "
        "the measured 11.6(1) needs the unavailable supplement calibration "
        "(documented discrepancy) PASS"
    )


def test_criterion_4_threshold_cross_validation():
    worst = 0.0
    for n_bar in (0.1, 0.5, 0.78, 1.0, 2.0, 3.0):
        numeric = threshold_tm_numeric(n_bar)
        closed = threshold_tm(n_bar)
        err = abs(numeric - closed)
        worst = max(worst, err)
        assert err < 1e-3, f"n_bar={n_bar}: |numeric-closed| = {err:.2e}"
    tm_curve = [threshold_tm(n) for n in np.linspace(0.0, 3.0, 31)]
    assert all(a > b for a, b in zip(tm_curve, tm_curve[1:]))
    noon_curve = [threshold_noon(n) for n in range(1, 21)]
    assert noon_curve[0] == 1.0
    assert noon_curve[1] == pytest.approx(math.sqrt(0.5), abs=1e-15)
    # (1/N)^(1/N) dips to its minimum at N=3 before climbing toward 1, so the
    # monotone-increase claim holds from N=3 on (see decisions ledger)
    assert all(a < b for a, b in zip(noon_curve[2:], noon_curve[3:]))
    assert noon_curve[-1] > 0.85
    report(
        f"4 (threshold cross-validation): worst |numeric-closed| {worst:.2e} < 1e-3; "
        "eta_tm decreasing; eta_noon increasing toward 1 for N>=3 "
        "(literal N=1..20 monotonicity is false for (1/N)^(1/N), see ledger) PASS"
    )


def test_criterion_5_oracle_equivalence():
    grid = np.linspace(0.0, math.pi, 73)
    budget = 1e-8
    worst = 0.0
    for r in (0.3, 0.59):
        n_max = required_n_max(2 * r, budget)
        assert truncation_error_bound(2 * r, n_max) < budget
        for eta in (1.0, 0.75):
            cfg = InterferometerConfig(r1=r, r2=r, eta_h=eta, eta_v=eta)
            dev = np.abs(fringe(cfg, grid) - simulate_fock(cfg, grid, budget=budget)).max(axis=1)
            i = int(np.argmax(dev))
            worst = max(worst, float(dev[i]))
            assert dev[i] < 1e-6, f"(r={r}, eta={eta}, phi={grid[i]}): |dp| = {dev[i]:.2e}"
    report(f"5 (Gaussian/Fock oracle equivalence, 73-point grid): max |dp| {worst:.2e} PASS")


def test_criterion_6_super_resolution_period(tracking_cfg):
    worst = 0.0
    for cfg in (InterferometerConfig(r1=0.59, r2=0.59), tracking_cfg):
        grid = np.linspace(0.0, math.pi, 25)
        a = fringe(cfg, grid)
        b = fringe(cfg, grid + math.pi)
        worst = max(worst, float(np.abs(a - b).max()))
    assert worst < 1e-10
    report(f"6 (super-resolution period pi): max |p(phi) - p(phi+pi)| {worst:.2e} PASS")


def test_criterion_7_estimator_efficiency(tracking_cfg, tracking_cal):
    trials, reps, phi0, branch = 100_000, 200, 0.58, (0.3, 0.9)
    probs = fringe(tracking_cfg, [phi0])[0]
    draws = np.random.default_rng(0).multinomial(trials, probs, size=reps)
    estimates = estimate_phases(draws, tracking_cal, branch)[0]
    mc_std = estimates.std(ddof=1)
    bound = crlb(tracking_cal.config, [phi0], trials)[0]
    ratio = mc_std / bound
    assert 0.9 <= ratio <= 1.15
    boot = bootstrap_sigma(draws[0], tracking_cal, branch, resamples=200, seed=100)
    assert abs(boot - mc_std) / mc_std < 0.2
    report(
        f"7 (estimator efficiency at phi=0.58): std/CRLB = {ratio:.4f} in [0.9, 1.15]; "
        f"bootstrap/MC = {boot / mc_std:.4f} within 20% PASS"
    )


def test_criterion_8_tracking_replay(tracking_cfg, tracking_cal):
    scenario = presets.fig4_scenario(seed=0)
    run = run_tracking(scenario, tracking_cfg, tracking_cal)
    assert len(run.aggregates) == 11
    for agg in run.aggregates:
        assert agg.n_estimates == scenario.repeats
        assert abs(agg.mean_phi_est - agg.phi_set) < 3 * agg.std_phi_est, (
            f"phase {agg.phi_set}: bias {abs(agg.mean_phi_est - agg.phi_set):.2e} "
            f"vs 3 std {3 * agg.std_phi_est:.2e}"
        )
    rep = sensitivity_report(run)
    best = rep.best()
    assert best is not None and best.enhancement_db > 0.0
    report(
        "8 (tracking replay): all 11 phases within 3 std; "
        f"best phase {best.phi_set:.2f} at {best.enhancement_db:.2f} dB beyond SNL "
        f"(assumed {rep.trials_per_window} trials/window; paper values 3.56 dB, "
        "0.002 rad are rate-dependent and informational) PASS"
    )


def _run_preset(argv, out_dir):
    assert main(argv + ["--out", str(out_dir)]) == 0
    digests = {}
    for path in sorted(out_dir.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests
    return digests


def test_criterion_9_preset_determinism(tmp_path):
    preset_commands = {
        "fig1b": ["fisher", "--preset", "fig1b"],
        "fig1c": ["thresholds", "--preset", "fig1c", "--nbar", "0.5", "0.78", "--noon-max", "20"],
        "fig3-sweep": ["sweep", "--preset", "fig3"],
        "fig3-fisher": ["fisher", "--preset", "fig3", "--phi-steps", "61"],
        "fig3c": ["fisher", "--preset", "fig3c"],
        "fig4": ["track", "--preset", "fig4", "--seed", "0"],
    }
    for name, argv in preset_commands.items():
        first = _run_preset(argv, tmp_path / f"{name}_a")
        second = _run_preset(argv, tmp_path / f"{name}_b")
        assert first == second, f"preset {name} not byte-identical across reruns"
    report("9 (preset determinism): byte-identical CSV/JSON across reruns PASS")
