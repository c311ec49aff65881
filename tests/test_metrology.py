import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from reference_chain import op_by_op_clicks, overlap_one_clicks
from strategies import phase_lists, random_configs
from squint.detection import clicks, fringe
from squint import metrology
from squint.gaussian import InterferometerConfig
from squint.metrology import (
    ACCOUNTINGS,
    BracketError,
    crlb,
    fisher,
    fisher_max_ideal,
    fisher_sweep,
    heisenberg_sensitivity,
    max_fisher,
    noon_fisher_per_photon,
    photons_through_sample,
    threshold_noon,
    threshold_tm,
    threshold_tm_numeric,
)


def ideal(r):
    return InterferometerConfig(r1=r, r2=r)


class TestFisherPerTrial:
    def test_numeric_optimum_matches_closed_form(self):
        # acceptance covers the full r grid; spot-check one interior value
        r = 0.35
        _, fmax = max_fisher(ideal(r))
        assert fmax == pytest.approx(fisher_max_ideal(r), rel=1e-3)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        # at tol 0, below 0 or NaN the refinement never stopped
        with pytest.raises(ValueError, match="tol"):
            max_fisher(ideal(0.59), tol=tol)

    def test_constant_model_gives_zero(self):
        cfg = InterferometerConfig(r1=0.5, r2=0.5, eta_h=0.0, eta_v=0.0)
        assert np.array_equal(fisher(cfg, [0.0, 0.7, 2.0]), np.zeros(3))

    def test_per_photon_benchmark(self):
        cfg = ideal(0.59)
        _, fmax = max_fisher(cfg)
        per_photon = fmax / photons_through_sample(cfg)
        # ratio of the two closed forms: 4(n_bar + 2)
        n_bar = 2 * math.sinh(0.59) ** 2
        assert per_photon == pytest.approx(4 * (n_bar + 2), rel=2e-3)

    def test_fisher_at_fringe_zero_is_exact(self):
        # at phi = pi/2 every click probability but p00 vanishes; the terms
        # dp^2/p keep their limit and F reaches the maximum 4 sinh^2(2r)
        for r in (0.1, 0.3, 0.43, 0.59, 0.8):
            assert fisher(ideal(r), [math.pi / 2])[0] == pytest.approx(fisher_max_ideal(r), abs=1e-9)

    @pytest.mark.parametrize("r", [0.35, 0.59])
    @pytest.mark.parametrize("delta", [1e-12, 1e-9, 1e-7, 1e-6, 1e-5, 1e-3])
    def test_fisher_near_fringe_zero_is_exact(self, delta, r):
        # closed form for symmetric loss without cancellation, n = sinh^2(2r) cos^2(phi):
        # p00 = 1/(1 + kappa n), p01 = p10 = eta(1-eta) n/D, p11 = eta n (eta + kappa n)/D,
        # kappa = eta(2-eta), D = (1 + eta n)(1 + kappa n); dp by complex step
        eta = 0.75
        kappa = eta * (2.0 - eta)
        phi = math.pi / 2 - delta
        n = math.sinh(2 * r) ** 2 * np.cos(phi + 1e-20j) ** 2
        d = (1 + eta * n) * (1 + kappa * n)
        p = np.array([1 / (1 + kappa * n), eta * (1 - eta) * n / d, eta * (1 - eta) * n / d,
                      eta * n * (eta + kappa * n) / d])
        reference = float(np.sum((p.imag / 1e-20) ** 2 / p.real))
        cfg = InterferometerConfig(r1=r, r2=r, eta_h=eta, eta_v=eta)
        assert fisher(cfg, [phi])[0] == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("cfg", [
        InterferometerConfig(r1=0.59, r2=0.41, eta_h=0.744, eta_v=0.6),
        InterferometerConfig(r1=0.59, r2=0.59, eta_h=0.75, eta_v=0.75),
        InterferometerConfig(r1=0.35, r2=0.35),
        InterferometerConfig(r1=1.0, r2=0.2, eta_h=0.3, eta_v=0.9, phase_offset=-1.0),
    ])
    def test_probabilities_match_overlap_one_closed_form(self, cfg):
        phis = np.linspace(-math.pi, math.pi, 2001)
        assert np.abs(fringe(cfg, phis) - overlap_one_clicks(cfg, phis)[0]).max() <= 1e-15

    @pytest.mark.parametrize("r", [0.35, 0.59, 1.0])
    @pytest.mark.parametrize("eta", [1.0, 0.75])
    @pytest.mark.parametrize("offset", [0.0, 0.3])
    def test_fisher_next_to_fringe_matches_overlap_one_closed_form(self, r, eta, offset):
        cfg = InterferometerConfig(r1=r, r2=r, eta_h=eta, eta_v=eta, phase_offset=offset)
        delta = np.array([1e-12, 1e-9, 1e-6, 1e-3])
        phis = math.pi / 2 - offset + np.concatenate([-delta, delta])
        assert fisher(cfg, phis) == pytest.approx(overlap_one_clicks(cfg, phis)[1], rel=1e-12)

    @pytest.mark.parametrize("r", [*np.arange(0.11, 0.5901, 0.04), 0.2, 0.65, 0.7])
    def test_lossless_maximum_never_exceeds_closed_form(self, r):
        # the optimum sits next to the dark fringe, where the moments must stay exact
        assert max_fisher(ideal(r))[1] <= fisher_max_ideal(r) * (1 + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(random_configs, phase_lists)
    # pinned: r1 = 0, where every dp must vanish exactly; eta_h = 1, where p01
    # vanishes identically; internal loss next to a dark fringe, where p11 is
    # far below p10
    @example(InterferometerConfig(r1=0.0, r2=1.0, eta_h=0.0, eta_v=1.0), [0.0])
    @example(InterferometerConfig(r1=0.95, r2=0.35, eta_v=0.025, overlap=0.87, phase_offset=1.38), [0.87])
    @example(InterferometerConfig(r1=1.0, r2=1.0, eta_v=0.999999, eta_internal=1 - 1e-16), [math.pi / 2 - 1e-15])
    def test_click_fisher_below_quantum_fisher(self, cfg, phis):
        # 4 sinh^2(2 r1) is the QFI of the first two-mode squeezed vacuum for the
        # generator n_a + n_b; internal loss commutes with the phase and all else
        # acts after it, so no measurement of the output can exceed it
        f = fisher(cfg, [*phis, math.pi / 2 - cfg.phase_offset])
        assert np.all(np.isfinite(f))
        assert np.all(f >= 0.0)
        assert np.all(f <= fisher_max_ideal(cfg.r1) * (1 + 1e-12))

    @settings(max_examples=40, deadline=None)
    @given(random_configs, phase_lists)
    def test_batched_clicks_match_op_by_op_chain(self, cfg, phis):
        phis = np.concatenate([phis, np.add(phis, math.pi)])
        batched = clicks(cfg, phis)[0]
        reference = np.array([op_by_op_clicks(cfg, phi) for phi in phis])
        assert np.abs(batched - reference).max() <= 1e-14
        assert np.all((batched >= 0.0) & (batched <= 1.0))
        assert np.abs(batched.sum(axis=1) - 1.0).max() <= 1e-14
        half = len(phis) // 2
        assert np.abs(batched[:half] - batched[half:]).max() <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(random_configs, phase_lists)
    def test_analytic_derivatives_match_central_differences(self, cfg, phis):
        phis = np.array(phis)
        h = 2e-6  # truncation and roundoff both stay near 1e-10
        _, dp = clicks(cfg, phis)
        central = (fringe(cfg, phis + h) - fringe(cfg, phis - h)) / (2 * h)
        assert np.abs(dp - central).max() < 1e-8

    def test_high_squeezing_projection_improves_per_photon(self):
        # with overlap 0.995 and r = 1.5 the per-photon maximum rises well
        # beyond the r = 0.59 ideal benchmark; the absolute projected value is
        # mismatch-model dependent (see decisions ledger)
        cfg = InterferometerConfig(r1=1.5, r2=1.5, overlap=0.995)
        _, fmax = max_fisher(cfg)
        per_photon = fmax / photons_through_sample(cfg)
        assert per_photon > 4 * (2 * math.sinh(0.59) ** 2 + 2)
        assert math.isfinite(per_photon)

    def test_loss_monotonicity_at_optimum(self):
        last = math.inf
        for eta in (1.0, 0.9, 0.75, 0.5, 0.2):
            cfg = InterferometerConfig(r1=0.45, r2=0.45, eta_h=eta, eta_v=eta)
            _, fmax = max_fisher(cfg)
            assert fmax <= last + 1e-9
            last = fmax

    # Loss never raises the quantum Fisher information (every loss here is
    # phase-covariant; Braunstein & Caves, PRL 72, 3439 (1994)), but threshold
    # clicks are a different measurement at every efficiency, so loss can raise
    # the click Fisher information. Pinned so that nobody "fixes" it.
    def test_internal_loss_can_raise_click_fisher(self):
        cfg = InterferometerConfig(r1=0.519, r2=0.169, eta_h=0.979, eta_v=0.944, overlap=0.966)
        lossless = max_fisher(cfg)[1]
        lossy = max_fisher(cfg.with_updates(eta_internal=0.535))[1]
        assert lossless == pytest.approx(0.32262, abs=1e-5)
        assert lossy == pytest.approx(0.35592, abs=1e-5)
        assert lossy / lossless - 1 == pytest.approx(0.103, abs=1e-3)

    def test_arm_loss_can_raise_click_fisher(self):
        cfg = InterferometerConfig(r1=1.497, r2=1.497, overlap=0.930, eta_v=0.211)
        before = max_fisher(cfg.with_updates(eta_h=0.889))[1]
        after = max_fisher(cfg.with_updates(eta_h=0.319))[1]
        assert before == pytest.approx(18.337, abs=1e-3)
        assert after == pytest.approx(22.432, abs=1e-3)
        assert after / before - 1 == pytest.approx(0.223, abs=1e-3)


class TestClosedForms:
    def test_fisher_max_ideal(self):
        assert fisher_max_ideal(0.0) == 0.0
        assert fisher_max_ideal(0.59) == pytest.approx(4 * math.sinh(1.18) ** 2, abs=1e-12)
        assert fisher_max_ideal(0.59) == pytest.approx(8.68537167563008, abs=1e-10)
        with pytest.raises(ValueError):
            fisher_max_ideal(-0.2)

    def test_heisenberg_identity(self):
        # 4 nbar(nbar+2) = 4 sinh^2(2r) exactly at nbar = 2 sinh^2 r
        for r in (0.1, 0.43, 0.59, 1.0):
            n_bar = 2 * math.sinh(r) ** 2
            assert 4 * n_bar * (n_bar + 2) == pytest.approx(fisher_max_ideal(r), rel=1e-12)
            assert heisenberg_sensitivity(n_bar) == pytest.approx(
                1 / math.sqrt(fisher_max_ideal(r)), rel=1e-12
            )

    def test_heisenberg_values_and_asymptote(self):
        n_bar = 2 * math.sinh(0.59) ** 2
        assert heisenberg_sensitivity(n_bar) == pytest.approx(0.33931713855811957, abs=1e-12)
        big = 1e6
        assert heisenberg_sensitivity(big) * 2 * big == pytest.approx(1.0, rel=1e-5)
        with pytest.raises(ValueError):
            heisenberg_sensitivity(0.0)

    def test_threshold_tm_values(self):
        assert threshold_tm(0.0) == pytest.approx(1 - math.sqrt(0.75), abs=1e-15)
        assert threshold_tm(0.0) == pytest.approx(0.1339745962155614, abs=1e-12)
        assert threshold_tm(0.78) == pytest.approx(0.09438204253002669, abs=1e-12)
        with pytest.raises(ValueError):
            threshold_tm(-0.5)

    def test_threshold_tm_monotone_decreasing(self):
        grid = np.linspace(0.0, 5.0, 40)
        vals = [threshold_tm(n) for n in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_threshold_noon_values(self):
        assert threshold_noon(1) == 1.0
        assert threshold_noon(2) == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert threshold_noon(5) == pytest.approx(5 ** (-1 / 5), abs=1e-15)
        assert threshold_noon(5) == pytest.approx(0.7247796636776955, abs=1e-12)
        with pytest.raises(ValueError):
            threshold_noon(0)

    def test_noon_fisher_per_photon(self):
        assert noon_fisher_per_photon(1, 1.0) == 2.0
        assert noon_fisher_per_photon(5, 1.0) == 10.0
        with pytest.raises(ValueError):
            noon_fisher_per_photon(0, 0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "closed_form",
        [
            threshold_tm,
            heisenberg_sensitivity,
            fisher_max_ideal,
            threshold_noon,
            lambda n: noon_fisher_per_photon(n, 1.0),
            threshold_tm_numeric,
            lambda trials: crlb(ideal(0.59), [0.7], trials=trials),
        ],
        ids=["threshold_tm", "heisenberg", "fisher_max_ideal", "threshold_noon", "noon_fisher", "numeric", "crlb"],
    )
    def test_non_finite_input_rejected(self, closed_form, value):
        # a bare x < 0 check lets NaN through, and inf gave 0.0 or 1.0
        with pytest.raises(ValueError, match="finite"):
            closed_form(value)

    def test_noon_threshold_crossing_identity(self):
        # 2N eta^N = 2 exactly at eta = (1/N)^(1/N)
        for n in (1, 2, 5, 11, 20):
            assert noon_fisher_per_photon(n, threshold_noon(n)) == pytest.approx(2.0, rel=1e-12)


class TestThresholdNumeric:
    def test_cross_validation(self):
        for n_bar in (0.1, 0.78):
            numeric = threshold_tm_numeric(n_bar)
            assert abs(numeric - threshold_tm(n_bar)) < 1e-3

    def test_zero_mean_photon_number_rejected(self):
        with pytest.raises(ValueError):
            threshold_tm_numeric(0.0)

    def test_bracket_failure_reported(self, monkeypatch):
        monkeypatch.setattr(metrology, "SNL_PER_PHOTON", 1e6)
        with pytest.raises(BracketError):
            threshold_tm_numeric(0.78)


class TestFisherSweep:
    def test_report_consistency(self, tracking_cfg):
        grid = np.linspace(0.2, 1.4, 7)
        sweep = fisher_sweep(tracking_cfg, grid)
        n_bar = photons_through_sample(tracking_cfg)
        assert list(sweep) == [
            "phi", "fisher_per_trial", "mean_photons_through_sample",
            "fisher_per_photon", "snl_per_photon", "enhancement_db",
        ]
        assert all(col.shape == grid.shape for col in sweep.values())
        assert np.array_equal(sweep["phi"], grid)
        assert np.array_equal(sweep["fisher_per_trial"], fisher(tracking_cfg, grid))
        for row in zip(*sweep.values()):
            rep = dict(zip(sweep, row))
            assert rep["mean_photons_through_sample"] == pytest.approx(n_bar, abs=0)
            assert rep["fisher_per_photon"] == pytest.approx(
                rep["fisher_per_trial"] / n_bar, rel=1e-12
            )
            if rep["fisher_per_photon"] > 0:
                assert rep["enhancement_db"] == pytest.approx(
                    10 * math.log10(rep["fisher_per_photon"] / rep["snl_per_photon"]), rel=1e-12
                )

    def test_double_pass_accounting_halves_per_photon(self, tracking_cfg):
        grid = [0.6]
        single = fisher_sweep(tracking_cfg, grid, accounting="single-pass")["fisher_per_photon"][0]
        double = fisher_sweep(tracking_cfg, grid, accounting="double-pass")["fisher_per_photon"][0]
        assert double == pytest.approx(single / 2, rel=1e-12)

    def test_grid_validation(self, tracking_cfg):
        with pytest.raises(ValueError):
            fisher_sweep(tracking_cfg, [-0.1, 0.5])
        with pytest.raises(ValueError):
            fisher_sweep(tracking_cfg, [0.5], accounting="per-pulse")

    def test_per_photon_needs_photons_through_sample(self):
        # at r1 = 0 nothing passes the sample, so F per photon is undefined
        with pytest.raises(ValueError, match="r1 = 0"):
            fisher_sweep(InterferometerConfig(r1=0.0, r2=0.0), [0.5])

    def test_accountings_registry(self):
        assert ACCOUNTINGS == ("single-pass", "double-pass")
