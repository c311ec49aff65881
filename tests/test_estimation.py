import json
import math

import numpy as np
import pytest

from squint.detection import interferometer_clicks
from squint.estimation import (
    CalibrationModel,
    UnidentifiableError,
    bootstrap_sigma,
    calibrate,
    crlb,
    estimate_phase,
)
from squint.gaussian import InterferometerConfig
from squint.metrology import fisher_max_ideal, max_fisher

BRANCH = (0.3, 0.9)


@pytest.fixture(scope="module")
def ideal_cal():
    return CalibrationModel.from_config(InterferometerConfig(r1=0.59, r2=0.59))


class TestCalibrationModel:
    def test_curve_invariants(self, tracking_cal):
        curves = tracking_cal.curves
        assert np.all(curves >= 0.0) and np.all(curves <= 1.0)
        assert np.abs(curves.sum(axis=1) - 1.0).max() < 1e-9
        assert np.abs(curves[0] - curves[-1]).max() < 1e-9  # period-pi consistency

    def test_probabilities_interpolate_nodes(self, tracking_cal):
        k = 137
        phi = tracking_cal.phi_tab[k]
        assert tracking_cal.probabilities(phi) == pytest.approx(tracking_cal.curves[k], abs=1e-12)

    def test_probabilities_wrap_period(self, tracking_cal):
        for phi in (0.3, 1.2):
            a = tracking_cal.probabilities(phi)
            b = tracking_cal.probabilities(phi + math.pi)
            assert a == pytest.approx(b, abs=1e-12)

    def test_vectorized_probabilities(self, tracking_cal):
        grid = np.array([0.2, 0.7, 1.5])
        batch = tracking_cal.probabilities(grid)
        assert batch.shape == (3, 4)
        for i, phi in enumerate(grid):
            assert batch[i] == pytest.approx(tracking_cal.probabilities(phi), abs=1e-15)

    def test_json_round_trip(self, tracking_cal, tmp_path):
        path = tmp_path / "cal.json"
        tracking_cal.to_json(path)
        loaded = CalibrationModel.from_json(path)
        assert loaded.config == tracking_cal.config
        assert np.array_equal(loaded.curves, tracking_cal.curves)
        assert np.allclose(loaded.phi_tab, tracking_cal.phi_tab, atol=1e-15)
        assert loaded.fit_residual == tracking_cal.fit_residual

    def test_schema_guard(self, tracking_cal):
        data = tracking_cal.to_dict()
        data["schema"] = "something-else/9"
        with pytest.raises(ValueError):
            CalibrationModel.from_dict(data)

    def test_invalid_curves_rejected_on_load(self, tracking_cal):
        def broken(edit):
            data = json.loads(json.dumps(tracking_cal.to_dict()))
            edit(data)
            return data

        def out_of_range(d):
            d["curves"]["p00"][5], d["curves"]["p11"][5] = 1.7, -0.4

        def not_normalized(d):
            d["curves"]["p01"][7] += 0.1

        def not_finite(d):
            d["curves"]["p10"][9] = math.nan

        def wrong_grid(d):
            d["tabulation"]["phi_max"] = math.pi / 2

        def open_period(d):
            d["curves"]["p00"][-1] += 0.01
            d["curves"]["p11"][-1] -= 0.01

        for edit in (out_of_range, not_normalized, not_finite, wrong_grid, open_period):
            with pytest.raises(ValueError):
                CalibrationModel.from_dict(broken(edit))
        assert CalibrationModel.from_dict(broken(lambda d: None)).config == tracking_cal.config


def synthetic_samples(cfg, phases, trials, seed):
    rng = np.random.default_rng(seed)
    out = []
    for phi in phases:
        probs = interferometer_clicks(cfg, phi).as_array()
        out.append((phi, rng.multinomial(trials, probs)))
    return out


class TestCalibrate:
    def test_round_trip_recovers_parameters(self, tracking_cfg):
        phases = np.linspace(0.1, 3.0, 16)
        samples = synthetic_samples(tracking_cfg, phases, 10_000_000, seed=11)
        initial = tracking_cfg.with_updates(
            r1=tracking_cfg.r1 + 0.03,
            r2=tracking_cfg.r2 - 0.02,
            eta_h=min(1.0, tracking_cfg.eta_h + 0.04),
            eta_v=max(0.0, tracking_cfg.eta_v - 0.03),
            overlap=min(1.0, tracking_cfg.overlap + 0.004),
            phase_offset=0.02,
        )
        model = calibrate(samples, initial)
        assert not model.degraded
        # the click statistics are swap-symmetric in (r1, r2), so the
        # identified gain is their mean; the split itself sits in a flat
        # valley at the statistical noise floor
        mean_r = 0.5 * (model.config.r1 + model.config.r2)
        assert abs(mean_r - tracking_cfg.r1) <= 0.01
        assert abs(model.config.r1 - tracking_cfg.r1) <= 0.05
        assert abs(model.config.r2 - tracking_cfg.r2) <= 0.05
        assert abs(model.config.eta_h - tracking_cfg.eta_h) <= 0.02
        assert abs(model.config.eta_v - tracking_cfg.eta_v) <= 0.02
        assert abs(model.config.overlap - tracking_cfg.overlap) <= 0.005
        assert abs(model.config.phase_offset) <= 0.01

    def test_ideal_efficiencies_fit_to_one(self):
        truth = InterferometerConfig(r1=0.5, r2=0.5)
        phases = np.linspace(0.05, 3.05, 14)
        samples = synthetic_samples(truth, phases, 10_000_000, seed=3)
        initial = truth.with_updates(eta_h=0.97, eta_v=0.96, r1=0.52, r2=0.49)
        model = calibrate(samples, initial)
        assert model.config.eta_h >= 0.995
        assert model.config.eta_v >= 0.995

    def test_needs_enough_phases(self, tracking_cfg):
        samples = synthetic_samples(tracking_cfg, [0.5], 10_000, seed=0)
        with pytest.raises(ValueError):
            calibrate(samples, tracking_cfg)

    def test_needs_half_period_span(self, tracking_cfg):
        phases = np.linspace(0.1, 0.9, 9)  # span 0.8 < pi/2
        samples = synthetic_samples(tracking_cfg, phases, 10_000, seed=0)
        with pytest.raises(ValueError):
            calibrate(samples, tracking_cfg)


class TestEstimatePhase:
    def test_zero_noise_fixed_point(self, tracking_cal):
        freqs = tracking_cal.probabilities(0.58)
        est = estimate_phase(freqs, tracking_cal, BRANCH)
        assert abs(est.phi_est - 0.58) < 1e-6
        assert est.objective_value < 1e-12

    def test_counts_set_window_trials(self, tracking_cal):
        counts = np.array([600, 150, 150, 100])
        est = estimate_phase(counts, tracking_cal, BRANCH)
        assert est.window_trials == 1000

    def test_branch_width_validated(self, tracking_cal):
        with pytest.raises(ValueError):
            estimate_phase([0.5, 0.2, 0.2, 0.1], tracking_cal, (0.0, 2.0))

    def test_flat_objective_unidentifiable(self):
        dead = CalibrationModel.from_config(
            InterferometerConfig(r1=0.5, r2=0.5, eta_h=0.0, eta_v=0.0)
        )
        with pytest.raises(UnidentifiableError):
            estimate_phase([0.7, 0.1, 0.1, 0.1], dead, BRANCH)

    def test_extremum_flagged_low_information(self, tracking_cal):
        # at the fringe extremum phi = 0 every dp/dphi vanishes while the
        # probabilities stay finite, so the Fisher information is zero
        branch = (-0.6, 0.3)
        freqs = tracking_cal.probabilities(0.0)
        est = estimate_phase(freqs, tracking_cal, branch, trials=1000)
        assert est.low_information
        assert abs(est.phi_est) < 1e-3

    def test_estimates_stay_in_branch(self, tracking_cal):
        rng = np.random.default_rng(5)
        probs = interferometer_clicks(tracking_cal.config, 0.35).as_array()
        for counts in rng.multinomial(200, probs, size=25):
            est = estimate_phase(counts, tracking_cal, BRANCH)
            assert BRANCH[0] <= est.phi_est <= BRANCH[1]

    def test_mle_option(self, tracking_cal):
        freqs = tracking_cal.probabilities(0.58)
        est = estimate_phase(freqs, tracking_cal, BRANCH, method="mle")
        assert abs(est.phi_est - 0.58) < 1e-5
        with pytest.raises(ValueError):
            estimate_phase(freqs, tracking_cal, BRANCH, method="huber")

    def test_consistency_small_bias(self, tracking_cal):
        # bias well below the spread at T = 1e6 across three phases
        rng = np.random.default_rng(17)
        for phi_true in (0.45, 0.58, 0.8):
            probs = interferometer_clicks(tracking_cal.config, phi_true).as_array()
            draws = rng.multinomial(1_000_000, probs, size=200)
            ests = np.array(
                [estimate_phase(d, tracking_cal, BRANCH).phi_est for d in draws]
            )
            assert abs(ests.mean() - phi_true) < ests.std(ddof=1) / 5


class TestBootstrapAndCrlb:
    def test_bootstrap_deterministic(self, tracking_cal):
        counts = np.array([52_000, 24_000, 14_000, 10_000])
        a = bootstrap_sigma(counts, tracking_cal, BRANCH, resamples=120, seed=9)
        b = bootstrap_sigma(counts, tracking_cal, BRANCH, resamples=120, seed=9)
        assert a == b

    def test_bootstrap_validation(self, tracking_cal):
        good = np.array([600, 200, 150, 50])
        with pytest.raises(ValueError):
            bootstrap_sigma(good * 10, tracking_cal, BRANCH, resamples=50)
        with pytest.raises(ValueError):
            bootstrap_sigma(np.array([500, 200, 150, 49]), tracking_cal, BRANCH)
        with pytest.raises(UnidentifiableError):
            bootstrap_sigma([5000, 0, 0, 0], tracking_cal, BRANCH)

    def test_bootstrap_vanishing_noise_limit(self, tracking_cal):
        # high-information phase so the T = 1e8 bound sits below 1e-4 rad
        phi0, branch = 1.25, (0.9, 1.5)
        probs = interferometer_clicks(tracking_cal.config, phi0).as_array()
        counts = np.round(probs * 1e8).astype(int)
        sigma = bootstrap_sigma(counts, tracking_cal, branch, resamples=100, seed=2)
        assert sigma < 1e-4

    def test_bootstrap_tracks_crlb(self, tracking_cal):
        rng = np.random.default_rng(23)
        probs = interferometer_clicks(tracking_cal.config, 0.58).as_array()
        counts = rng.multinomial(100_000, probs)
        sigma = bootstrap_sigma(counts, tracking_cal, BRANCH, resamples=200, seed=4)
        bound = crlb(tracking_cal, 0.58, 100_000)
        assert abs(sigma - bound) / bound < 0.2

    def test_crlb_value_and_scaling(self, ideal_cal):
        phi_star, fmax = max_fisher(ideal_cal.config)
        bound1 = crlb(ideal_cal, phi_star, 1)
        assert bound1 == pytest.approx(1.0 / math.sqrt(fmax), rel=1e-9)
        assert bound1 == pytest.approx(1.0 / math.sqrt(fisher_max_ideal(0.59)), rel=2e-3)
        assert crlb(ideal_cal, phi_star, 100) == pytest.approx(bound1 / 10, rel=1e-9)

    def test_crlb_back_computed_window_for_two_mrad(self, tracking_cal):
        # trial count at which the phi = 0.58 bound reaches the quoted
        # 0.002 rad; the absolute window sensitivity is rate-dependent
        from squint.metrology import fisher_per_trial

        info = fisher_per_trial(tracking_cal.config, 0.58)
        trials = math.ceil(1.0 / (info * 0.002**2))
        assert crlb(tracking_cal, 0.58, trials) <= 0.002
        assert crlb(tracking_cal, 0.58, trials - 1) > 0.002
        assert 100_000 < trials < 2_000_000

    def test_crlb_infinite_when_uninformative(self):
        dead = CalibrationModel.from_config(
            InterferometerConfig(r1=0.5, r2=0.5, eta_h=0.0, eta_v=0.0)
        )
        assert crlb(dead, 0.6, 1000) == math.inf
        with pytest.raises(ValueError):
            crlb(dead, 0.6, 0)
