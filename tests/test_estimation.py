import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from search_reference import BATCH_CELLS, full_scan
from strategies import random_configs
from squint.detection import _fringe_rows, clicks, fringe
from squint import estimation
from squint.estimation import (
    CalibrationModel,
    UnidentifiableError,
    _curvature_bound,
    bootstrap_sigma,
    calibrate,
    estimate_phase,
    estimate_phases,
)
from squint import presets
from squint.gaussian import InterferometerConfig
from squint.metrology import crlb, fisher, fisher_max_ideal, max_fisher
from squint.simkit import run_tracking

BRANCH = (0.3, 0.9)
# a sigma of all five fitted parameters
SIGMA = dict.fromkeys(("r", "eta_h", "eta_v", "overlap", "phase_offset"), 1e-4)


@pytest.fixture(scope="module")
def ideal_cal():
    return CalibrationModel(InterferometerConfig(r1=0.59, r2=0.59))


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

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, [0.3, math.nan, 0.5]])
    def test_probabilities_refuse_non_finite_phases(self, tracking_cal, phi):
        # the interpolation returned nan rows with a RuntimeWarning
        with pytest.raises(ValueError, match="phases must be finite"):
            tracking_cal.probabilities(phi)

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
        assert loaded == tracking_cal
        assert loaded.config == tracking_cal.config
        assert np.array_equal(loaded.curves, tracking_cal.curves)
        assert np.allclose(loaded.phi_tab, tracking_cal.phi_tab, atol=1e-15)
        assert loaded.fit_residual == tracking_cal.fit_residual
        assert loaded.sigma == tracking_cal.sigma == {}

    def test_model_is_frozen_with_read_only_copies(self, tracking_cfg):
        model = CalibrationModel(tracking_cfg)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.curves = model.curves
        for array in (model.phi_tab, model.curves):
            with pytest.raises(ValueError):
                array[0] = 0.5
        assert np.array_equal(model.phi_tab, np.linspace(0.0, math.pi, 2049))
        assert np.array_equal(model.curves, fringe(tracking_cfg, model.phi_tab))
        assert model == CalibrationModel(tracking_cfg) == CalibrationModel.from_config(tracking_cfg)
        assert model != CalibrationModel(tracking_cfg, fit_residual=1.0)
        # the curves derive from the config: no table can be passed in
        with pytest.raises(ValueError):
            CalibrationModel(tracking_cfg, model.phi_tab, model.curves)

    def test_schema_guard(self, tracking_cal):
        data = tracking_cal.to_dict()
        data["schema"] = "something-else/9"
        with pytest.raises(ValueError):
            CalibrationModel.from_dict(data)
        for not_an_object in ([1, 2], "squint-calibration/3", None):
            with pytest.raises(ValueError, match="schema None"):
                CalibrationModel.from_dict(not_an_object)

    def test_invalid_curves_rejected_on_load(self, tracking_cal):
        def broken(edit):
            data = json.loads(json.dumps(tracking_cal.to_dict()))
            edit(data)
            return data

        def unphysical_config(d):
            d["config"]["eta_h"] = 1.7

        def old_schema(d):
            d["schema"] = "squint-calibration/1"

        def tabulated_schema(d):
            d["schema"] = "squint-calibration/2"

        def curves_given(d):
            d["curves"] = {"p00": [1.0]}

        def sigma_of_unfitted_name(d):
            d["sigma"] = {**SIGMA, "r1": 1e-5}

        def negative_sigma(d):
            d["sigma"] = {**SIGMA, "r": -1e-5}

        def infinite_sigma(d):
            d["sigma"] = {**SIGMA, "eta_h": math.inf}

        def null_sigma_of_sound_fit(d):
            d["sigma"] = {**SIGMA, "overlap": None}

        # each of these three raised TypeError
        def config_a_list(d):
            d["config"] = list(d["config"].values())

        def config_with_unknown_key(d):
            d["config"]["gain"] = 2.0

        def config_without_r2(d):
            del d["config"]["r2"]

        edits = (unphysical_config, old_schema, tabulated_schema, curves_given, sigma_of_unfitted_name,
                 negative_sigma, infinite_sigma, null_sigma_of_sound_fit, config_a_list, config_with_unknown_key,
                 config_without_r2)
        for edit in edits:
            with pytest.raises(ValueError):
                CalibrationModel.from_dict(broken(edit))
        assert CalibrationModel.from_dict(broken(lambda d: None)).config == tracking_cal.config
        assert CalibrationModel.from_dict(broken(lambda d: d.update(sigma=SIGMA))).sigma == SIGMA

        def degraded_null_sigma(d):
            d["degraded"] = True
            d["sigma"] = {**SIGMA, "r": None}

        assert CalibrationModel.from_dict(broken(degraded_null_sigma)).sigma == {**SIGMA, "r": None}

    @pytest.mark.parametrize("degraded, sigma", [(False, {"r": 0.01}), (True, {"r": None})])
    def test_sigma_is_empty_or_has_every_fitted_name(self, tracking_cal, degraded, sigma):
        # calibrate writes all five names or none; a partial sigma loaded and was written back
        data = {**tracking_cal.to_dict(), "degraded": degraded, "sigma": sigma}
        with pytest.raises(ValueError, match="sigma lacks the keys"):
            CalibrationModel.from_dict(data)
        with pytest.raises(ValueError, match="sigma lacks the keys"):
            CalibrationModel(tracking_cal.config, degraded=degraded, sigma=sigma)

    @pytest.mark.parametrize("field, value", [
        ("fit_residual", -1.0), ("fit_residual", math.nan), ("fit_residual", math.inf), ("fit_residual", "0.5"),
        ("fit_residual", True), ("degraded", "no"), ("degraded", 0), ("degraded", None),
        ("sigma", {**SIGMA, "r": True}), ("sigma", {**SIGMA, "r": np.True_}),
    ])
    def test_fit_fields_are_strict(self, tracking_cal, field, value):
        data = tracking_cal.to_dict()
        data[field] = value
        with pytest.raises(ValueError):
            CalibrationModel.from_dict(data)
        with pytest.raises(ValueError):  # a fitted or built model passes the same checks
            CalibrationModel(tracking_cal.config, **{field: value})

    def test_fit_values_may_be_numpy_scalars(self, tracking_cal):
        # np.float64 failed a type(v) in (int, float) check
        sigma = {**SIGMA, "r": np.float64(1e-3)}
        cal = CalibrationModel(tracking_cal.config, fit_residual=np.float64(0.5), sigma=sigma)
        assert (cal.fit_residual, cal.sigma) == (0.5, {**SIGMA, "r": 1e-3})
        assert CalibrationModel(tracking_cal.config, sigma={**SIGMA, "r": np.int64(0)}).sigma == {**SIGMA, "r": 0.0}

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_from_json_refuses_non_strict_tokens(self, tracking_cal, tmp_path, token):
        path = tmp_path / "cal.json"
        tracking_cal.to_json(path)
        text = path.read_text()
        assert '"fit_residual": 0.0' in text
        path.write_text(text.replace('"fit_residual": 0.0', f'"fit_residual": {token}'))
        with pytest.raises(ValueError, match="strict JSON"):
            CalibrationModel.from_json(path)


def synthetic_samples(cfg, phases, trials, seed):
    rng = np.random.default_rng(seed)
    return [(phi, rng.multinomial(trials, probs)) for phi, probs in zip(phases, fringe(cfg, phases))]


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
        # the click statistics cannot tell r1 from r2 where they are equal,
        # so calibrate fits one gain
        assert model.config.r1 == model.config.r2
        assert all(type(v) is float for v in vars(model.config).values())
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
        assert not model.degraded
        assert model.config.eta_h >= 0.995
        assert model.config.eta_v >= 0.995

    def test_fit_within_four_sigma_over_seeds(self, tracking_cfg):
        phases = np.linspace(0.1, 3.0, 16)
        initial = tracking_cfg.with_updates(
            r1=tracking_cfg.r1 + 0.03, r2=tracking_cfg.r2 - 0.02, eta_h=tracking_cfg.eta_h + 0.04,
            eta_v=tracking_cfg.eta_v - 0.03, overlap=tracking_cfg.overlap + 0.004, phase_offset=0.02,
        )
        truth = {"r": tracking_cfg.r1, "eta_h": tracking_cfg.eta_h, "eta_v": tracking_cfg.eta_v,
                 "overlap": tracking_cfg.overlap, "phase_offset": 0.0}
        for seed in range(20):
            model = calibrate(synthetic_samples(tracking_cfg, phases, 10_000_000, seed), initial)
            assert not model.degraded
            assert set(model.sigma) == set(truth)
            fitted = dict(vars(model.config), r=model.config.r1)
            for name, value in truth.items():
                assert abs(fitted[name] - value) <= 4.0 * model.sigma[name], (seed, name)

    def test_singular_fisher_matrix_is_degraded(self, tmp_path):
        # with both arms dark every trial gives 00 and nothing but the
        # efficiencies is identifiable
        truth = InterferometerConfig(r1=0.5, r2=0.5, eta_h=0.0, eta_v=0.0)
        samples = synthetic_samples(truth, np.linspace(0.1, 3.0, 16), 1_000_000, seed=0)
        model = calibrate(samples, truth.with_updates(eta_h=0.01, eta_v=0.02))
        assert model.degraded
        assert model.sigma == dict.fromkeys(("r", "eta_h", "eta_v", "overlap", "phase_offset"))
        model.to_json(tmp_path / "cal.json")
        assert CalibrationModel.from_json(tmp_path / "cal.json").sigma == model.sigma

    def test_exactly_fitting_data_end_the_fit_early(self, monkeypatch):
        # every count in 00: an r -> 0 config fits exactly and the cost falls
        # geometrically toward 0; the parent ran to its cap with 1103 fringe
        # calls, counted here as configs, one per row of a stacked Jacobian pass
        calls = []
        monkeypatch.setattr("squint.estimation.fringe", lambda cfg, phis: calls.append(0) or fringe(cfg, phis))
        monkeypatch.setattr("squint.estimation._fringe_rows",
                            lambda cfgs, phis: calls.extend([0] * len(cfgs)) or _fringe_rows(cfgs, phis))
        samples = [(phi, [1_000_000, 0, 0, 0]) for phi in np.linspace(0.1, 3.0, 16)]
        model = calibrate(samples, InterferometerConfig(r1=0.1, r2=0.1, eta_h=0.9))
        assert len(calls) < 1103 / 3
        assert model.fit_residual < 1e-12 and model.config.r1 < 1e-5
        # at r -> 0 the efficiencies, overlap and offset carry no information
        assert model.degraded and model.sigma == dict.fromkeys(("r", "eta_h", "eta_v", "overlap", "phase_offset"))

    @pytest.mark.parametrize("truth, guess", [
        ("tracking", {"r1": 0.03, "r2": -0.02, "eta_h": 0.04, "eta_v": -0.03, "overlap": 0.004, "phase_offset": 0.02}),
        ("ideal", {"eta_h": -0.03, "eta_v": -0.04, "r1": 0.02, "r2": -0.01})])
    def test_stacked_jacobian_keeps_every_bit(self, tracking_cfg, monkeypatch, truth, guess):
        # each Jacobian is one _fringe_rows pass over its ten configs; a fringe
        # call per config gives the same fit bit for bit, also where the
        # efficiencies reach their bound 1 and the differences are one-sided
        cfg = tracking_cfg if truth == "tracking" else InterferometerConfig(r1=0.5, r2=0.5)
        samples = synthetic_samples(cfg, np.linspace(0.1, 3.0, 16), 10_000_000, seed=4)
        initial = cfg.with_updates(**{k: getattr(cfg, k) + d for k, d in guess.items()})
        passes = []
        fits = [calibrate(samples, initial)]
        monkeypatch.setattr(estimation, "_fringe_rows", lambda cfgs, phis: passes.append(len(cfgs)) or np.stack(
            [fringe(c, phis) for c in cfgs]))
        fits.append(calibrate(samples, initial))
        assert passes and set(passes) == {10}
        stacked, looped = ([*vars(fit.config).values(), fit.fit_residual, fit.degraded,
                            *[math.nan if v is None else v for v in fit.sigma.values()]] for fit in fits)
        assert np.array(stacked).tobytes() == np.array(looped).tobytes()

    def test_start_fringe_is_evaluated_once(self, tracking_cfg, monkeypatch):
        # the start config's fringe gives both the multinomial weights and the
        # first residual: one fringe call at the start theta, not two
        samples = synthetic_samples(tracking_cfg, np.linspace(0.1, 3.0, 16), 10_000_000, seed=4)
        initial = tracking_cfg.with_updates(r1=0.46, r2=0.4, eta_h=tracking_cfg.eta_h - 0.03)
        r = 0.5 * (initial.r1 + initial.r2)
        start = initial.with_updates(r1=r, r2=r)
        configs = []
        monkeypatch.setattr(estimation, "fringe", lambda cfg, phis: configs.append(cfg) or fringe(cfg, phis))
        calibrate(samples, initial)
        assert configs[0] == start and configs.count(start) == 1 and len(configs) > 1

    def test_frequency_rows_rejected(self, tracking_cfg):
        phases = np.linspace(0.1, 3.0, 16)
        with pytest.raises(ValueError, match="whole"):
            calibrate(list(zip(phases, fringe(tracking_cfg, phases))), tracking_cfg)

    def test_sample_without_counts_is_unidentifiable(self, tracking_cfg):
        samples = synthetic_samples(tracking_cfg, np.linspace(0.1, 3.0, 16), 10_000, seed=0)
        samples[3] = (samples[3][0], [0, 0, 0, 0])
        with pytest.raises(UnidentifiableError, match="a calibration sample has no counts"):
            calibrate(samples, tracking_cfg)

    @pytest.mark.parametrize("phases", [[0.5], np.repeat(np.linspace(0.1, 3.0, 7), 2),
                                        [*np.linspace(0.1, 3.0, 7), 3.0 + 1e-13, 0.1 - 1e-13]])
    def test_needs_enough_phases(self, tracking_cfg, phases):
        # 7 distinct phases, also repeated or 1e-13 apart, which round to one
        samples = synthetic_samples(tracking_cfg, phases, 10_000, seed=0)
        with pytest.raises(ValueError, match="at least 8 distinct phases"):
            calibrate(samples, tracking_cfg)

    def test_needs_half_period_span(self, tracking_cfg):
        phases = np.linspace(0.1, 0.9, 9)  # span 0.8 < pi/2
        samples = synthetic_samples(tracking_cfg, phases, 10_000, seed=0)
        with pytest.raises(ValueError):
            calibrate(samples, tracking_cfg)

    @pytest.mark.parametrize("phase", ["0.1", True, None, [0.1, 0.2], math.nan])
    def test_phases_must_be_numbers(self, tracking_cfg, phase):
        # float(p) read "0.1" as 0.1 and True as 1.0, and the fit ran
        samples = synthetic_samples(tracking_cfg, np.linspace(0.1, 3.0, 16), 10_000, seed=0)
        samples[3] = (phase, samples[3][1])
        with pytest.raises(ValueError, match="phases must be|one phase") as exc:
            calibrate(samples, tracking_cfg)
        assert type(exc.value) is ValueError


class TestEstimatePhase:
    def test_zero_noise_fixed_point(self, tracking_cal):
        counts = np.rint(tracking_cal.probabilities(0.58) * 2**50)
        est = estimate_phase(counts, tracking_cal, BRANCH)
        assert abs(est.phi_est - 0.58) < 1e-6
        assert est.objective_value < 1e-12

    def test_counts_set_window_trials(self, tracking_cal):
        counts = np.array([600, 150, 150, 100])
        est = estimate_phase(counts, tracking_cal, BRANCH)
        assert est.window_trials == 1000

    def test_branch_width_validated(self, tracking_cal):
        with pytest.raises(ValueError, match="half period"):
            estimate_phase([500, 200, 200, 100], tracking_cal, (0.0, 2.0))
        for bad in ((False, True), ("0.3", 0.9)):  # each ran, as (0.0, 1.0) and (0.3, 0.9)
            with pytest.raises(ValueError, match="pair .* of numbers"):
                estimate_phase([500, 200, 200, 100], tracking_cal, bad)
        for bad in (5, None):  # each raised TypeError
            with pytest.raises(ValueError, match="pair .* of numbers"):
                estimate_phases([[500, 200, 200, 100]], tracking_cal, bad)

    @pytest.mark.parametrize("trials, message", [
        (-5, "trials must be >= 0"), (2.5, "trials must be an integer"), (math.nan, "trials must be an integer"),
        ("1000", "trials must be an integer"), ("x", "trials must be an integer"), (999, "trials 999 differs"),
        (1001, "trials 1001 differs")])
    def test_trials_must_equal_the_window_total(self, tracking_cal, trials, message):
        counts = np.array([600, 150, 150, 100])
        with pytest.raises(ValueError, match=message):
            estimate_phase(counts, tracking_cal, BRANCH, trials)
        est = estimate_phase(counts, tracking_cal, BRANCH)
        assert estimate_phase(counts, tracking_cal, BRANCH, np.int64(0)) == est
        assert estimate_phase(counts, tracking_cal, BRANCH, 1000) == est

    def test_one_count_is_one_trial(self, tracking_cal):
        # a window's trials are its total: one count carries too little
        # information at any estimate, like two counts at the same estimate
        branch = (0.25, 1.45)
        one, two = (estimate_phase(c, tracking_cal, branch) for c in ([0, 0, 0, 1], [0, 1, 0, 1]))
        assert one.phi_est == two.phi_est
        assert (one.window_trials, two.window_trials) == (1, 2)
        assert one.low_information and two.low_information

    @pytest.mark.parametrize("counts", [[1e308] * 4, [2**53, 1, 0, 0], [2**52, 2**52, 0, 0], [2**64, 0, 0, 0]])
    def test_window_total_must_be_below_2_53(self, tracking_cal, counts):
        # floats hold every whole number only below 2^53: the first window
        # overflowed its total, the second lost a count, the others ran
        for call in (lambda: estimate_phase(counts, tracking_cal, BRANCH),
                     lambda: estimate_phases([counts], tracking_cal, BRANCH),
                     lambda: bootstrap_sigma(counts, tracking_cal, BRANCH)):
            with pytest.raises(ValueError, match=r"2\*\*53"):
                call()

    @pytest.mark.parametrize("counts", [
        [1e308] * 4, [2**53, 1, 0, 0], [2**52, 2**52, 0, 0], [2**64, 0, 0, 0], [True, 5, 5, 5], ["1000", 5, 5, 5],
        [1000, 5, 5, None], [1000, 5, 5, np.True_], [1, 2, 3, -4], [1, 2, 3, math.inf], [1, 2, 3, math.nan],
        [0.4, 0.2, 0.2, 0.2], [1, 2, 3, 4.5], np.array([True, False, True, True]), np.array(["1000", "5", "5", "5"]),
        np.array([1000, 5, 5, 5], dtype=object), np.array([1000, 5, 5, 5 + 0j]), np.array([1.0, 2.0, 3.0, 4.5]),
        np.array([-1, 5, 5, 5]), np.array([5, 5, 5, -2**63]), np.array([2**53, 0, 0, 0]),
        np.array([2**52, 2**52, 0, 0]), np.array([2**63 - 1, 0, 0, 0]), np.array([2**64 - 1, 0, 0, 0], dtype=np.uint64),
        np.array([1, 2, 3]), np.array([[1, 2, 3, 4]]), np.array([1, 2, 3, 4, 5]), np.int64(7)])
    def test_one_window_refuses_what_the_batch_refuses(self, tracking_cal, counts):
        # an integer array of four counts is checked in Python, any other
        # window by _frequencies: both refuse alike, with the same message
        with pytest.raises(ValueError) as one:
            estimate_phase(counts, tracking_cal, BRANCH)
        with pytest.raises(ValueError) as batch:
            estimate_phases(counts[None] if isinstance(counts, np.ndarray) else [counts], tracking_cal, BRANCH)
        assert (type(one.value), str(one.value)) == (type(batch.value), str(batch.value))

    @pytest.mark.parametrize("branch", [(0.0, 2.0), (False, True), ("0.3", 0.9), 5, None, (0.9, 0.3), (0.3,)])
    def test_one_window_refuses_the_branches_the_batch_refuses(self, tracking_cal, branch):
        counts = np.array([600, 150, 150, 100])
        with pytest.raises(ValueError) as one:
            estimate_phase(counts, tracking_cal, branch)
        with pytest.raises(ValueError) as batch:
            estimate_phases(counts[None], tracking_cal, branch)
        assert (type(one.value), str(one.value)) == (type(batch.value), str(batch.value))

    @pytest.mark.parametrize("counts", [
        np.array([2**53 - 1, 0, 0, 0]), np.array([2**52, 2**52 - 1, 0, 0], dtype=np.uint64),
        np.array([0, 0, 0, 1], dtype=np.int8), np.array([3, 1, 1, 1], dtype=np.uint8)])
    def test_one_window_accepts_what_the_batch_accepts(self, tracking_cal, counts):
        # the integer windows that the Python check takes, at the edges of its
        # range and in narrow dtypes, give the batch's estimate bit for bit
        est = estimate_phase(counts, tracking_cal, BRANCH)
        batch = estimate_phases(counts[None], tracking_cal, BRANCH)
        assert np.array([est.phi_est, est.objective_value, est.low_information]).tobytes() == np.array(
            [a[0] for a in batch]).tobytes()
        assert est.window_trials == sum(counts.tolist()) and type(est.window_trials) is int

    def test_largest_window_keeps_every_count(self, tracking_cal):
        assert estimate_phase([2**53 - 1, 0, 0, 0], tracking_cal, BRANCH).window_trials == 2**53 - 1

    def test_flat_objective_unidentifiable(self):
        dead = CalibrationModel(InterferometerConfig(r1=0.5, r2=0.5, eta_h=0.0, eta_v=0.0))
        with pytest.raises(UnidentifiableError):
            estimate_phase([700, 100, 100, 100], dead, BRANCH)

    def test_extremum_flagged_low_information(self, tracking_cal):
        # at the fringe extremum phi = 0 every dp/dphi vanishes while the
        # probabilities stay finite, so the Fisher information is zero
        branch = (-0.6, 0.3)
        counts = np.rint(tracking_cal.probabilities(0.0) * 2**50)
        est = estimate_phase(counts, tracking_cal, branch)
        assert est.low_information
        assert abs(est.phi_est) < 1e-3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fig4_windows_make_no_exact_fisher_call(self, tracking_cfg, tracking_cal, monkeypatch, seed):
        # the proven lower bound on F clears every fig4 window, so neither the
        # replay's batch nor one-window estimates call fisher,
        scenario = presets.fig4_scenario(seed=seed)
        branch = scenario.resolved_branch()
        tracking_cal._branch_nodes(*branch)  # the node table is built
        calls = []
        monkeypatch.setattr("squint.estimation.fisher", lambda cfg, phis: calls.append(phis) or fisher(cfg, phis))
        # and each window's shortlist comes from the projection: none takes the exact distances to every node
        exact, dot4 = [], estimation._dot4
        monkeypatch.setattr(estimation, "_dot4", lambda a, b: exact.append(a) or dot4(a, b))
        records = run_tracking(scenario, tracking_cfg, tracking_cal).records
        estimates = [estimate_phase(counts, tracking_cal, branch) for counts in records.counts[:300]]
        assert calls == [] and exact == []
        assert not records.low_information.any() and not any(est.low_information for est in estimates)

    def test_estimates_stay_in_branch(self, tracking_cal):
        rng = np.random.default_rng(5)
        probs = fringe(tracking_cal.config, [0.35])[0]
        for counts in rng.multinomial(200, probs, size=25):
            est = estimate_phase(counts, tracking_cal, BRANCH)
            assert BRANCH[0] <= est.phi_est <= BRANCH[1]

    def test_consistency_small_bias(self, tracking_cal):
        # bias well below the spread at T = 1e6 across three phases
        rng = np.random.default_rng(17)
        phis = (0.45, 0.58, 0.8)
        for phi_true, probs in zip(phis, fringe(tracking_cal.config, phis)):
            draws = rng.multinomial(1_000_000, probs, size=200)
            ests = estimate_phases(draws, tracking_cal, BRANCH)[0]
            assert abs(ests.mean() - phi_true) < ests.std(ddof=1) / 5


@st.composite
def branches(draw):
    """Branches anywhere on the line, a third of them across 0 or pi."""
    width = draw(st.floats(0.05, math.pi / 2))
    anchor = draw(st.sampled_from([0.0, math.pi, None]))
    if anchor is None:
        lo = draw(st.floats(-2.0, 4.0))
    else:
        lo = anchor - width * draw(st.floats(0.05, 0.95))
    return lo, lo + width


def check_segment_bound(cal, branch, j, shares):
    """Segment j of the branch table: its need against the bound L the test
    computes from the calibration-grid interval around the segment, and 4 L^2
    <= F at the given shares of the way through it."""
    cfg = cal.config
    nodes, *_, rows = cal._branch_nodes(*branch)
    step = math.pi / 2048
    reach = step + 4 * np.finfo(float).eps * (max(-branch[0], branch[1]) + abs(cfg.phase_offset) + math.pi)
    peak = np.abs(cal.slopes).max(axis=1)
    # the interval index by floor division of the midpoint, then mod 2048: the
    # midpoint of a segment just below 0 taken mod pi rounds to pi, past the grid
    g = math.floor(0.5 * (nodes[j] + nodes[j + 1]) / step) % 2048
    lower = max(peak[g], peak[g + 1]) - _curvature_bound(cfg.r1) * reach
    need = rows[j][-1]
    if lower <= 1e-100:
        assert need == math.inf
        return
    assert need * lower * lower == pytest.approx(0.5, rel=1e-12)
    phis = nodes[j] + np.array(shares) * (nodes[j + 1] - nodes[j])
    assert np.all(4.0 * lower * lower <= fisher(cfg, phis) * (1.0 + 1e-9))


count_rows = st.lists(st.tuples(*[st.integers(0, 100_000)] * 4), min_size=1, max_size=6)


def interpolated_objective(cal, counts, phis):
    freqs = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
    return ((cal.probabilities(phis)[None] - freqs[:, None]) ** 2).sum(axis=-1)


class TestEstimatePhases:
    def test_single_windows_match_the_batch_with_the_node_table_empty_and_filled(self, tracking_cfg):
        scenario = dataclasses.replace(presets.fig4_scenario(seed=1), repeats=5)
        branch, trials = scenario.resolved_branch(), scenario.trials_per_window
        cal = CalibrationModel(tracking_cfg)
        run = run_tracking(scenario, tracking_cfg, cal)
        counts = run.records.counts[:50]
        phi, value, low = estimate_phases(counts, CalibrationModel(tracking_cfg), branch)
        for model in (CalibrationModel(tracking_cfg), cal):  # empty, then filled by run_tracking
            for k, row in enumerate(counts):
                est = estimate_phase(row, model, branch, trials=trials)
                assert (est.phi_est, est.objective_value, est.low_information) == (phi[k], value[k], low[k])

    @settings(max_examples=60, deadline=None)
    @given(rows=count_rows, branch=branches())
    def test_rows_match_single_window_and_minimize(self, tracking_cal, rows, branch):
        counts = np.array(rows, dtype=float)
        phi, value, low = estimate_phases(counts, tracking_cal, branch)
        assert phi.shape == value.shape == low.shape == (len(rows),)
        for k, row in enumerate(counts):
            if np.isnan(phi[k]):
                assert low[k] and np.isnan(value[k])
                with pytest.raises(UnidentifiableError):
                    estimate_phase(row, tracking_cal, branch)
                continue
            est = estimate_phase(row, tracking_cal, branch)
            assert (est.phi_est, est.objective_value, est.low_information) == (phi[k], value[k], low[k])
            assert branch[0] <= phi[k] <= branch[1]
        lo, hi = branch
        tab = np.concatenate([tracking_cal.phi_tab + k * math.pi for k in range(-1, 3)])
        nodes = np.concatenate([[lo, hi], tab[(tab > lo) & (tab < hi)]])
        grid = np.linspace(lo, hi, 20_001)
        live = ~np.isnan(phi)
        for phis in (nodes, grid):
            # up to roundoff: residuals p - f carry an absolute error of a few eps
            obj = interpolated_objective(tracking_cal, counts[live], phis)
            assert np.all(value[live, None] <= obj + 4 * np.finfo(float).eps * (obj + np.sqrt(obj)))

    def test_exact_frequencies_recovered(self, tracking_cal):
        phis = np.array([0.31, 0.58, 0.72, 0.89])
        counts = np.rint(tracking_cal.probabilities(phis) * 2**50)
        phi, value, low = estimate_phases(counts, tracking_cal, BRANCH)
        assert np.abs(phi - phis).max() < 1e-9
        assert value.max() < 1e-20
        assert not low.any()

    def test_empty_and_flat_rows_do_not_touch_others(self, tracking_cal, monkeypatch):
        rng = np.random.default_rng(8)
        probs = fringe(tracking_cal.config, [0.6])[0]
        good = rng.multinomial(100_000, probs, size=3)
        alone = estimate_phases(good, tracking_cal, BRANCH)
        batch = np.insert(good, 1, 0, axis=0)  # an all-zero window
        phi, value, low = estimate_phases(batch, tracking_cal, BRANCH)
        assert np.isnan(phi[1]) and np.isnan(value[1]) and low[1]
        for mine, theirs in zip((phi, value, low), alone):
            assert np.array_equal(np.delete(mine, 1), theirs)

        # curves on a circle of radius 0.05 about c: the window at c sees a
        # flat objective while the others still resolve their phase
        c = np.array([0.4, 0.2, 0.2, 0.2])
        e1, e2 = np.array([1.0, -1.0, 0, 0]) / math.sqrt(2), np.array([0, 0, 1.0, -1.0]) / math.sqrt(2)
        tab = np.linspace(0.0, math.pi, 2049)
        curves = c + 0.05 * (np.cos(2 * tab)[:, None] * e1 + np.sin(2 * tab)[:, None] * e2)
        # synthetic p with the config's own dp/dphi, which the flag's bound reads
        monkeypatch.setattr(estimation, "clicks", lambda cfg, phis: (curves, clicks(cfg, phis)[1]))
        circle = CalibrationModel(tracking_cal.config)
        monkeypatch.undo()
        branch = (tab[200], tab[800])
        others = np.rint(curves[[300, 500, 700]] * 2**50)
        phi, value, low = estimate_phases(np.insert(others, 1, np.rint(c * 2**50), axis=0), circle, branch)
        assert np.isnan(phi[1]) and np.isnan(value[1]) and low[1]
        assert np.array_equal(np.delete(phi, 1), estimate_phases(others, circle, branch)[0])
        assert np.abs(np.delete(phi, 1) - tab[[300, 500, 700]]).max() < 1e-12

        dead = CalibrationModel(tracking_cal.config.with_updates(eta_h=0.0, eta_v=0.0))
        phi, value, low = estimate_phases(good, dead, BRANCH)
        assert np.isnan(phi).all() and np.isnan(value).all() and low.all()

    def test_invalid_batch_rejected(self, tracking_cal):
        for bad in (np.ones((3, 3)), np.ones(4), [[1, 2, 3, -4]], [[1, 2, 3, math.inf]], [[1, 2, 3, math.nan]],
                    [[0.4, 0.2, 0.2, 0.2]], [[1, 2, 3, 4.5]]):
            with pytest.raises(ValueError):
                estimate_phases(bad, tracking_cal, BRANCH)
        empty = estimate_phases(np.empty((0, 4)), tracking_cal, BRANCH)
        assert [a.shape for a in empty] == [(0,)] * 3

    @pytest.mark.parametrize("counts", [[[True, 5, 5, 5]], [["1000", 5, 5, 5]], [[1000, 5, 5, None]],
                                        [[1000, 5, 5, np.True_]], np.array([[True, False, True, True]]),
                                        np.array([["1000", "5", "5", "5"]]), np.array([[1000, 5, 5, 5]], dtype=object),
                                        np.array([[1000, 5, 5, 5 + 0j]])])
    def test_counts_that_are_not_numbers_are_refused(self, tracking_cal, counts):
        # np.asarray(counts, dtype=float) counted True as 1 and read "1000" as
        # 1000: an array is checked by its dtype, any other input entry by entry
        one = counts[0]
        for call in (lambda: estimate_phases(counts, tracking_cal, BRANCH),
                     lambda: estimate_phase(one, tracking_cal, BRANCH),
                     lambda: bootstrap_sigma(one, tracking_cal, BRANCH)):
            with pytest.raises(ValueError, match="counts must be numbers") as exc:
                call()
            assert type(exc.value) is ValueError

    def test_integer_and_float_count_arrays_are_numbers(self, tracking_cal):
        expected = estimate_phases([[1000, 50, 50, 5]], tracking_cal, BRANCH)
        for counts in (np.array([[1000, 50, 50, 5]], dtype=np.uint16), np.array([[1000.0, 50.0, 50.0, 5.0]]),
                       [(np.int64(1000), np.float32(50), 50, 5)]):
            assert all(map(np.array_equal, estimate_phases(counts, tracking_cal, BRANCH), expected))
        assert estimate_phase(np.array([1000, 50, 50, 5]), tracking_cal, BRANCH).phi_est == expected[0][0]


# the centre and the plane of circle_model's curves
C = np.array([0.4, 0.2, 0.2, 0.2])
E1, E2 = np.array([1.0, -1.0, 0, 0]) / math.sqrt(2), np.array([0, 0, 1.0, -1.0]) / math.sqrt(2)


def circle_model(cfg, turns: int):
    """A model of ``cfg`` whose curves run ``turns`` times round a circle of
    radius 0.05 about C in the plane of E1 and E2 over [0, pi], with the
    config's own dp/dphi, which the flag's bound reads."""
    tab = CalibrationModel.phi_tab
    curves = C + 0.05 * (np.cos(2 * turns * tab)[:, None] * E1 + np.sin(2 * turns * tab)[:, None] * E2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "clicks", lambda cfg, phis: (curves, clicks(cfg, phis)[1]))
        return CalibrationModel(cfg)


def same_as_full_scan(counts, cal, branch):
    """estimate_phases, and estimate_phase on each window, agree with the full
    scan of search_reference bit for bit; a NaN row of the scan is an
    UnidentifiableError of estimate_phase."""
    scan = full_scan(counts, cal, branch)
    if not all(mine.tobytes() == theirs.tobytes() for mine, theirs in zip(estimate_phases(counts, cal, branch), scan)):
        return False
    for row, phi, value, low in zip(counts, *scan):
        try:
            est = estimate_phase(row, cal, branch)
        except UnidentifiableError:
            if not math.isnan(phi):
                return False
            continue
        if np.array([est.phi_est, est.objective_value]).tobytes() != np.array([phi, value]).tobytes() or (
                est.low_information != low):
            return False
    return True


class TestSearchMatchesFullScan:
    @settings(max_examples=25, deadline=None)
    @given(cfg=st.one_of(random_configs, random_configs.map(lambda c: c.with_updates(r1=0.0)),
                         random_configs.map(lambda c: c.with_updates(eta_h=0.0, eta_v=0.0))),
           branch=branches(), data=st.data())
    def test_random_configs_and_windows(self, cfg, branch, data):
        # windows near the curve, at its node values (a tie between the two
        # segments that meet there, up to rounding of the counts), far from
        # it and empty; r1 = 0 and eta = 0 make every window flat
        cal = CalibrationModel(cfg)
        nodes = cal._branch_nodes(*branch)[0]
        windows = []
        for kind in data.draw(st.lists(st.sampled_from(["near", "node", "far", "empty"]), min_size=1, max_size=8)):
            if kind == "near":
                scale = 10.0 ** data.draw(st.integers(2, 12))
                windows.append(np.rint(cal.probabilities(data.draw(st.floats(*branch))) * scale))
            elif kind == "node":
                windows.append(np.rint(cal.probabilities(nodes[data.draw(st.integers(0, nodes.size - 1))]) * 2.0**50))
            elif kind == "far":
                windows.append(data.draw(st.tuples(*[st.integers(0, 10**6)] * 4)))
            else:
                windows.append((0, 0, 0, 0))
        assert same_as_full_scan(np.array(windows, dtype=float), cal, branch)

    def test_exact_ties_and_flat_windows(self, tracking_cal, monkeypatch):
        tab = np.linspace(0.0, math.pi, 2049)
        # dyadic curves, so a window can sit exactly on a node: the steps of
        # 1/1024 every 8 nodes leave runs of zero-length segments, each run a
        # tie of distance 0
        level = np.arange(2049) // 8
        dyadic = np.stack([512 + level, 512 - level, 0 * level, 0 * level], axis=1) / 1024
        # curves on a circle of radius 0.05 about c: the window at c is flat
        c = np.array([0.4, 0.2, 0.2, 0.2])
        e1, e2 = np.array([1.0, -1.0, 0, 0]) / math.sqrt(2), np.array([0, 0, 1.0, -1.0]) / math.sqrt(2)
        circle = c + 0.05 * (np.cos(2 * tab)[:, None] * e1 + np.sin(2 * tab)[:, None] * e2)
        # a path in the circle's plane in short steps but for one of length 0.2,
        # from node 500 to 501. The windows 0.01 and 0.005 off it have their
        # nearest nodes 0.02 and 0.025 away, on the short steps from node 600 to
        # 700, while the long segment's ends are 0.1 and 0.05 away: only half
        # the longest segment in the shortlist's bound keeps the best segment
        knots = [0, 500, 501, 600, 700, 2048]
        x = np.interp(np.arange(2049), knots, [-0.1, -0.1, 0.1, 0.1, 0.0, 0.0])
        y = np.interp(np.arange(2049), knots, [0.25, 0.0, 0.0, 0.03, 0.03, 0.25])
        path = c + x[:, None] * e1 + y[:, None] * e2
        off_path = np.rint(np.stack([c + 0.01 * e2, c + 0.05 * e1 + 0.005 * e2]) * 2**50)
        # dyadic curves that leave (0, 1/2, 1/4, 1/4) at node 0 with p00 rising and
        # the rest falling: on the branch from -0.0, the window with counts (-0.0,
        # 512, 256, 256) has (f - a).d = -0.0 on the first segment, so u = -0.0 and
        # the estimate is -0.0, where a clip that drops a zero's sign gives 0.0
        m = (np.minimum(np.arange(2049), 2048 - np.arange(2049)) + 3) // 4
        signed = np.stack([3 * m, 512 - m, 256 - m, 256 - m], axis=1) / 1024
        branch = (tab[200], tab[800])
        # the circle's windows span three batches of the full scan on its branch
        # (601 nodes), the last one short, with flat windows (at c) and empty ones
        # at the first and the last row and on both sides of each scan batch boundary
        rows = BATCH_CELLS // 601
        edges = [0, rows - 1, rows, 2 * rows - 1, 2 * rows, 3 * rows - 6]
        rng = np.random.default_rng(11)
        live = rng.multinomial(10**6, circle[rng.integers(200, 801, 3 * rows - 5)]).astype(float)
        live[1:4] = np.rint(circle[[300, 500, 700]] * 2**50)
        dead = []
        for first, second in ((np.rint(c * 2**50), np.zeros(4)), (np.zeros(4), np.rint(c * 2**50))):
            dead.append(live.copy())
            dead[-1][edges[0::2]], dead[-1][edges[1::2]] = first, second
        # the dyadic windows sit on nodes inside a run, at its ends and at the branch's ends
        for curves, windows, branch in (
                (dyadic, dyadic[[200, 203, 207, 208, 500, 800]] * 1024, branch), (path, off_path, branch),
                (signed, np.array([[-0.0, 512, 256, 256], [0, 512, 256, 256]]), (-0.0, tab[800])),
                (circle, dead[0], branch), (circle, dead[1], branch)):
            monkeypatch.setattr(estimation, "clicks", lambda cfg, phis: (curves, clicks(cfg, phis)[1]))
            cal = CalibrationModel(tracking_cal.config)
            monkeypatch.undo()
            assert same_as_full_scan(windows, cal, branch)
        assert cal._branch_nodes(*branch)[0].size == 601
        assert np.flatnonzero(np.isnan(estimate_phases(windows, cal, branch)[0])).tolist() == edges
        for cfg in (tracking_cal.config.with_updates(r1=0.0), tracking_cal.config.with_updates(eta_h=0.0, eta_v=0.0)):
            assert same_as_full_scan(np.array([[700, 100, 100, 100], [0, 0, 0, 0]], dtype=float),
                                     CalibrationModel(cfg), BRANCH)

    def test_windows_at_the_width_cutoff(self, tracking_cal, monkeypatch):
        # windows on a ray from the curve, bisected to the last one whose reach
        # the search scores in Python floats and the first, one count further,
        # that takes the exact distances to every node (more than _WIDE of the
        # branch's nodes)
        tracking_cal._branch_nodes(*BRANCH)  # the node table is built
        exact, dot4 = [], estimation._dot4
        monkeypatch.setattr(estimation, "_dot4", lambda a, b: exact.append(a) or dot4(a, b))
        p, ray = tracking_cal.probabilities(0.6), np.array([-0.5, 0.5, 0.5, -0.5])

        def window(s):
            return np.rint((p + s * ray) * 2**40).astype(np.int64)

        def wide(s):
            before = len(exact)
            estimate_phase(window(s), tracking_cal, BRANCH)
            return len(exact) > before

        inside, past = 0.0, 0.1
        assert not wide(inside) and wide(past)
        for _ in range(60):
            mid = 0.5 * (inside + past)
            inside, past = (inside, mid) if wide(mid) else (mid, past)
        windows = np.array([window(inside), window(past)])
        assert np.abs(windows[1] - windows[0]).max() == 1
        assert same_as_full_scan(windows, tracking_cal, BRANCH)

    def test_windows_about_a_folded_projection(self, tracking_cfg, monkeypatch):
        # curves twice round the circle: on a branch of three quarters of a
        # turn the projection on the chord folds back over itself, so a window's
        # nearest node in projection may lie across the circle. Windows just
        # inside and outside it, and at its centre, where the objective is flat
        cal = circle_model(tracking_cfg, 2)
        tab, nodes = CalibrationModel.phi_tab, np.arange(100, 869, 24)
        branch = (tab[100], tab[868])
        windows = [np.rint((C + radius * (np.cos(4 * tab[k]) * E1 + np.sin(4 * tab[k]) * E2)) * 2**50)
                   for radius in (0.047, 0.0499, 0.0501, 0.053) for k in nodes]
        windows = np.array([*windows, np.rint(C * 2**50)])
        assert same_as_full_scan(windows, cal, branch)
        exact, dot4 = [], estimation._dot4
        monkeypatch.setattr(estimation, "_dot4", lambda a, b: exact.append(a) or dot4(a, b))
        assert np.isnan(estimate_phases(windows, cal, branch)[0]).tolist() == [False] * (len(windows) - 1) + [True]
        assert 0 < len(exact) < len(windows)  # both paths: the exact distances of some windows, not all

    def test_a_lone_node_in_reach_beside_the_projection_neighbour(self, tracking_cfg, monkeypatch):
        # a path along the chord E1 whose two longest segments run from node 499
        # to node 500 and on to node 501: a window just past node 500
        # in projection has node 501 as its neighbour there, yet node 500 is the
        # one node in its reach. Its best segment, from 499 to 500, is not one
        # of node 501's, so the neighbour's score must not stand
        tab = CalibrationModel.phi_tab
        knots = [0, 200, 499, 500, 501, 800, 2048]
        x = np.interp(np.arange(2049), knots, [-0.2, -0.2, -0.075, 0.0, 0.095, 0.2, 0.2])
        y = np.interp(np.arange(2049), knots, [0.0, 0.0, 0.05, 0.0, 0.0, 0.0, 0.0])
        curves = C + x[:, None] * E1 + y[:, None] * E2
        monkeypatch.setattr(estimation, "clicks", lambda cfg, phis: (curves, clicks(cfg, phis)[1]))
        cal = CalibrationModel(tracking_cfg)
        monkeypatch.undo()
        branch = (tab[200], tab[800])
        windows = np.rint(np.array([C + 5e-4 * E1 + 5e-3 * E2]) * 2**50)
        assert same_as_full_scan(windows, cal, branch)
        assert tab[499] < estimate_phase(windows[0], cal, branch).phi_est < tab[500]

    def test_flat_windows_on_a_branch_of_few_nodes(self, tracking_cfg):
        # a branch of fewer than _WIDE nodes: a flat window's reach holds every
        # node, so it takes the exact distances and is dead, while the others resolve
        tab = CalibrationModel.phi_tab
        cal = circle_model(tracking_cfg, 1)
        branch = (tab[200], tab[240])
        assert cal._branch_nodes(*branch)[0].size == 41 < estimation._WIDE
        windows = np.rint(np.array([C, cal.curves[210], C + 0.001 * E1, cal.curves[239]]) * 2**50)
        assert same_as_full_scan(windows, cal, branch)
        assert np.isnan(estimate_phases(windows, cal, branch)[0]).tolist() == [True, False, False, False]
        for cfg in (tracking_cfg.with_updates(r1=0.0), tracking_cfg.with_updates(eta_h=0.0, eta_v=0.0)):
            assert same_as_full_scan(np.array([[700, 100, 100, 100], [0, 0, 0, 0]], dtype=float),
                                     CalibrationModel(cfg), (0.3, 0.33))


class TestScratchBound:
    def test_peak_memory_of_a_replay_batch_and_a_bootstrap(self, tracking_cfg, tracking_cal):
        # the fig4 replay's windows, as many far windows (uniform random
        # counts, which have the longest shortlists) and as many empty ones in
        # one estimate_phases call each, and a 200-resample bootstrap: the
        # windows are searched one row at a time into one (W, 3) array, the
        # low-information bound makes no click call on these windows, and an
        # empty window takes no exact distances. Measured 0.421, 0.480 and
        # 0.297 MB for the replay, the far windows and the bootstrap when the
        # limits were set, 25% above the replay's and the bootstrap's; now
        # 0.243, 0.243, 0.173 (empty) and 0.031 MB. An exact flat check of the
        # empty windows read 1.67 MB, and the frequencies as one list of rows
        # 0.56 MB for the replay
        scenario = presets.fig4_scenario(seed=0)
        counts = run_tracking(scenario, tracking_cfg, tracking_cal).records.counts
        far = np.random.default_rng(3).integers(0, 10**6, size=(2200, 4))
        empty = np.zeros((2200, 4))
        branch = scenario.resolved_branch()
        assert len(counts) == 2200
        for call, limit in ((lambda: estimate_phases(counts, tracking_cal, branch), 0.526e6),
                            (lambda: estimate_phases(far, tracking_cal, branch), 0.526e6),
                            (lambda: estimate_phases(empty, tracking_cal, branch), 0.526e6),
                            (lambda: bootstrap_sigma(counts[5], tracking_cal, branch, resamples=200, seed=1), 0.371e6)):
            call()  # the node table is built
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit

    def test_peak_memory_of_a_long_click_call(self, tracking_cfg):
        # 2049 phases in chunks of _CHUNK = 128: one chunk's scratch and the
        # output array the chunks are written into. Measured 0.596 MB when the limit was set,
        # 25% above it; 0.546 MB now, with the blocks of arm V's D not formed and
        # t = phi + phase_offset formed once a call. The 160 stacked rows of a
        # calibrate Jacobian take two chunks under the same limit: 0.609 MB
        configs = [tracking_cfg.with_updates(phase_offset=0.01 * k) for k in range(10)]
        for call in (lambda: clicks(tracking_cfg, CalibrationModel.phi_tab),
                     lambda: _fringe_rows(configs, np.linspace(0.1, 3.0, 16))):
            call()
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 0.745e6


def window(probs, total: int) -> list[int]:
    """Whole counts near ``probs`` * total that add up to ``total`` exactly."""
    counts = [int(v) for v in np.floor(np.asarray(probs) * total)]
    counts[counts.index(max(counts))] += total - sum(counts)
    return counts


class TestLowInformationFlag:
    def test_curvature_bound_vanishes_without_squeezing(self):
        assert _curvature_bound(0.0) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(cfg=st.one_of(random_configs, random_configs.map(lambda c: c.with_updates(r1=2.0 * c.r1))),
           phis=st.lists(st.floats(0.0, math.pi), min_size=1, max_size=8))
    def test_curvature_bound_holds(self, cfg, phis):
        # d2p/dphi2 by central differences of dp/dphi at the step h = 1e-5:
        # their truncation error (about h^2/6 times the fourth derivative) and
        # roundoff (about 1e-16 / h) stay below the tolerance 1e-6 (1 + C) for r1 <= 2
        h, phis = 1e-5, np.array(phis)
        curvature = (clicks(cfg, phis + h)[1] - clicks(cfg, phis - h)[1]) / (2.0 * h)
        bound = _curvature_bound(cfg.r1)
        assert np.abs(curvature).max() <= bound + 1e-6 * (1.0 + bound)

    @settings(max_examples=30, deadline=None)
    @given(cfg=random_configs, branch=branches(), data=st.data())
    def test_segment_bound_holds(self, cfg, branch, data):
        # On a segment of the branch table, L = max_e max_k |p_k'(phi_e)| -
        # C(r1) (grid step + delta) over the ends e of the calibration-grid
        # interval around it, and 4 L^2 <= F at every phase on the segment, up
        # to a factor 1 + 1e-9 that covers the roundoff of dp and F (each about
        # 1e-13 relative). need = 1/(2 L^2) there, and inf where L <= 1e-100
        cal = CalibrationModel(cfg)
        size = cal._branch_nodes(*branch)[0].size
        for j in data.draw(st.lists(st.integers(0, size - 2), min_size=1, max_size=6)):
            shares = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
            check_segment_bound(cal, branch, j, shares)

    @pytest.mark.parametrize("r1", [0.43, 0.0])
    def test_segment_bound_holds_on_a_segment_just_below_zero(self, tracking_cfg, r1):
        # the first segment, [lo, 0] with lo = -2.1e-29, lies in the last
        # interval of the calibration grid, [pi - step, pi]; its midpoint taken
        # mod pi rounds to pi itself. The offset keeps the stationary points
        # away, so that at r1 = 0.43 the segment's need is finite
        cal = CalibrationModel(tracking_cfg.with_updates(r1=r1, phase_offset=0.3))
        assert (cal._branch_nodes(-2.1072764191749093e-29, 1.0)[-1][0][-1] < math.inf) == (r1 > 0.0)
        check_segment_bound(cal, (-2.1072764191749093e-29, 1.0), 0, [0.0, 0.5, 1.0])

    @settings(max_examples=30, deadline=None)
    @given(cfg=random_configs, node=st.integers(0, 2047), share=st.floats(0.0, 1.0), data=st.data())
    def test_flag_is_exactly_the_fisher_rule(self, cfg, node, share, data):
        # the offset puts the stationary points t = 0 and pi/2 a drawn share of
        # the way through a segment of the calibration grid: inside it, both
        # nodes carry information while F(phi_est) may vanish.
        # Windows sit at and next to them, on the true curves and on the
        # interpolated ones (whose estimate is that phase, also mid-segment),
        # with totals up to 2^53 - 1, the largest at the stationary point
        cfg = cfg.with_updates(phase_offset=-(node + share) * math.pi / 2048)
        cal = CalibrationModel(cfg)
        for stationary in (-cfg.phase_offset, math.pi / 2 - cfg.phase_offset):
            branch = (stationary - data.draw(st.floats(0.05, 0.75)), stationary + data.draw(st.floats(0.05, 0.75)))
            steps = [0.0] + data.draw(st.lists(st.one_of(st.just(0.0), st.floats(-1e-2, 1e-2)), max_size=5))
            totals = data.draw(st.lists(st.one_of(st.sampled_from([100, 2**53 - 1]), st.integers(100, 10**6),
                                                  st.integers(100, 2**53 - 1)), min_size=2 * len(steps),
                                        max_size=2 * len(steps)))
            totals[0] = totals[len(steps)] = 2**53 - 1
            phis = stationary + np.array(steps)
            probs = np.concatenate([fringe(cfg, phis), cal.probabilities(phis)])
            counts = np.array([window(p, n) for p, n in zip(probs, totals)], dtype=float)
            phi, _, low = estimate_phases(counts, cal, branch)
            live = ~np.isnan(phi)
            exact = np.ones(len(totals), dtype=bool)
            exact[live] = np.array(totals, dtype=float)[live] * fisher(cfg, phi[live]) < 1.0
            assert np.array_equal(low, exact)
            assert same_as_full_scan(counts, cal, branch)


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
        # no light reaches the detectors: every resample's objective is flat
        dead = CalibrationModel(InterferometerConfig(r1=0.5, r2=0.5, eta_h=0.0, eta_v=0.0))
        with pytest.raises(UnidentifiableError, match="objective is flat on the branch"):
            bootstrap_sigma([7000, 1000, 1000, 1000], dead, BRANCH)

    @pytest.mark.parametrize("resamples", [150.5, math.nan, math.inf, True])
    def test_bootstrap_resamples_must_be_an_integer(self, tracking_cal, resamples):
        # numpy's multinomial ended in "'float' object is not iterable"
        with pytest.raises(ValueError, match="resamples must be an integer"):
            bootstrap_sigma([600, 200, 150, 50], tracking_cal, BRANCH, resamples=resamples)

    @pytest.mark.parametrize("seed", [1.5, "3", True, None, -1, 2**64, math.nan])
    def test_bootstrap_seed_must_be_an_integer_key(self, tracking_cal, seed):
        # 1.5 and "3" ended in numpy's TypeError, True ran as seed 1 and None
        # drew fresh entropy, so the result could not be reproduced
        with pytest.raises(ValueError, match="seed must be") as exc:
            bootstrap_sigma([6000, 2000, 1500, 500], tracking_cal, BRANCH, seed=seed)
        assert type(exc.value) is ValueError

    def test_bootstrap_seed_may_be_a_generator_or_a_numpy_integer(self, tracking_cal):
        counts = [6000, 2000, 1500, 500]
        expected = bootstrap_sigma(counts, tracking_cal, BRANCH, seed=7)
        assert bootstrap_sigma(counts, tracking_cal, BRANCH, seed=np.uint64(7)) == expected
        assert bootstrap_sigma(counts, tracking_cal, BRANCH, seed=np.random.default_rng(7)) == expected
        assert bootstrap_sigma(counts, tracking_cal, BRANCH, seed=2**64 - 1) > 0.0

    @pytest.mark.parametrize("counts", [[600.5, 150, 150, 100], [-5, 600, 300, 200]])
    def test_bootstrap_needs_whole_non_negative_counts(self, tracking_cal, counts):
        with pytest.raises(ValueError, match="counts must be"):
            bootstrap_sigma(counts, tracking_cal, BRANCH)

    def test_bootstrap_vanishing_noise_limit(self, tracking_cal):
        # high-information phase so the T = 1e8 bound sits below 1e-4 rad
        phi0, branch = 1.25, (0.9, 1.5)
        probs = fringe(tracking_cal.config, [phi0])[0]
        counts = np.round(probs * 1e8).astype(int)
        sigma = bootstrap_sigma(counts, tracking_cal, branch, resamples=100, seed=2)
        assert sigma < 1e-4

    def test_bootstrap_tracks_crlb(self, tracking_cal):
        rng = np.random.default_rng(23)
        probs = fringe(tracking_cal.config, [0.58])[0]
        counts = rng.multinomial(100_000, probs)
        sigma = bootstrap_sigma(counts, tracking_cal, BRANCH, resamples=200, seed=4)
        bound = crlb(tracking_cal.config, [0.58], 100_000)[0]
        assert abs(sigma - bound) / bound < 0.2

    def test_crlb_value_and_scaling(self, ideal_cal):
        phi_star, fmax = max_fisher(ideal_cal.config)
        bound1, bound100 = crlb(ideal_cal.config, [phi_star], 1)[0], crlb(ideal_cal.config, [phi_star], 100)[0]
        assert bound1 == pytest.approx(1.0 / math.sqrt(fmax), rel=1e-9)
        assert bound1 == pytest.approx(1.0 / math.sqrt(fisher_max_ideal(0.59)), rel=2e-3)
        assert bound100 == pytest.approx(bound1 / 10, rel=1e-9)
        phis = [0.3, phi_star, 1.1]
        assert np.array_equal(crlb(ideal_cal.config, phis, 100), 1.0 / np.sqrt(100 * fisher(ideal_cal.config, phis)))

    def test_crlb_back_computed_window_for_two_mrad(self, tracking_cal):
        # trial count at which the phi = 0.58 bound reaches the quoted
        # 0.002 rad; the absolute window sensitivity is rate-dependent
        info = fisher(tracking_cal.config, [0.58])[0]
        trials = math.ceil(1.0 / (info * 0.002**2))
        assert crlb(tracking_cal.config, [0.58], trials)[0] <= 0.002
        assert crlb(tracking_cal.config, [0.58], trials - 1)[0] > 0.002
        assert 100_000 < trials < 2_000_000

    def test_crlb_infinite_when_uninformative(self):
        dead = InterferometerConfig(r1=0.5, r2=0.5, eta_h=0.0, eta_v=0.0)
        assert crlb(dead, [0.6], 1000)[0] == math.inf
        with pytest.raises(ValueError):
            crlb(dead, [0.6], 0)
