import json
import math

import numpy as np
import pytest

from squint.detection import fringe
from squint.estimation import CalibrationModel, write_json
from squint.gaussian import InterferometerConfig
from squint.metrology import crlb
from squint.simkit import TrackingScenario, _stream, run_tracking, sensitivity_report


def mini_scenario(**overrides):
    defaults = dict(
        phase_schedule=((0.5, 0.4), (0.8, 0.4), (1.1, 0.2)),
        window=0.2,
        repetition_rate=5e4,
        repeats=3,
        seed=42,
    )
    defaults.update(overrides)
    return TrackingScenario(**defaults)


def window_counts(cfg, phi, trials, windows=1, seed=0):
    """Counts (windows, 4) that run_tracking draws for one set phase, one
    window of ``trials`` trials per repeat."""
    scn = TrackingScenario(phase_schedule=((phi, 1.0),), window=1.0, repetition_rate=trials,
                           repeats=windows, seed=seed)
    run = run_tracking(scn, cfg, CalibrationModel.from_config(cfg))
    return run.records.counts


class TestSampleClicks:
    """The per-window multinomial draw of run_tracking."""

    def test_deterministic(self, tracking_cfg):
        a = window_counts(tracking_cfg, 0.7, 5000, windows=2, seed=1)
        b = window_counts(tracking_cfg, 0.7, 5000, windows=2, seed=1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a[0], a[1])

    def test_counts_sum_to_trials(self, tracking_cfg):
        (counts,) = window_counts(tracking_cfg, 0.3, 12345)
        assert counts.sum() == 12345

    def test_silent_at_ideal_quarter_period(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59)
        (counts,) = window_counts(cfg, math.pi / 2, 1000, seed=3)
        assert counts[0] == 1000

    def test_concentration_around_model(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59)
        p11 = fringe(cfg, [0.0])[0, 3]
        trials = 1_000_000
        (counts,) = window_counts(cfg, 0.0, trials, seed=7)
        sigma = math.sqrt(p11 * (1 - p11) / trials)
        assert abs(counts[3] / trials - p11) < 5 * sigma

    def test_rejects_zero_trials(self, tracking_cfg):
        # a rate of 0.4 per 1 s window rounds to no trials: no run draws an empty window
        with pytest.raises(ValueError, match="no trials"):
            window_counts(tracking_cfg, 0.5, 0.4)

    def test_multinomial_soundness_over_seeds(self, tracking_cfg):
        # z-scores of hat(p11) across independent windows behave like noise
        probs = fringe(tracking_cfg, [0.6])[0]
        trials = 200_000
        sigma = math.sqrt(probs[3] * (1 - probs[3]) / trials)
        zs = (window_counts(tracking_cfg, 0.6, trials, windows=40)[:, 3] / trials - probs[3]) / sigma
        assert np.abs(zs).max() < 5.0
        assert 0.5 < zs.std() < 1.7


class TestScenario:
    def test_duration_must_be_multiple_of_window(self):
        with pytest.raises(ValueError):
            mini_scenario(phase_schedule=((0.5, 0.3),))

    def test_windows_per_repeat(self):
        assert mini_scenario().windows_per_repeat == 5

    def test_trials_per_window(self):
        assert mini_scenario().trials_per_window == 10_000

    def test_branch_resolution(self):
        lo, hi = mini_scenario().resolved_branch()
        assert lo == pytest.approx(0.4)
        assert hi == pytest.approx(1.2)

    def test_branch_is_a_checked_float_pair(self):
        scenario = mini_scenario(branch=[0, 1])
        assert scenario.branch == scenario.resolved_branch() == (0.0, 1.0)
        assert all(type(v) is float for v in scenario.branch)
        assert hash(scenario) == hash(mini_scenario(branch=(0.0, 1.0)))
        for bad in ([0.3], [], [0.3, 0.9, 5], 5):  # 5 raised TypeError
            with pytest.raises(ValueError, match="pair"):
                mini_scenario(branch=bad)

    @pytest.mark.parametrize("schedule", [3, [3], [[0.5]], [[0.5, 0.2, 0.1]]])
    def test_schedule_is_a_list_of_pairs(self, schedule):
        # 3 and [3] raised TypeError
        with pytest.raises(ValueError, match="phase_schedule a list of .* pairs"):
            mini_scenario(phase_schedule=schedule)

    def test_branch_too_wide_rejected(self):
        with pytest.raises(ValueError, match="half period"):
            mini_scenario(phase_schedule=((0.1, 0.2), (1.8, 0.2)))

    @pytest.mark.parametrize("schedule", [(), ((0.5, 0.0),), ((0.5, 0.0), (0.8, 0.0))])
    def test_schedule_needs_a_window(self, schedule):
        with pytest.raises(ValueError, match="at least one window"):
            mini_scenario(phase_schedule=schedule)

    @pytest.mark.parametrize("bad, message", [
        (dict(window=True), "window must be a number"),
        (dict(repetition_rate=True, window=1.0), "repetition_rate must be a number"),
        (dict(phase_schedule=((True, 1.0),)), "numbers"),
        (dict(phase_schedule=((0.5, "1.0"),)), "numbers"),
        (dict(branch=(False, True)), "numbers"),
    ])
    def test_numeric_fields_refuse_bools(self, bad, message):
        # each was accepted: a bool as 0 or 1, the string as a float
        with pytest.raises(ValueError, match=message):
            mini_scenario(**{"phase_schedule": ((0.5, 1.0),), **bad})

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
    def test_seed_is_a_64_bit_word(self, seed):
        # the Philox key took seed mod 2**64, so -1 ran as 2**64 - 1 and 2**64 as 0
        with pytest.raises(ValueError, match=rf"seed must be in \[0, {2**64 - 1}\]"):
            mini_scenario(seed=seed)
        assert mini_scenario(seed=2**64 - 1).seed == 2**64 - 1

    def test_numpy_scalars_are_numbers(self):
        scenario = mini_scenario(window=np.float64(0.2), phase_schedule=((np.float32(0.5), np.int64(1)),))
        assert scenario.windows_per_repeat == 5

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            mini_scenario(repetition_rate=0.0)
        with pytest.raises(ValueError):
            mini_scenario(repeats=0)
        # 0.2 s windows at 1 Hz round to 0 trials per window
        with pytest.raises(ValueError, match="no trials per window"):
            mini_scenario(window=0.2, repetition_rate=1.0)
        with pytest.raises(ValueError, match="repeats must be an integer"):
            mini_scenario(repeats=2.5)
        with pytest.raises(ValueError, match="seed must be an integer"):
            mini_scenario(seed=1.5)
        with pytest.raises(ValueError, match="repeats must be an integer"):
            mini_scenario(repeats=True)  # True was one repeat
        # the last two overflowed to inf and ended in an OverflowError
        for bad in (dict(repetition_rate=math.inf), dict(window=math.nan),
                    dict(phase_schedule=((0.5, math.inf),)), dict(phase_schedule=((math.nan, 0.2),)),
                    dict(phase_schedule=((0.5, 1e308),), window=1e-8, repetition_rate=1e8, repeats=1),
                    dict(window=1e300, repetition_rate=1e300)):
            with pytest.raises(ValueError, match="must be finite"):
                mini_scenario(**bad)
        # a window count past int64 ran into "Python int too large to convert to C long" (exit 4)
        for bad in (dict(phase_schedule=((0.5, 1e300),), window=1.0, repetition_rate=10.0),
                    dict(phase_schedule=((0.5, 1e19),), window=1.0, repetition_rate=10.0, repeats=1),
                    dict(phase_schedule=((0.5, 1.0),), window=1.0, repetition_rate=10.0, repeats=10**19)):
            with pytest.raises(ValueError, match="do not fit in int64"):
                mini_scenario(**bad)


class TestRunTracking:
    def test_record_layout(self, tracking_cfg, tracking_cal):
        run = run_tracking(mini_scenario(), tracking_cfg, tracking_cal)
        rec = run.records
        assert len(rec) == 15  # 5 windows x 3 repeats
        assert rec.window_index.tolist() == list(range(15))
        assert rec["repeat"].tolist() == [0] * 5 + [1] * 5 + [2] * 5
        assert rec.phase_index.tolist() == [0, 0, 1, 1, 2] * 3
        assert rec.phi_set.tolist() == [0.5, 0.5, 0.8, 0.8, 1.1] * 3
        assert rec.counts.shape == (15, 4)
        assert np.all(rec.counts.sum(axis=1) == 10_000)
        lo, hi = run.scenario.resolved_branch()
        assert np.all((lo <= rec.phi_est) & (rec.phi_est <= hi))
        assert run.aggregates.phase_index.tolist() == [0, 1, 2]
        assert run.aggregates[0].n_estimates == 6

    def test_bit_identical_reruns(self, tracking_cfg, tracking_cal):
        a = run_tracking(mini_scenario(), tracking_cfg, tracking_cal)
        b = run_tracking(mini_scenario(), tracking_cfg, tracking_cal)
        assert np.array_equal(a.records, b.records)
        assert np.array_equal(a.aggregates, b.aggregates)

    def test_estimates_track_set_phases(self, tracking_cfg, tracking_cal):
        scn = mini_scenario(repeats=20, repetition_rate=5e5)
        run = run_tracking(scn, tracking_cfg, tracking_cal)
        for agg in run.aggregates:
            assert abs(agg.mean_phi_est - agg.phi_set) < 3 * agg.std_phi_est

    def test_std_tracks_crlb_at_high_information(self, tracking_cfg, tracking_cal):
        scn = TrackingScenario(
            phase_schedule=((1.2, 0.2),), window=0.2, repetition_rate=5e5,
            repeats=250, seed=7,
        )
        run = run_tracking(scn, tracking_cfg, tracking_cal)
        bound = crlb(tracking_cfg, [1.2], scn.trials_per_window)[0]
        agg = run.aggregates[0]
        assert abs(agg.std_phi_est - bound) / bound < 0.15

    def test_uninformative_windows_flagged_not_fatal(self, tracking_cal, tracking_cfg):
        scn = TrackingScenario(
            phase_schedule=((0.0, 0.2), (0.5, 0.2)), window=0.2,
            repetition_rate=5e4, repeats=2, seed=5, branch=(-0.3, 0.9),
        )
        run = run_tracking(scn, tracking_cfg, tracking_cal)
        flagged = run.records[run.records.phase_index == 0]
        assert len(flagged) == 2 and flagged.low_information.all()
        assert len(run.records) == 4


class TestStreams:
    def test_count_streams_unchanged(self):
        key = np.array([42, 5], dtype=np.uint64)
        plain = np.random.Generator(np.random.Philox(key=key)).integers(0, 2**63, size=8)
        assert np.array_equal(_stream(42, 5).integers(0, 2**63, size=8), plain)


class TestSummary:
    def test_summary_schema(self, tracking_cfg, tracking_cal, tmp_path):
        run = run_tracking(mini_scenario(), tracking_cfg, tracking_cal)
        summary = run.summary_dict()
        assert summary["schema"] == "squint-tracking/1"
        assert summary["trials_per_window"] == 10_000
        assert len(summary["aggregates"]) == 3
        write_json(tmp_path / "summary.json", summary)
        written = json.loads((tmp_path / "summary.json").read_text())["aggregates"]
        assert [row["n_estimates"] for row in written] == [6, 6, 3]
        assert [row["phi_set"] for row in written] == [0.5, 0.8, 1.1]


class TestSensitivityReport:
    def test_ideal_enhancement_approaches_closed_form(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59)
        cal = CalibrationModel.from_config(cfg)
        scn = TrackingScenario(
            phase_schedule=((1.42, 0.2),), window=0.2, repetition_rate=5e5,
            repeats=120, seed=21,
        )
        run = run_tracking(scn, cfg, cal)
        report = sensitivity_report(run)
        n_bar = 2 * math.sinh(0.59) ** 2
        limit_db = 10 * math.log10(4 * (n_bar + 2) / 2)
        best = report.best()
        assert best is not None
        assert 0.0 < best.enhancement_db <= limit_db
        assert best.enhancement_db > limit_db - 1.5

    def test_below_threshold_is_negative_everywhere(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59, eta_h=0.05, eta_v=0.05)
        cal = CalibrationModel.from_config(cfg)
        scn = TrackingScenario(
            phase_schedule=((0.9, 0.2), (1.2, 0.2), (1.45, 0.2)),
            window=0.2, repetition_rate=2e5, repeats=60, seed=33,
        )
        run = run_tracking(scn, cfg, cal)
        report = sensitivity_report(run)
        assert all(row.enhancement_db < 0 for row in report.rows)

    def test_external_loss_never_improves_sensitivity(self):
        # statistical check: per-phase std is non-decreasing as loss grows
        stds = []
        for eta in (0.9, 0.6, 0.3):
            cfg = InterferometerConfig(r1=0.43, r2=0.43, eta_h=eta, eta_v=eta)
            cal = CalibrationModel.from_config(cfg)
            scn = TrackingScenario(
                phase_schedule=((1.2, 0.2),), window=0.2, repetition_rate=2e5,
                repeats=150, seed=13,
            )
            run = run_tracking(scn, cfg, cal)
            stds.append(run.aggregates[0].std_phi_est)
        rel_se = 2.0 / math.sqrt(2 * 150)  # 2 sigma of the std estimator
        for better, worse in zip(stds, stds[1:]):
            assert worse >= better * (1.0 - 2 * rel_se)

    def test_per_photon_needs_photons_through_sample(self):
        # at r1 = 0 nothing passes the sample, so the SNL reference is undefined
        cfg = InterferometerConfig(r1=0.0, r2=0.0)
        run = run_tracking(mini_scenario(), cfg, CalibrationModel.from_config(cfg))
        with pytest.raises(ValueError, match="r1 = 0"):
            sensitivity_report(run)

    def test_one_estimate_has_no_spread(self, tracking_cfg, tracking_cal):
        # a single estimate gave std 0, so dphi = 0 and an infinite enhancement
        scenario = mini_scenario(phase_schedule=((0.5, 0.2), (0.8, 0.4)), repeats=1)
        run = run_tracking(scenario, tracking_cfg, tracking_cal)
        assert run.aggregates.n_estimates.tolist() == [1, 2]
        assert math.isnan(run.aggregates.std_phi_est[0]) and run.aggregates.std_phi_est[1] > 0
        report = sensitivity_report(run)
        assert math.isnan(report.rows.dphi[0]) and math.isnan(report.rows.enhancement_db[0])
        assert report.best().phi_set == 0.8

    def test_report_dict_fields(self, tracking_cfg, tracking_cal):
        run = run_tracking(mini_scenario(), tracking_cfg, tracking_cal)
        data = sensitivity_report(run).to_dict()
        assert data["trials_per_window"] == 10_000
        assert len(data["rows"]) == 3
        assert data["best_phase"] in [0.5, 0.8, 1.1]
