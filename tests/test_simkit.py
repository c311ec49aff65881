import csv
import math

import numpy as np
import pytest

from squint.detection import interferometer_clicks
from squint.estimation import CalibrationModel, crlb
from squint.gaussian import InterferometerConfig
from squint.simkit import (
    TrackingScenario,
    _stream,
    run_tracking,
    sample_clicks,
    sensitivity_report,
)


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


class TestSampleClicks:
    def test_deterministic(self, tracking_cfg):
        a = sample_clicks(tracking_cfg, 0.7, 5000, seed=1)
        b = sample_clicks(tracking_cfg, 0.7, 5000, seed=1)
        assert np.array_equal(a, b)
        c = sample_clicks(tracking_cfg, 0.7, 5000, seed=2)
        assert not np.array_equal(a, c)

    def test_counts_sum_to_trials(self, tracking_cfg):
        counts = sample_clicks(tracking_cfg, 0.3, 12345, seed=0)
        assert counts.sum() == 12345

    def test_silent_at_ideal_quarter_period(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59)
        counts = sample_clicks(cfg, math.pi / 2, 1000, seed=3)
        assert counts[0] == 1000

    def test_concentration_around_model(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59)
        p11 = interferometer_clicks(cfg, 0.0).p11
        trials = 1_000_000
        counts = sample_clicks(cfg, 0.0, trials, seed=7)
        sigma = math.sqrt(p11 * (1 - p11) / trials)
        assert abs(counts[3] / trials - p11) < 5 * sigma

    def test_rejects_zero_trials(self, tracking_cfg):
        with pytest.raises(ValueError):
            sample_clicks(tracking_cfg, 0.5, 0, seed=0)

    def test_multinomial_soundness_over_seeds(self, tracking_cfg):
        # z-scores of hat(p11) across independent streams behave like noise
        probs = interferometer_clicks(tracking_cfg, 0.6).as_array()
        trials = 200_000
        sigma = math.sqrt(probs[3] * (1 - probs[3]) / trials)
        zs = []
        for seed in range(40):
            counts = sample_clicks(tracking_cfg, 0.6, trials, seed=seed)
            zs.append((counts[3] / trials - probs[3]) / sigma)
        zs = np.array(zs)
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

    def test_branch_too_wide_rejected(self):
        scn = mini_scenario(phase_schedule=((0.1, 0.2), (1.8, 0.2)))
        with pytest.raises(ValueError):
            scn.resolved_branch()

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            mini_scenario(repetition_rate=0.0)
        with pytest.raises(ValueError):
            mini_scenario(repeats=0)


class TestRunTracking:
    def test_empty_schedule_gives_empty_run(self, tracking_cfg, tracking_cal):
        run = run_tracking(mini_scenario(phase_schedule=()), tracking_cfg, tracking_cal)
        assert run.records == []
        assert run.aggregates == []

    def test_zero_duration_gives_empty_run(self, tracking_cfg, tracking_cal):
        scn = mini_scenario(phase_schedule=((0.5, 0.0),))
        run = run_tracking(scn, tracking_cfg, tracking_cal)
        assert run.records == []

    def test_record_layout(self, tracking_cfg, tracking_cal):
        run = run_tracking(mini_scenario(), tracking_cfg, tracking_cal)
        assert len(run.records) == 15  # 5 windows x 3 repeats
        assert [r.window_index for r in run.records] == list(range(15))
        for rec in run.records:
            assert sum(rec.counts) == 10_000
            assert run.branch[0] <= rec.phi_est <= run.branch[1]
        assert {a.phase_index for a in run.aggregates} == {0, 1, 2}
        assert run.aggregates[0].n_estimates == 6

    def test_bit_identical_reruns(self, tracking_cfg, tracking_cal):
        a = run_tracking(mini_scenario(), tracking_cfg, tracking_cal)
        b = run_tracking(mini_scenario(), tracking_cfg, tracking_cal)
        assert a.records == b.records
        assert a.aggregates == b.aggregates

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
        bound = crlb(tracking_cal, 1.2, scn.trials_per_window)
        agg = run.aggregates[0]
        assert abs(agg.std_phi_est - bound) / bound < 0.15

    def test_uninformative_windows_flagged_not_fatal(self, tracking_cal, tracking_cfg):
        scn = TrackingScenario(
            phase_schedule=((0.0, 0.2), (0.5, 0.2)), window=0.2,
            repetition_rate=5e4, repeats=2, seed=5, branch=(-0.3, 0.9),
        )
        run = run_tracking(scn, tracking_cfg, tracking_cal)
        flagged = [r for r in run.records if r.phase_index == 0]
        assert all(r.low_information for r in flagged)
        assert len(run.records) == 4


class TestStreams:
    def test_count_streams_unchanged(self):
        key = np.array([42, 5], dtype=np.uint64)
        plain = np.random.Generator(np.random.Philox(key=key)).integers(0, 2**63, size=8)
        assert np.array_equal(_stream(42, 5).integers(0, 2**63, size=8), plain)


class TestCsvAndSummary:
    def test_csv_round_trip(self, tracking_cfg, tracking_cal, tmp_path):
        run = run_tracking(mini_scenario(), tracking_cfg, tracking_cal)
        path = tmp_path / "tracking.csv"
        run.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(run.records)
        first = rows[0]
        assert int(first["n00"]) == run.records[0].counts[0]
        assert float(first["phi_est"]) == pytest.approx(run.records[0].phi_est, abs=1e-11)

    def test_summary_schema(self, tracking_cfg, tracking_cal, tmp_path):
        run = run_tracking(mini_scenario(), tracking_cfg, tracking_cal)
        summary = run.summary_dict()
        assert summary["schema"] == "squint-tracking/1"
        assert summary["trials_per_window"] == 10_000
        assert len(summary["aggregates"]) == 3
        run.to_json(tmp_path / "summary.json")
        assert (tmp_path / "summary.json").exists()


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

    def test_empty_run_rejected(self, tracking_cfg, tracking_cal):
        run = run_tracking(mini_scenario(phase_schedule=()), tracking_cfg, tracking_cal)
        with pytest.raises(ValueError):
            sensitivity_report(run)

    def test_report_dict_fields(self, tracking_cfg, tracking_cal):
        run = run_tracking(mini_scenario(), tracking_cfg, tracking_cal)
        data = sensitivity_report(run).to_dict()
        assert data["trials_per_window"] == 10_000
        assert len(data["rows"]) == 3
        assert data["best_phase"] in [0.5, 0.8, 1.1]
