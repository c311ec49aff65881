import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from squint import cli
from squint.cli import main
from squint.estimation import CalibrationModel
from squint.gaussian import InterferometerConfig
from squint.simkit import TrackingScenario, run_tracking


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def strict_json(path):
    """Parse a file as strict JSON: NaN and +-Infinity are rejected."""

    def reject(token):
        raise ValueError(f"non-finite constant {token} in {path}")

    return json.loads(path.read_text(), parse_constant=reject)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestSweep:
    def test_preset_visibility_printed(self, tmp_path, capsys):
        assert main(["sweep", "--preset", "fig3", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        vis = float(out.split("visibility:")[1].strip())
        assert abs(vis - 0.966) < 2e-3
        rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 361
        assert set(rows[0]) == {"phi", "p00", "p01", "p10", "p11"}

    def test_ideal_default_has_unit_visibility(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path)]) == 0
        vis = float(capsys.readouterr().out.split("visibility:")[1].strip())
        assert vis == pytest.approx(1.0, abs=1e-6)

    def test_visibility_without_a_fringe_is_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"interferometer": {"r1": 0.0, "r2": 0.0}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.endswith("p11 fringe visibility: 0.0000\n")

    def test_single_point_grid_rejected(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path), "--phi-steps", "1"]) == 2

    def test_json_format(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path), "--format", "json"]) == 0
        data = json.loads((tmp_path / "sweep.json").read_text())
        assert data["columns"] == ["phi", "p00", "p01", "p10", "p11"]
        assert len(data["rows"]) == 361


class TestFisher:
    def test_ideal_benchmark_printed(self, tmp_path, capsys):
        assert main(["fisher", "--out", str(tmp_path), "--phi-steps", "41"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("max Fisher per photon:")[1].split("rad")[0])
        assert value == pytest.approx(11.1233, abs=0.02)
        assert "5-photon NOON baseline: 10.0000" in out

    def test_below_threshold_config(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"interferometer": {"r1": 0.59, "r2": 0.59, "eta_h": 0.05, "eta_v": 0.05}},
        )
        assert main(["fisher", "--config", cfg, "--out", str(tmp_path), "--phi-steps", "41"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("max Fisher per photon:")[1].split("rad")[0])
        assert value < 2.0

    def test_fig1b_preset(self, tmp_path, capsys):
        assert main(["fisher", "--preset", "fig1b", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "fisher_fig1b.csv")
        assert len(rows) == 100
        first = rows[0]
        assert float(first["dphi_tm"]) < float(first["dphi_snl"])

    def test_fig3c_preset_increasing(self, tmp_path, capsys):
        assert main(["fisher", "--preset", "fig3c", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "fisher_fig3c.csv")
        vals = [float(r["max_fisher_per_photon"]) for r in rows]
        assert vals[0] == pytest.approx(2 * 4 + 4 * 2 * math.sinh(0.11) ** 2, rel=2e-3)
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 10.0  # exceeds the 5-NOON line at r = 0.59

    def test_double_pass_accounting(self, tmp_path, capsys):
        assert main(
            [
                "fisher", "--out", str(tmp_path), "--phi-steps", "11",
                "--accounting", "double-pass",
            ]
        ) == 0
        out = capsys.readouterr().out
        value = float(out.split("max Fisher per photon:")[1].split("rad")[0])
        assert value == pytest.approx(11.1233 / 2, abs=0.02)


class TestThresholds:
    def test_tables(self, tmp_path, capsys):
        assert main(
            [
                "thresholds", "--preset", "fig1c", "--out", str(tmp_path),
                "--nbar", "0.78", "--noon-max", "6",
            ]
        ) == 0
        tm = read_csv(tmp_path / "thresholds_tm.csv")
        assert len(tm) == 1
        closed = float(tm[0]["eta_tm"])
        numeric = float(tm[0]["eta_tm_numeric"])
        assert closed == pytest.approx(0.094382, abs=1e-5)
        assert abs(numeric - closed) < 1e-3
        noon = read_csv(tmp_path / "thresholds_noon.csv")
        assert [int(r["n_photons"]) for r in noon] == [1, 2, 3, 4, 5, 6]
        assert float(noon[4]["eta_noon"]) == pytest.approx(0.72478, abs=1e-4)

    def test_skip_numeric_column(self, tmp_path, capsys):
        assert main(
            [
                "thresholds", "--out", str(tmp_path), "--nbar", "0.5",
                "--skip-numeric", "--noon-max", "3",
            ]
        ) == 0
        tm = read_csv(tmp_path / "thresholds_tm.csv")
        assert tm[0]["eta_tm_numeric"] == "nan"


class TestStrictJson:
    def test_fisher_json_is_strict(self, tmp_path, capsys):
        assert main(["fisher", "--out", str(tmp_path), "--format", "json"]) == 0
        table = strict_json(tmp_path / "fisher.json")
        assert len(table["rows"]) == 361

    def test_fisher_without_information_written_as_null(self, tmp_path, capsys):
        # no light reaches the detectors: F = 0 and -inf dB at every phase
        dark = {"interferometer": {"r1": 0.5, "r2": 0.5, "eta_h": 0.0, "eta_v": 0.0}}
        cfg = write_config(tmp_path, dark)
        argv = ["fisher", "--config", cfg, "--out", str(tmp_path), "--format", "json", "--phi-steps", "5"]
        assert main(argv) == 0
        table = strict_json(tmp_path / "fisher.json")
        db = table["columns"].index("enhancement_db")
        assert [row[db] for row in table["rows"]] == [None] * 5

    def test_skipped_numeric_threshold_written_as_null(self, tmp_path, capsys):
        argv = ["thresholds", "--out", str(tmp_path), "--nbar", "0.5", "--skip-numeric", "--format", "json"]
        assert main(argv) == 0
        table = strict_json(tmp_path / "thresholds_tm.json")
        assert table["rows"][0][2] is None
        strict_json(tmp_path / "thresholds_noon.json")


TRACK_PAYLOAD = {
    "interferometer": {"r1": 0.43, "r2": 0.43, "eta_h": 0.75, "eta_v": 0.75, "overlap": 0.986},
    "scenario": {
        "phase_schedule": [[0.5, 0.4], [0.8, 0.2], [1.1, 0.2]],
        "window": 0.2,
        "repetition_rate": 5e4,
        "repeats": 4,
        "seed": 9,
    },
}


@pytest.fixture(scope="module")
def track_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("track")
    cfg = write_config(out, TRACK_PAYLOAD)
    assert main(["track", "--config", cfg, "--seed", "9", "--out", str(out)]) == 0
    return out


class TestTrackAndEstimate:
    def test_track_outputs(self, track_dir):
        rows = read_csv(track_dir / "tracking.csv")
        assert len(rows) == 16
        summary = json.loads((track_dir / "tracking_summary.json").read_text())
        assert summary["schema"] == "squint-tracking/1"
        assert summary["trials_per_window"] == 10000
        sens = json.loads((track_dir / "sensitivity.json").read_text())
        assert len(sens["rows"]) == 3
        cal = strict_json(track_dir / "calibration.json")
        assert set(cal) == {"schema", "config", "fit_residual", "degraded", "sigma"}
        assert cal["schema"] == "squint-calibration/3"

    def test_tracking_csv_holds_the_records(self, track_dir):
        cfg = InterferometerConfig(**TRACK_PAYLOAD["interferometer"])
        scenario = TrackingScenario(**TRACK_PAYLOAD["scenario"])
        rec = run_tracking(scenario, cfg, CalibrationModel.from_config(cfg)).records
        with open(track_dir / "tracking.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == [
            "repeat", "window_index", "phase_index", "phi_set",
            "n00", "n01", "n10", "n11", "phi_est", "low_information",
        ]
        assert len(rows) == len(rec)
        for name in ("repeat", "window_index", "phase_index"):
            assert [int(row[name]) for row in rows] == rec[name].tolist()
        counts = [[int(row[k]) for k in ("n00", "n01", "n10", "n11")] for row in rows]
        assert np.array_equal(counts, rec.counts)
        assert [float(row["phi_set"]) for row in rows] == rec.phi_set.tolist()
        assert np.allclose([float(row["phi_est"]) for row in rows], rec.phi_est, rtol=1e-11, atol=0)
        assert [row["low_information"] for row in rows] == [str(int(low)) for low in rec.low_information]

    def test_estimate_round_trip(self, track_dir, tmp_path):
        summary = json.loads((track_dir / "tracking_summary.json").read_text())
        lo, hi = summary["branch"]
        assert main(
            [
                "estimate",
                "--counts", str(track_dir / "tracking.csv"),
                "--calibration", str(track_dir / "calibration.json"),
                "--branch-lo", str(lo), "--branch-hi", str(hi),
                "--out", str(tmp_path),
            ]
        ) == 0
        track_rows = read_csv(track_dir / "tracking.csv")
        est_rows = read_csv(tmp_path / "estimates.csv")
        assert len(est_rows) == len(track_rows)
        for t, e in zip(track_rows, est_rows):
            assert t["phi_est"] == e["phi_est"]

    def test_invalid_calibration_is_config_error(self, track_dir, tmp_path, capsys):
        data = json.loads((track_dir / "calibration.json").read_text())
        data["config"]["eta_h"] = 1.7
        bad = write_config(tmp_path, data, name="bad_calibration.json")
        argv = [
            "estimate", "--counts", str(track_dir / "tracking.csv"), "--calibration", bad,
            "--branch-lo", "0.4", "--branch-hi", "1.2", "--out", str(tmp_path),
        ]
        assert main(argv) == 2

    def test_tabulated_calibration_is_config_error(self, track_dir, tmp_path, capsys):
        # a file in the earlier format, whose curves the model now derives from its config
        data = json.loads((track_dir / "calibration.json").read_text())
        curves = CalibrationModel.from_dict(data).curves
        data.update(schema="squint-calibration/2", tabulation={"phi_min": 0.0, "phi_max": math.pi, "points": 2049},
                    curves=dict(zip(("p00", "p01", "p10", "p11"), curves.T.tolist())))
        argv = self.estimate_argv(track_dir, tmp_path, track_dir / "tracking.csv")
        argv[argv.index("--calibration") + 1] = write_config(tmp_path, data, name="old_calibration.json")
        assert main(argv) == 2
        assert "squint-calibration/2" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("fit_residual", -1.0), ("fit_residual", math.nan), ("degraded", "no"),
                                              ("sigma", {"r": 0.01})])
    def test_non_strict_calibration_is_config_error(self, track_dir, tmp_path, capsys, field, value):
        # json.dumps writes math.nan as the NaN token, which strict JSON lacks; a
        # sigma of one fitted name ran at exit 0
        data = json.loads((track_dir / "calibration.json").read_text())
        data[field] = value
        bad = write_config(tmp_path, data, name="bad_calibration.json")
        argv = [
            "estimate", "--counts", str(track_dir / "tracking.csv"), "--calibration", bad,
            "--branch-lo", "0.4", "--branch-hi", "1.2", "--out", str(tmp_path),
        ]
        assert main(argv) == 2
        assert "invalid calibration file" in capsys.readouterr().err

    @staticmethod
    def estimate_argv(track_dir, tmp_path, counts):
        return [
            "estimate", "--counts", str(counts), "--calibration", str(track_dir / "calibration.json"),
            "--branch-lo", "0.4", "--branch-hi", "1.2", "--out", str(tmp_path),
        ]

    def test_missing_counts_file_is_config_error(self, track_dir, tmp_path, capsys):
        # an OSError names the file itself, and main maps it to exit 2
        missing = tmp_path / "missing.csv"
        assert main(self.estimate_argv(track_dir, tmp_path, missing)) == 2
        assert capsys.readouterr().err == f"config error: [Errno 2] No such file or directory: '{missing}'\n"

    @pytest.mark.parametrize("row", [
        "0,9000,400,500,12x", "0,9000,400,500", "0,9000,400,500,-12",
        # csv.Error, not a ValueError: a traceback, exit 1
        pytest.param("0,9000,400,500," + "1" * 200_000, id="field-past-the-csv-limit"),
    ])
    def test_malformed_count_is_config_error(self, track_dir, tmp_path, capsys, row):
        counts = tmp_path / "counts.csv"
        counts.write_text(f"window_index,n00,n01,n10,n11\n{row}\n")
        assert main(self.estimate_argv(track_dir, tmp_path, counts)) == 2
        assert "counts file" in capsys.readouterr().err

    def test_header_past_the_csv_limit_is_config_error(self, track_dir, tmp_path, capsys):
        # the header was read outside the row wrapper: csv.Error, a traceback, exit 1
        counts = tmp_path / "counts.csv"
        counts.write_text(f"window_index,n00,n01,n10,n11,{'x' * 200_000}\n0,9000,400,500,100,0\n")
        assert main(self.estimate_argv(track_dir, tmp_path, counts)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed counts file ") and "field limit" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("row", ["0,4503599627370496,4503599627370496,0,0", "0,18446744073709551616,0,0,0"])
    def test_window_total_past_2_53_is_config_error(self, track_dir, tmp_path, capsys, row):
        # a total of 2^53 or more is not held exactly as a float; both ran at exit 0
        counts = tmp_path / "counts.csv"
        counts.write_text(f"window_index,n00,n01,n10,n11\n{row}\n")
        assert main(self.estimate_argv(track_dir, tmp_path, counts)) == 2
        assert "2**53" in capsys.readouterr().err
        assert not (tmp_path / "estimates.csv").exists()

    @pytest.mark.parametrize("text", ["window_index,n00,n01,n10\n0,9000,400,500\n", ""])
    def test_counts_file_needs_the_count_columns(self, track_dir, tmp_path, capsys, text):
        counts = tmp_path / "counts.csv"
        counts.write_text(text)
        assert main(self.estimate_argv(track_dir, tmp_path, counts)) == 2
        assert "counts file must have columns" in capsys.readouterr().err

    def test_tracking_outputs_are_strict(self, tmp_path, capsys):
        # one repeat: each phase has a single estimate, so no spread: std, dphi and enhancement are null
        payload = {
            "interferometer": {"r1": 0.43, "r2": 0.43, "eta_h": 0.75, "eta_v": 0.75},
            "scenario": {
                "phase_schedule": [[0.5, 0.2], [0.8, 0.2]],
                "window": 0.2,
                "repetition_rate": 5e4,
                "repeats": 1,
            },
        }
        cfg = write_config(tmp_path, payload)
        assert main(["track", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = strict_json(tmp_path / "tracking_summary.json")
        assert [agg["std_phi_est"] for agg in summary["aggregates"]] == [None, None]
        sens = strict_json(tmp_path / "sensitivity.json")
        assert [(row["dphi"], row["enhancement_db"]) for row in sens["rows"]] == [(None, None)] * 2
        assert sens["best_phase"] is None

    def test_track_needs_scenario(self, tmp_path):
        cfg = write_config(tmp_path, {"interferometer": {"r1": 0.3, "r2": 0.3}})
        assert main(["track", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestValidate:
    def test_quick_pass(self, tmp_path, capsys):
        code = main(
            [
                "validate", "--out", str(tmp_path), "--phi-steps", "5",
                "--budget", "1e-4", "--tol", "1e-3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "overall max |delta p|" in out
        rows = read_csv(tmp_path / "validate.csv")
        assert len(rows) == 4

    def test_tolerance_violation_exits_3(self, tmp_path, capsys):
        code = main(
            [
                "validate", "--out", str(tmp_path), "--phi-steps", "3",
                "--budget", "1e-4", "--tol", "1e-18",
            ]
        )
        assert code == 3


ESTIMATE_INPUTS = ["--counts", "n.csv", "--calibration", "c.json", "--branch-lo", "0.4", "--branch-hi", "1.2"]


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        for key in ("gain", "snl_per_photon"):
            cfg = write_config(tmp_path, {"interferometer": {"r1": 0.3, "r2": 0.3, key: 2}})
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
            assert key in capsys.readouterr().err
        payload = {"interferometer": {"r1": 0.3, "r2": 0.3},
                   "scenario": {"phase_schedule": [[0.5, 0.2]], "repetition_rate": 5e4, "pulses": 3}}
        assert main(["track", "--config", write_config(tmp_path, payload), "--out", str(tmp_path)]) == 2
        assert "pulses" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            5,
            {"interferometer": 5},
            {"interferometer": {"r1": 0.3, "r2": 0.3}, "scenario": 5},
            {"interferometer": {"r1": 0.3, "r2": 0.3}, "scenario": {"phase_schedule": 3}},
        ],
    )
    def test_malformed_structure_rejected(self, tmp_path, capsys, payload):
        assert main(["track", "--config", write_config(tmp_path, payload), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("section, values", [
        ("interferometer", {"r1": True, "r2": True}),  # ran at r1 = r2 = 1.0
        ("scenario", {"phase_schedule": [[True, 0.2]]}),  # ran at phase 1.0
        ("scenario", {"branch_margin": 0.1}),  # the margin is fixed; "branch" sets any other branch
        # 1e316 windows: the count overflowed to inf and ended in a traceback, exit 1
        ("scenario", {"phase_schedule": [[0.5, 1e308]], "window": 1e-8, "repetition_rate": 1e8, "repeats": 1}),
        # 1e300 windows: "numerical failure: Python int too large to convert to C long", exit 4
        ("scenario", {"phase_schedule": [[0.5, 1e300]], "window": 1, "repetition_rate": 10}),
    ])
    def test_refused_section_values(self, tmp_path, capsys, section, values):
        payload = {"interferometer": {"r1": 0.3, "r2": 0.3},
                   "scenario": {"phase_schedule": [[0.5, 0.2]], "repetition_rate": 5e4}}
        payload[section].update(values)
        assert main(["track", "--config", write_config(tmp_path, payload), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: invalid {section} section: ")

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--config", "{not_json}"], "config file is not valid JSON"),
        # the strict reader of calibration files: NaN ran into the config's own check
        (["sweep", "--config", "{nan}"], "config file is not valid JSON: NaN is not strict JSON"),
        (["fisher", "--config", "{scenario_only}"], "config file lacks the keys ['interferometer']"),
        (["sweep", "--phi-min", "2", "--phi-max", "1"], "phase grid must satisfy"),
        (["track"], "track needs --preset fig4 or --config"),
        # Philox keys on the seed's 64-bit word: seed -1 ran as 2**64 - 1, and 2**64 as 0
        (["track", "--preset", "fig4", "--seed", "-1"], f"seed must be in [0, {2**64 - 1}], got -1"),
        (["track", "--preset", "fig4", "--seed", str(2**64)], f"seed must be in [0, {2**64 - 1}]"),
        (["track", "--config", "{tracking}", "--seed", str(2**64)], f"seed must be in [0, {2**64 - 1}]"),
    ])
    def test_refused_invocation(self, tmp_path, capsys, argv, message):
        scenario = {"phase_schedule": [[0.5, 0.2]], "repetition_rate": 5e4}
        files = {"not_json": '{"interferometer": ', "nan": '{"interferometer": {"r1": NaN, "r2": 0.3}}',
                 "scenario_only": json.dumps({"scenario": scenario}),
                 "tracking": json.dumps({"interferometer": {"r1": 0.3, "r2": 0.3}, "scenario": scenario})}
        for name, text in files.items():
            (tmp_path / f"{name}.json").write_text(text)
        argv = [arg.format(**{name: str(tmp_path / f"{name}.json") for name in files}) for arg in argv]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and err.count("\n") == 1
        assert not out.exists()

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"laser": {}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("name", ["nope.json", "a_directory"])
    def test_unreadable_file_rejected(self, tmp_path, capsys, name):
        # a directory raised IsADirectoryError: a traceback, exit 1
        (tmp_path / "a_directory").mkdir()
        assert main(["sweep", "--config", str(tmp_path / name), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["sweep", "--phi-steps", "3"],
        ["validate", "--phi-steps", "3", "--budget", "1e-3", "--tol", "1"],
        ["thresholds", "--nbar", "0.5", "--skip-numeric", "--noon-max", "2"],
    ])
    def test_out_naming_a_file_rejected(self, tmp_path, capsys, argv):
        # mkdir raised FileExistsError: a traceback, exit 1
        out = tmp_path / "out"
        out.write_text("")
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out) in err and err.count("\n") == 1

    def test_preset_and_config_conflict(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"interferometer": {"r1": 0.3, "r2": 0.3}})
        assert main(["sweep", "--preset", "fig3", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv", [["fisher", "--preset", "fig1b"], ["track", "--preset", "fig4"]])
    def test_preset_and_config_conflict_on_every_command(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, {"interferometer": {"r1": 0.3, "r2": 0.3}})
        assert main([*argv, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_invalid_parameter_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"interferometer": {"r1": -0.3, "r2": 0.3}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_seed_only_on_track(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--seed", "3", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_unknown_preset_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "fig9", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["thresholds", "--config", "c.json"],
            ["estimate", *ESTIMATE_INPUTS, "--config", "c.json"],
            ["estimate", *ESTIMATE_INPUTS, "--preset", "fig4"],
            ["validate", "--config", "c.json"],
            ["validate", "--preset", "fig3"],
            ["track", "--preset", "fig4", "--format", "json"],
        ],
    )
    def test_flag_not_read_is_rejected(self, tmp_path, capsys, argv):
        # each command declares only the flags it reads
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_validate_grid_needs_two_points(self, tmp_path, capsys, steps):
        assert main(["validate", "--phi-steps", steps, "--out", str(tmp_path)]) == 2
        assert "--phi-steps must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("skip", [["--skip-numeric"], []])
    @pytest.mark.parametrize("nbar", ["-1", "nan", "inf"])
    def test_mean_photon_number_must_be_finite_and_nonnegative(self, tmp_path, capsys, nbar, skip):
        assert main(["thresholds", "--nbar", "0.5", nbar, *skip, "--out", str(tmp_path)]) == 2
        assert "finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "thresholds_tm.csv").exists()

    @pytest.mark.parametrize("noon_max", ["0", "-3"])
    def test_noon_max_must_be_positive(self, tmp_path, capsys, noon_max):
        # an empty NOON table was written, with exit 0
        assert main(["thresholds", "--skip-numeric", "--noon-max", noon_max, "--out", str(tmp_path)]) == 2
        assert "--noon-max must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags",
        [["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"], ["--tol=-1e-6"],
         ["--budget", "nan"], ["--budget", "inf"], ["--budget", "0"], ["--budget", "-1"]],
    )
    def test_validate_budget_and_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, flags):
        argv = ["validate", "--phi-steps", "3", "--budget", "1e-4", "--tol", "1e-3", *flags]
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert "must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "validate.csv").exists()

    @pytest.mark.parametrize("key, value", [("repeats", 2.5), ("seed", 1.5), ("repeats", "2"), ("repeats", True),
                                            ("seed", False)])
    def test_non_integer_scenario_count_rejected(self, tmp_path, capsys, key, value):
        payload = {
            "interferometer": {"r1": 0.43, "r2": 0.43},
            "scenario": {"phase_schedule": [[0.5, 0.2]], "repetition_rate": 5e4, "repeats": 2, key: value},
        }
        out = tmp_path / "out"
        assert main(["track", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{key} must be an integer" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("branch", [[1.0, 0.5], [0.0, 2.0], [0.3], [], [0.3, 0.9, 5]])
    def test_invalid_scenario_branch_rejected(self, tmp_path, capsys, branch):
        payload = {
            "interferometer": {"r1": 0.43, "r2": 0.43},
            "scenario": {"phase_schedule": [[0.5, 0.2]], "repetition_rate": 5e4, "repeats": 1, "branch": branch},
        }
        assert main(["track", "--config", write_config(tmp_path, payload), "--out", str(tmp_path)]) == 2
        assert "invalid scenario section" in capsys.readouterr().err

    def test_window_without_trials_rejected(self, tmp_path, capsys):
        payload = {
            "interferometer": {"r1": 0.43, "r2": 0.43},
            "scenario": {"phase_schedule": [[0.5, 0.2]], "window": 0.2, "repetition_rate": 1.0},
        }
        assert main(["track", "--config", write_config(tmp_path, payload), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "no trials per window" in err and err.count("\n") == 1

    @pytest.mark.parametrize("schedule", [[], [[0.5, 0.0]], [[0.5, 0.0], [0.8, 0.0]]])
    def test_schedule_without_windows_rejected(self, tmp_path, capsys, schedule):
        # rejected before the output directory is made, so no file is written
        payload = {"interferometer": {"r1": 0.43, "r2": 0.43},
                   "scenario": {"phase_schedule": schedule, "repetition_rate": 5e4}}
        out = tmp_path / "out"
        assert main(["track", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "at least one window" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fisher", "track"])
    def test_per_photon_reports_need_squeezing(self, tmp_path, capsys, command):
        # at r1 = 0 no photons pass the sample: F and the SNL per photon are undefined
        payload = {
            "interferometer": {"r1": 0.0, "r2": 0.0},
            "scenario": {"phase_schedule": [[0.5, 0.2]], "window": 0.2, "repetition_rate": 5e4, "repeats": 2},
        }
        argv = [command, "--config", write_config(tmp_path, payload), "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "r1 = 0" in err and err.count("\n") == 1

    def test_zero_mean_photon_number_needs_skip_numeric(self, tmp_path, capsys):
        assert main(["thresholds", "--nbar", "0", "--out", str(tmp_path)]) == 2
        assert "numeric threshold" in capsys.readouterr().err
        assert main(["thresholds", "--nbar", "0", "--skip-numeric", "--out", str(tmp_path)]) == 0
        assert read_csv(tmp_path / "thresholds_tm.csv")[0]["eta_tm"] == "0.133974596216"

    def test_wide_estimate_branch_rejected(self, tmp_path, capsys):
        (tmp_path / "cal.json").write_text("{}")
        code = main(
            [
                "estimate", "--counts", str(tmp_path / "missing.csv"),
                "--calibration", str(tmp_path / "cal.json"),
                "--branch-lo", "0", "--branch-hi", "2.0",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "half period" in capsys.readouterr().err

    def test_library_value_error_is_config_error(self, tmp_path, capsys, monkeypatch):
        # a plain ValueError from the library is a refused input, not a numerical failure
        def refuse(cfg, phis):
            raise ValueError("refused by the library")

        monkeypatch.setattr(cli, "fringe", refuse)
        assert main(["sweep", "--phi-steps", "3", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: refused by the library\n"

    @pytest.mark.parametrize("command, r", [
        ("sweep", 400.0),
        # an OverflowError from sinh(r1)^2 and from cosh(r1) ended in a traceback, exit 1
        ("fisher", 356.0),
        ("sweep", 711.0),
    ])
    def test_invalid_state_is_numerical_failure(self, tmp_path, capsys, command, r):
        # InvalidStateError is a ValueError too: its except clause must come first
        cfg = write_config(tmp_path, {"interferometer": {"r1": r, "r2": r}})
        with np.errstate(all="ignore"):
            code = main([command, "--config", cfg, "--phi-steps", "3", "--out", str(tmp_path)])
        assert code == 4
        assert capsys.readouterr().err.startswith("numerical failure: ")

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # no cutoff up to n_max = 400 meets a 1e-300 truncation budget
        code = main(["validate", "--budget", "1e-300", "--phi-steps", "3", "--out", str(tmp_path)])
        assert code == 4
        assert "no feasible cutoff" in capsys.readouterr().err


def test_the_package_imports_only_numpy_and_the_stdlib():
    # src/ stays numpy-only. A fresh interpreter, as this one has loaded the test
    # tools; the modules that site's .pth files load come before ``before``
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import json, sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
            "import squint.cli, squint.fock; "
            "print(json.dumps(sorted({name.partition('.')[0] for name in sys.modules.keys() - before})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    new = set(json.loads(proc.stdout))
    assert {"numpy", "squint"} <= new
    assert new - sys.stdlib_module_names <= {"numpy", "squint"}


def test_calibrate_and_the_oracle_leave_numpy_ma_unloaded():
    # the first np.unique call of a process imports numpy.ma, 15-20 ms
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import numpy as np; "
            "from squint import InterferometerConfig, calibrate, fringe, simulate_fock; "
            "cfg = InterferometerConfig(r1=0.3, r2=0.3); phis = np.linspace(0.1, 3.0, 8); "
            "calibrate([(p, np.rint(q * 1e6)) for p, q in zip(phis, fringe(cfg, phis))], cfg); "
            "simulate_fock(cfg, [0.3]); print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
