"""Child process of the benchmark: a traced CLI command or the tracking experiment.

    python3 perfbench/worker.py cli RESULT.json -- <squint arguments>
    python3 perfbench/worker.py tracking RESULT.json --seed N [--trace]

``cli`` runs ``squint.cli.main`` under the tracer (the untraced benchmark runs
``python3 -m squint.cli`` instead, as a user would). ``tracking`` runs the live
experiment on the tracking preset and times each step. Both write RESULT.json;
the parent checks the outputs. Run from the repository root with ``src`` on
PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

# Synthetic fringe scan for calibrate: phases over most of a period and the
# trials per phase, as in the calibration round-trip test.
SCAN_PHASES = np.linspace(0.1, 3.0, 16)
SCAN_TRIALS = 10_000_000
# Fixed offsets of the initial guess from the true parameters.
GUESS_OFFSETS = {"r1": 0.03, "r2": -0.02, "eta_h": 0.04, "eta_v": -0.03, "overlap": 0.004, "phase_offset": 0.02}
BOOTSTRAP_WINDOWS = 3
BOOTSTRAP_RESAMPLES = 200


def _config_dict(cfg) -> dict:
    return {k: float(v) for k, v in asdict(cfg).items()}


def run_cli(result_path: str, argv: list[str]) -> int:
    import squint.cli

    from spans import install

    tracer = install()
    code = squint.cli.main(argv)
    Path(result_path).write_text(json.dumps({"trace": tracer.snapshot()}))
    return code


def run_tracking_experiment(result_path: str, seed: int, traced: bool) -> int:
    out_dir = Path(result_path).parent
    import squint
    from squint import estimation, presets, simkit

    tracer = None
    if traced:
        from spans import install

        tracer = install()
    t0 = time.perf_counter()
    cfg = presets.tracking_config()
    preset_s = time.perf_counter() - t0

    rng = np.random.default_rng([seed, 1])
    probs = squint.fringe(cfg, SCAN_PHASES)
    samples = [(float(p), rng.multinomial(SCAN_TRIALS, pr)) for p, pr in zip(SCAN_PHASES, probs)]
    guess = cfg.with_updates(**{k: getattr(cfg, k) + d for k, d in GUESS_OFFSETS.items()})
    scenario = presets.fig4_scenario(seed=seed)
    ops = {}

    def timed(name, fn, *args, **kwargs):
        t = time.perf_counter()
        value = fn(*args, **kwargs)
        ops[name] = time.perf_counter() - t
        return value

    fitted = timed("calibrate", estimation.calibrate, samples, guess)

    def round_trip(model):
        path = out_dir / "calibration.json"
        model.to_json(path)
        return estimation.CalibrationModel.from_json(path)

    loaded = timed("calibration_json", round_trip, fitted)
    cal = timed("calibration_table", estimation.CalibrationModel.from_config, cfg)
    run = timed("run_tracking", simkit.run_tracking, scenario, cfg, cal)

    branch = scenario.resolved_branch()
    trials = scenario.trials_per_window
    latencies, reestimates = [], []
    for rec in run.records:
        t = time.perf_counter()
        est = estimation.estimate_phase(rec.counts, cal, branch, trials=trials)
        latencies.append(time.perf_counter() - t)
        reestimates.append(est.phi_est)

    report = timed("sensitivity_report", simkit.sensitivity_report, run)

    picks = np.random.default_rng([seed, 2]).choice(len(run.records), BOOTSTRAP_WINDOWS, replace=False)
    boot, boot_s = [], []
    for k in picks:
        rec = run.records[int(k)]
        sigma = timed("bootstrap", estimation.bootstrap_sigma, rec.counts, cal, branch,
                      resamples=BOOTSTRAP_RESAMPLES, seed=seed * 1000 + int(k))
        boot.append([rec.phi_set, sigma])
        boot_s.append(ops.pop("bootstrap"))

    np.save(out_dir / "curves.npy", cal.curves)
    np.save(out_dir / "phi_tab.npy", cal.phi_tab)
    result = {
        "preset_s": preset_s,
        "ops": ops,
        "latencies": latencies,
        "truth": _config_dict(cfg),
        "fitted": _config_dict(fitted.config),
        "degraded": fitted.degraded,
        "round_trip_equal": bool(
            loaded.config == fitted.config
            and np.array_equal(loaded.curves, fitted.curves)
            and loaded.fit_residual == fitted.fit_residual
            and loaded.degraded == fitted.degraded
        ),
        "trials_per_window": trials,
        "phi_set": [rec.phi_set for rec in run.records],
        "phi_est": [rec.phi_est for rec in run.records],
        "reestimates": reestimates,
        "sensitivity": [[r.phi_set, r.dphi, r.crlb, r.snl_dphi, r.enhancement_db] for r in report.rows],
        "bootstrap": boot,
        "bootstrap_s": boot_s,
        "trace": tracer.snapshot() if tracer else None,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


def main(argv: list[str]) -> int:
    mode, result_path, rest = argv[0], argv[1], argv[2:]
    if mode == "cli":
        return run_cli(result_path, rest[1:] if rest[:1] == ["--"] else rest)
    if mode == "tracking":
        seed = int(rest[rest.index("--seed") + 1])
        return run_tracking_experiment(result_path, seed, "--trace" in rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
