"""Check the bits of the click path and its consumers against a revision, and time both trees in one process.

Usage: python tests/ab_timing.py --base REV [--rounds K] [--windows W]

The script extracts REV with ``git archive REV | tar -x`` (the helper of
``preset_outputs.py``) into a temporary directory and loads both trees'
``squint`` packages in this process, as ``squint_base`` and ``squint_head``.

It first checks that the two trees give the same bits: p and dp/dphi of
``clicks`` on fixed random configs (a 300-phase batch and three one-phase
calls each), the counts of the fig4 replay (seed 0), ``phi_est``,
``objective_value`` and ``low_information`` of one ``estimate_phases`` batch
on those windows and of the one-window ``estimate_phase`` on the first W of
them, and the same three, from one batch and from ``estimate_phase`` one
window at a time, of as many far windows (uniform random counts, a fixed
seed), which have the longest shortlists, and of the windows at and next to
the stationary points phi = -phase_offset and pi/2 - phase_offset, where the
low-information flag fires and where it just does not, so that it calls
``fisher`` (on the tracking preset, and with its offset moved to put the
stationary points inside a segment of the calibration grid; counts on the
true and on the interpolated curves, totals from 10^2 to 2^53 - 1),
``bootstrap_sigma`` (200 resamples) of the first three windows,
``calibrate`` on perfbench's scan of the tracking preset (the constants of
``perfbench/worker.py``, seed 0): the fitted config, ``fit_residual``, ``degraded`` and ``sigma``, and (phi*, F*)
of ``max_fisher`` on the lossless config r1 = r2 = 0.59, the call shape that
dominates the ``figures`` commands. Where they differ it prints how many
values differ and the largest absolute and relative change, and the script
exits 1 after the timings.

Then it times, in K rounds (default 10), one-phase ``clicks``, one-phase
``fisher``, a one-window ``estimate_phase`` over the first W fig4 windows
(default 200), 2049-phase ``clicks``, ``estimate_phases`` on all 2200 fig4
windows and on as many far windows, a 200-resample ``bootstrap_sigma``, that
``calibrate`` and that ``max_fisher``, each by ``time.process_time``. A round
times each row on both sides in turn, and the side that goes first alternates
by round. For each row it prints both sides' median per call, the median and
quartiles of the per-round ratio this tree / base, and each side's median
``ru_minflt`` page faults per call.

Exit codes: 0 when every value is bitwise equal; 1 when one differs; 2 for a
usage error or a REV that cannot be extracted.
"""

import argparse
import importlib.util
import math
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from preset_outputs import ROOT, _extract

sys.path.append(str(ROOT / "perfbench"))
from worker import GUESS_OFFSETS, SCAN_PHASES, SCAN_TRIALS  # noqa: E402

SIDES = ("base", "head")
# random configs of the bit check, the seed and the largest count of its far
# windows, the resamples of a bootstrap, and the repeats per round of each row
CONFIGS = 40
FAR_SEED, FAR_COUNT = 3, 10**6
RESAMPLES = 200
# the stationary windows: steps from the stationary point, totals of counts,
# and the moved offset's place on the calibration grid (node steps of pi/2048)
STEPS = (0.0, 1e-9, -1e-6, 1e-4, -1e-2)
TOTALS = (100, 10**4, 10**7, 10**10, 10**13, 2**53 - 1)
MOVED_OFFSET = -1000.3 * math.pi / 2048
REPEATS = {"clicks, 1 phase": 200, "fisher, 1 phase": 200, "clicks, 2049 phases": 5,
           "estimate_phases, 2200 windows": 2, "estimate_phases, 2200 far windows": 2,
           "bootstrap_sigma, 200 resamples": 5, "calibrate, 16 phases": 1,
           "max_fisher, r 0.59": 2}
# the config of the max_fisher row
MAX_FISHER = {"r1": 0.59, "r2": 0.59}


def load(name: str, src: Path):
    """The ``squint`` package under ``src`` imported as ``name``, with its presets."""
    spec = importlib.util.spec_from_file_location(name, src / "squint" / "__init__.py",
                                                  submodule_search_locations=[str(src / "squint")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.presets")
    return module


def random_configs(pkg) -> list:
    """Fixed configs over the model's range, with every efficiency, squeezing
    and overlap also at its ends."""
    rng = np.random.default_rng(20240)
    ends = {"r1": (0.0,), "r2": (0.0,), "eta_h": (0.0, 1.0), "eta_v": (0.0, 1.0), "eta_internal": (1.0,),
            "overlap": (1.0,)}
    configs = []
    for _ in range(CONFIGS):
        fields = {"r1": rng.uniform(0, 1), "r2": rng.uniform(0, 1), "eta_h": rng.uniform(0, 1),
                  "eta_v": rng.uniform(0, 1), "eta_internal": rng.uniform(0.3, 1), "overlap": rng.uniform(0.5, 1),
                  "phase_offset": rng.uniform(-math.pi, math.pi)}
        for name, values in ends.items():
            if rng.uniform() < 0.2:
                fields[name] = float(rng.choice(values))
        configs.append(pkg.InterferometerConfig(**fields))
    return configs


def difference(label: str, old, new) -> str | None:
    """None when two arrays hold the same bits, else how they differ."""
    old, new = np.asarray(old), np.asarray(new)
    if old.shape == new.shape and old.dtype == new.dtype and old.tobytes() == new.tobytes():
        return None
    if old.shape != new.shape:
        return f"{label}: shape {old.shape} -> {new.shape}"
    a, b = old.astype(float).ravel(), new.astype(float).ravel()
    changed = (a != b) & ~(np.isnan(a) & np.isnan(b)) | (np.signbit(a) != np.signbit(b))
    delta = np.abs(b - a)[changed]
    scale = np.maximum(np.abs(a), np.abs(b))[changed]
    relative = np.divide(delta, scale, out=np.zeros_like(delta), where=scale > 0)
    return (f"{label}: {changed.sum()} of {a.size} values differ, largest absolute change "
            f"{delta.max(initial=0.0):.3g}, largest relative change {relative.max(initial=0.0):.3g}")


def fig4_windows(pkg):
    """The tracking preset's config, its calibration model, the fig4 branch and
    trials per window, and the fig4 replay's counts (W, 4)."""
    cfg = pkg.presets.tracking_config()
    cal = pkg.CalibrationModel(cfg)
    scenario = pkg.presets.fig4_scenario(seed=0)
    counts = pkg.run_tracking(scenario, cfg, cal).records.counts
    return cfg, cal, scenario.resolved_branch(), scenario.trials_per_window, counts


def stationary_windows(pkg, cfg) -> list:
    """Per stationary point of ``cfg``, the arguments of ``estimate_phases``:
    the counts (windows, 4) at and next to it, each window's total exact, the
    calibration model of ``cfg`` and a branch about the point."""
    cal = pkg.CalibrationModel(cfg)
    out = []
    for stationary in (-cfg.phase_offset, 0.5 * math.pi - cfg.phase_offset):
        phis = stationary + np.array(STEPS)
        counts = []
        for probs in np.concatenate([pkg.fringe(cfg, phis), cal.probabilities(phis)]):
            for total in TOTALS:
                row = [int(v) for v in np.floor(probs * total)]
                row[row.index(max(row))] += total - sum(row)
                counts.append(row)
        out.append((np.array(counts, dtype=float), cal, (stationary - 0.25 * math.pi, stationary + 0.25 * math.pi)))
    return out


def calibration_scan(pkg):
    """The samples and the initial guess of perfbench's ``calibrate`` on the tracking preset, seed 0."""
    cfg = pkg.presets.tracking_config()
    rng = np.random.default_rng([0, 1])
    samples = [(float(p), rng.multinomial(SCAN_TRIALS, pr)) for p, pr in zip(SCAN_PHASES, pkg.fringe(cfg, SCAN_PHASES))]
    return samples, cfg.with_updates(**{k: getattr(cfg, k) + d for k, d in GUESS_OFFSETS.items()})


def far_windows(counts) -> np.ndarray:
    """Uniform random counts of the shape of ``counts``, from a fixed seed: far
    from the curves, so they have the longest shortlists."""
    return np.random.default_rng(FAR_SEED).integers(0, FAR_COUNT, size=counts.shape)


def one_by_one(pkg, counts, cal, branch, trials: int = 0) -> list:
    """``phi_est``, ``objective_value`` and ``low_information`` of the one-window
    ``estimate_phase`` on each row of ``counts``, as three lists."""
    one = [pkg.estimate_phase(row, cal, branch, trials=trials) for row in counts]
    return [[e.phi_est for e in one], [e.objective_value for e in one], [e.low_information for e in one]]


def bit_check(pkgs: dict, windows: dict, n_windows: int) -> list[str]:
    """Every difference between the trees' values, as lines."""
    out = {}
    for side, pkg in pkgs.items():
        values = []
        for cfg in random_configs(pkg):
            phis = np.random.default_rng(7).uniform(-2 * math.pi, 2 * math.pi, 300)
            values += pkg.clicks(cfg, phis)
            for phi in phis[:3]:
                values += pkg.clicks(cfg, [phi])
        _, cal, branch, trials, counts = windows[side]
        values.append(counts)
        values += one_by_one(pkg, counts[:n_windows], cal, branch, trials)
        values += pkg.estimate_phases(counts, cal, branch)
        far = far_windows(counts)
        values += pkg.estimate_phases(far, cal, branch)
        values += one_by_one(pkg, far, cal, branch)
        cfg = pkg.presets.tracking_config()
        for model in (cfg, cfg.with_updates(phase_offset=MOVED_OFFSET)):
            for arguments in stationary_windows(pkg, model):
                values += pkg.estimate_phases(*arguments)
                values += one_by_one(pkg, *arguments)
        values.append([pkg.bootstrap_sigma(row, cal, branch, RESAMPLES, seed=k) for k, row in enumerate(counts[:3])])
        fit = pkg.calibrate(*calibration_scan(pkg))
        values += [list(vars(fit.config).values()), [fit.fit_residual], [fit.degraded],
                   [math.nan if v is None else v for v in fit.sigma.values()]]
        values.append(pkg.max_fisher(pkg.InterferometerConfig(**MAX_FISHER)))
        out[side] = values
    labels = [f"config {k} {name}" for k in range(CONFIGS)
              for name in ("batch p", "batch dp", *("one-phase p", "one-phase dp") * 3)]
    labels.append("fig4 replay counts")
    labels += [f"estimate_phase {f}" for f in ("phi_est", "objective_value", "low_information")]
    labels += [f"estimate_phases {f}" for f in ("phi_est", "objective_value", "low_information")]
    labels += [f"far windows, {call} {f}" for call in ("estimate_phases", "estimate_phase")
               for f in ("phi_est", "objective_value", "low_information")]
    labels += [f"stationary windows, {offset} offset, point {k}, {call} {f}" for offset in ("preset", "moved")
               for k in (0, 1) for call in ("estimate_phases", "estimate_phase")
               for f in ("phi_est", "objective_value", "low_information")]
    labels.append("bootstrap_sigma")
    labels += [f"calibrate {f}" for f in ("config", "fit_residual", "degraded", "sigma")]
    labels.append("max_fisher (phi*, F*)")
    return [line for label, old, new in zip(labels, *out.values(), strict=True)
            if (line := difference(label, old, new))]


def rows(pkg, window, n_windows: int) -> dict:
    """Each timed row as (call, the calls it makes, its runs per round)."""
    cfg, cal, branch, trials, counts = window
    one, batch = np.array([0.7]), np.linspace(0.0, math.pi, 2049)
    picked = counts[:n_windows]
    far = far_windows(counts)
    scan = calibration_scan(pkg)
    lossless = pkg.InterferometerConfig(**MAX_FISHER)

    def estimates():
        for row in picked:
            pkg.estimate_phase(row, cal, branch, trials=trials)

    return {
        "clicks, 1 phase": (lambda: pkg.clicks(cfg, one), 1, REPEATS["clicks, 1 phase"]),
        "fisher, 1 phase": (lambda: pkg.fisher(cfg, one), 1, REPEATS["fisher, 1 phase"]),
        "estimate_phase, 1 window": (estimates, len(picked), 1),
        "clicks, 2049 phases": (lambda: pkg.clicks(cfg, batch), 1, REPEATS["clicks, 2049 phases"]),
        "estimate_phases, 2200 windows": (lambda: pkg.estimate_phases(counts, cal, branch), 1,
                                          REPEATS["estimate_phases, 2200 windows"]),
        "estimate_phases, 2200 far windows": (lambda: pkg.estimate_phases(far, cal, branch), 1,
                                              REPEATS["estimate_phases, 2200 far windows"]),
        "bootstrap_sigma, 200 resamples": (lambda: pkg.bootstrap_sigma(counts[0], cal, branch, RESAMPLES, seed=0), 1,
                                           REPEATS["bootstrap_sigma, 200 resamples"]),
        "calibrate, 16 phases": (lambda: pkg.calibrate(*scan), 1, REPEATS["calibrate, 16 phases"]),
        "max_fisher, r 0.59": (lambda: pkg.max_fisher(lossless), 1, REPEATS["max_fisher, r 0.59"]),
    }


def timed(call, calls: int, reps: int) -> tuple[float, float]:
    """Process time and minor page faults per call, of ``reps`` runs of
    ``call``, which makes ``calls`` calls."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.process_time()
    for _ in range(reps):
        call()
    spent = time.process_time() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return spent / (reps * calls), faults / (reps * calls)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--windows", type=int, default=200)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.windows < 1:
        parser.error("--rounds and --windows must be >= 1")
    with tempfile.TemporaryDirectory() as tmp:
        try:
            _extract(args.base, Path(tmp))
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"cannot extract revision {args.base!r}: {exc}", file=sys.stderr)
            return 2
        pkgs = {"base": load("squint_base", Path(tmp) / "src"), "head": load("squint_head", ROOT / "src")}
        windows = {side: fig4_windows(pkg) for side, pkg in pkgs.items()}
        differences = bit_check(pkgs, windows, args.windows)
        for line in differences:
            print(line)
        print(f"bit check: {'values differ' if differences else 'every value bitwise equal'} "
              f"({CONFIGS} configs; the counts of {len(windows['head'][4])} fig4 windows and their estimates, "
              f"the first {args.windows} one by one; as many far windows and "
              f"{len(STEPS) * len(TOTALS) * 8} windows at and next to stationary points, each in batches and one by "
              f"one; 3 bootstraps; one calibration; one max_fisher)")

        timings = {side: rows(pkg, windows[side], args.windows) for side, pkg in pkgs.items()}
        results = {name: {side: [] for side in SIDES} for name in timings["head"]}
        for k in range(args.rounds):
            for name in results:
                for side in SIDES[::(-1) ** k]:
                    results[name][side].append(timed(*timings[side][name]))
    print(f"{args.rounds} alternating rounds, process time per call; ratio = this tree / {args.base}")
    print("row | base | this tree | ratio median [q1, q3] | faults per call base / this tree")
    for name, sides in results.items():
        base, head = (np.array(sides[side]) for side in SIDES)
        q1, median, q3 = np.percentile(head[:, 0] / base[:, 0], [25, 50, 75])
        print(f"{name} | {np.median(base[:, 0]) * 1e6:.1f} us | {np.median(head[:, 0]) * 1e6:.1f} us | "
              f"{median:.3f} [{q1:.3f}, {q3:.3f}] | {np.median(base[:, 1]):.2f} / {np.median(head[:, 1]):.2f}")
    return int(bool(differences))


if __name__ == "__main__":
    sys.exit(main())
