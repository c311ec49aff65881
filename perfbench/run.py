"""Benchmark of squint: the paper's figures, live tracking and the Fock oracle.

    python3 perfbench/run.py --workload figures|tracking|oracle \
        --seed N --seconds S --trace 0|1

Run from the repository root. Each run repeats whole rounds of its workload
until S seconds have passed (at least one round), checks every output against
references computed in ``refcheck.py``, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
makes one untraced and one traced round and reports the per-layer numbers of
``spans.py``. No more than one child process runs at a time. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import refcheck as R
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PY = sys.executable
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
CHILD_TIMEOUT_S = 170
SETUP_PROBES = 5
FIG4_WINDOWS = 2200  # 11 phases x 200 repeats

FIG1C_NBAR = ("0.78",)
ORACLE_CASES = ((0.3, 1.0), (0.3, 0.75), (0.59, 1.0), (0.59, 0.75))
ORACLE_BUDGET, ORACLE_TOL, ORACLE_PHI_STEPS = 1e-8, 1e-6, 7
IDEAL_R = 0.59  # the CLI's default config


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Op:
    """One timed operation and the verdict on its output."""

    def __init__(self, name: str, seconds: float, problems=(), fault: bool = False):
        self.name, self.seconds, self.problems = name, seconds, list(problems)
        # a fault: the output shows a known program fault and nothing else wrong
        self.failed = fault
        self.wrong = bool(self.problems) and not fault


class Round(NamedTuple):
    ops: list
    preset_s: float  # preset overlap calibration paid outside a CLI command
    traces: list  # span snapshots of traced children
    peak_kib: int  # largest resident high-water mark of the round's children


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def vm_hwm_kib(pid: int) -> int:
    """High-water resident memory of a live process since its exec, from /proc."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Child(NamedTuple):
    seconds: float
    code: int
    stdout: str
    stderr: str
    peak_kib: int  # resident high-water mark since exec, sampled every 0.1 s


def spawn(argv: list[str]) -> Child:
    """Run one child to its end, sampling its memory high-water mark.

    getrusage's ru_maxrss of a child also counts the parent's pages it shared
    before exec, which would hide a child smaller than the benchmark itself.
    """
    t = time.perf_counter()
    peak = 0
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    while True:
        peak = max(peak, vm_hwm_kib(proc.pid))
        try:
            out, err = proc.communicate(timeout=0.1)
            break
        except subprocess.TimeoutExpired:
            if time.perf_counter() - t > CHILD_TIMEOUT_S:
                proc.kill()
                proc.communicate()
                raise BenchError(f"{argv[1:4]} did not end within {CHILD_TIMEOUT_S} s")
    return Child(time.perf_counter() - t, proc.returncode, out, err, peak)


def setup_probe_s() -> float:
    """Median time of a fresh interpreter importing squint and its CLI."""
    times = []
    for _ in range(SETUP_PROBES):
        child = spawn([PY, "-c", "import squint.cli"])
        if child.code != 0:
            raise BenchError(f"cannot import squint: {child.stderr.strip()[-500:]}")
        times.append(child.seconds)
    return statistics.median(times)


# ---------------------------------------------------------------- figures and oracle


def check_sweep(out: Path, stdout: str):
    return R.check_sweep(R.read_table(out / "sweep.csv"))


def check_fisher_fig3(out: Path, stdout: str):
    return R.check_fisher_bound(R.read_table(out / "fisher.csv"), IDEAL_R)


def check_fisher_fig3c(out: Path, stdout: str):
    return R.check_fig3c(R.read_table(out / "fisher_fig3c.csv"))


def check_thresholds(out: Path, stdout: str):
    tm = R.read_table(out / "thresholds_tm.csv")
    problems = R.check_thresholds(tm, R.read_table(out / "thresholds_noon.csv"))
    if sorted(tm[:, 0]) != sorted(float(x) for x in FIG1C_NBAR):
        problems.append(f"n_bar column {tm[:, 0]} differs from the request")
    return problems


def check_fisher_default(out: Path, stdout: str):
    """Lossless r=0.59 table against the closed form.

    Returns (problems, fault): fault is True when the only wrong rows sit at
    the fringe zero phi = pi/2, where fisher_per_trial returns 0 instead of
    its limit 4 sinh^2(2r).
    """
    rows = R.read_table(out / "fisher.csv")
    problems, bad = R.fisher_row_problems(rows, IDEAL_R)
    peak = R.fisher_max(IDEAL_R) / R.photons_through_sample(IDEAL_R)
    for line in stdout.splitlines():
        if line.startswith("max Fisher per photon:") and abs(float(line.split()[4]) - peak) > 1e-4:
            problems.append(f"printed {line!r}, expected 8 cosh^2 r = {peak:.4f} per photon")
    only_zero_rows = bad.any() and len(problems) == int(bad.sum()) and R.at_fringe_zero(rows[bad, 0]).all()
    return problems, bool(only_zero_rows)


def check_validate(out: Path, stdout: str):
    return R.check_validate(R.read_table(out / "validate.csv"), ORACLE_CASES, ORACLE_BUDGET, ORACLE_TOL)


FIGURES = (
    ("sweep_fig3", ["sweep", "--preset", "fig3"], check_sweep),
    ("fisher_fig3", ["fisher", "--preset", "fig3"], check_fisher_fig3),
    ("fisher_fig3c", ["fisher", "--preset", "fig3c"], check_fisher_fig3c),
    ("thresholds_fig1c", ["thresholds", "--preset", "fig1c", "--nbar", *FIG1C_NBAR], check_thresholds),
    ("fisher_default", ["fisher"], check_fisher_default),
)
ORACLE = (
    ("validate", ["validate", "--phi-steps", str(ORACLE_PHI_STEPS), "--budget", str(ORACLE_BUDGET),
                  "--tol", str(ORACLE_TOL)], check_validate),
)


def cli_round(commands, work: Path, traced: bool) -> Round:
    ops, traces, peak = [], [], 0
    for name, argv, check in commands:
        out = work / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if traced:
            child = [PY, str(HERE / "worker.py"), "cli", str(out / "trace.json"), "--"]
        else:
            child = [PY, "-m", "squint.cli"]
        run = spawn(child + argv + ["--out", str(out)])
        peak = max(peak, run.peak_kib)
        if run.code != 0:
            ops.append(Op(name, run.seconds, [f"exit code {run.code}: {run.stderr.strip()[-300:]}"]))
            continue
        try:
            verdict = check(out, run.stdout)
        except (OSError, ValueError, IndexError) as exc:
            verdict = [f"unreadable output: {exc!r}"]
        # check_fisher_default also says whether only the known fault shows
        problems, fault = verdict if isinstance(verdict, tuple) else (verdict, False)
        ops.append(Op(name, run.seconds, problems, fault))
        if traced:
            traces.append(json.loads((out / "trace.json").read_text())["trace"])
    return Round(ops, 0.0, traces, peak)


# ---------------------------------------------------------------- tracking


def tracking_round(work: Path, traced: bool, seed: int) -> Round:
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / "tracking.json"
    argv = [PY, str(HERE / "worker.py"), "tracking", str(result_path), "--seed", str(seed)]
    worker = spawn(argv + (["--trace"] if traced else []))
    if worker.code != 0:
        raise BenchError(f"tracking worker failed: {worker.stderr.strip()[-500:]}")
    res = json.loads(result_path.read_text())
    t = res["ops"]
    ops = [
        Op("calibrate", t["calibrate"], R.check_calibration(res["fitted"], res["truth"], res["degraded"])),
        Op("calibration_json", t["calibration_json"],
           [] if res["round_trip_equal"] else ["calibration changed in its JSON round trip"]),
    ]

    phi_tab, curves = np.load(work / "phi_tab.npy"), np.load(work / "curves.npy")
    table_problems = []
    if np.any(curves < 0) or np.any(curves > 1) or np.abs(curves.sum(axis=1) - 1).max() > R.PROB_ATOL:
        table_problems.append("calibration curves leave [0, 1] or do not sum to 1")
    ops.append(Op("calibration_table", t["calibration_table"], table_problems))

    trials = res["trials_per_window"]
    fisher = R.fisher_from_curves(phi_tab, curves)
    phi_set, phi_est = np.array(res["phi_set"]), np.array(res["phi_est"])
    crlb_ref = {float(p): 1.0 / np.sqrt(trials * np.interp(p, phi_tab, fisher)) for p in np.unique(phi_set)}
    track_problems = R.check_tracking(phi_set, phi_est, crlb_ref)
    if phi_set.size != FIG4_WINDOWS:
        track_problems.append(f"{phi_set.size} windows, expected {FIG4_WINDOWS}")
    ops.append(Op("run_tracking", t["run_tracking"], track_problems))

    for latency, again, first in zip(res["latencies"], res["reestimates"], phi_est):
        ops.append(Op("estimate_phase", latency, [] if again == first else [f"re-estimate {again} != {first}"]))

    sens_problems = []
    snl = 1.0 / np.sqrt(2.0 * trials * R.photons_through_sample(res["truth"]["r1"]))
    for p, dphi, crlb, snl_dphi, db in res["sensitivity"]:
        ests = phi_est[phi_set == p]
        if abs(dphi - ests.std(ddof=1)) > 1e-12 * dphi or abs(crlb / crlb_ref[p] - 1) > 1e-3:
            sens_problems.append(f"phase {p}: dphi {dphi:.4e} or CRLB {crlb:.4e} (reference {crlb_ref[p]:.4e})")
        if abs(snl_dphi / snl - 1) > 1e-9 or abs(db - 20 * np.log10(snl / dphi)) > 1e-9:
            sens_problems.append(f"phase {p}: shot-noise reference or dB is wrong")
    ops.append(Op("sensitivity_report", t["sensitivity_report"], sens_problems))

    phase_std = {float(p): float(phi_est[phi_set == p].std(ddof=1)) for p in np.unique(phi_set)}
    for (p, sigma), seconds in zip(res["bootstrap"], res["bootstrap_s"]):
        ops.append(Op("bootstrap_sigma", seconds, R.check_bootstrap([(p, sigma)], phase_std)))
    return Round(ops, res["preset_s"], [res["trace"]] if traced else [], worker.peak_kib)


# ---------------------------------------------------------------- main

WORKLOADS = {
    "figures": lambda work, traced, seed: cli_round(FIGURES, work, traced),
    "tracking": tracking_round,
    "oracle": lambda work, traced, seed: cli_round(ORACLE, work, traced),
}


def operation_summary(rounds) -> dict:
    """Median per named operation, with the tracking latency figures."""
    by_name: dict[str, list] = {}
    for rnd in rounds:
        totals: dict[str, float] = {}
        for op in rnd.ops:
            totals[op.name] = totals.get(op.name, 0.0) + op.seconds
        for name, seconds in totals.items():
            by_name.setdefault(name, []).append(seconds)
    summary = {f"{name}_s": statistics.median(v) for name, v in by_name.items()}
    latencies = [op.seconds for rnd in rounds for op in rnd.ops if op.name == "estimate_phase"]
    if latencies:
        summary["window_latency_p50_ms"] = 1e3 * float(np.percentile(latencies, 50))
        summary["window_latency_p99_ms"] = 1e3 * float(np.percentile(latencies, 99))
        summary["tracking_windows_per_s"] = FIG4_WINDOWS / summary["run_tracking_s"]
    return summary


def verdict(rounds) -> tuple[bool, int, int]:
    ops = [op for rnd in rounds for op in rnd.ops]
    for op in ops:
        for problem in op.problems[:5]:
            print(f"{'FAULT' if op.failed else 'WRONG'} {op.name}: {problem}", file=sys.stderr)
    return not any(op.wrong for op in ops), len(ops), sum(op.failed for op in ops)


def wall_s(rnd: Round) -> float:
    return sum(op.seconds for op in rnd.ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "squint" / "__init__.py").is_file():
        print(f"no squint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_round = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            plain = run_round(work / "plain", False, args.seed)
            traced = run_round(work / "traced", True, args.seed)
            correct, attempted, failed = verdict([plain, traced])
            metrics = spans.layer_metrics(spans.merge(traced.traces))
            metrics["tracing_overhead_s"] = (wall_s(traced) - wall_s(plain), "s")
        else:
            setup = setup_probe_s()
            rounds, start = [], time.monotonic()
            while not rounds or time.monotonic() - start < args.seconds:
                rounds.append(run_round(work / f"round{len(rounds)}", False, args.seed))
            correct, attempted, failed = verdict(rounds)
            print(json.dumps({"operations": operation_summary(rounds)}))
            metrics = {
                "setup_s": (setup + statistics.median(rnd.preset_s for rnd in rounds), "s"),
                "wall_s": (statistics.median(wall_s(rnd) for rnd in rounds), "s"),
                "peak_rss_mb": (max(rnd.peak_kib for rnd in rounds) / 1024.0, "MB"),
            }
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
