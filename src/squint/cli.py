"""Command-line front end: figure-data pipelines and validation suites.

Every command is deterministic given (config, seed) and writes diff-able
CSV/JSON data files rather than rendered images. Exit codes: 0 success,
2 refused input (any other ValueError, or an OSError such as an unreadable
file or an --out that names a file), 3 validation failure, 4 numerical
failure (InvalidStateError, TruncationError, BracketError, LinAlgError or
OverflowError). No input is refused with a TypeError.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import presets
from .detection import _OUTCOMES, fringe, fringe_visibility
from .estimation import CalibrationModel, _check_branch, _frequencies, estimate_phases, read_json, write_json
from .fock import TruncationError, oracle_n_max, simulate_fock
from .gaussian import InterferometerConfig, InvalidStateError, _mapping, _number
from .metrology import (
    ACCOUNTINGS,
    SNL_PER_PHOTON,
    BracketError,
    fisher_sweep,
    max_fisher,
    noon_fisher_per_photon,
    photons_through_sample,
    threshold_noon,
    threshold_tm,
    threshold_tm_numeric,
)
from .simkit import TrackingScenario, run_tracking, sensitivity_report

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

COUNT_COLUMNS = ("n00", "n01", "n10", "n11")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_table(out_dir: Path, name: str, fmt: str, columns: dict) -> Path:
    """Write equal-length columns, given by name in file order, as one table:
    CSV with floats at 12 significant digits, or strict JSON. Booleans are
    written as 0/1."""
    out_dir.mkdir(parents=True, exist_ok=True)
    values = [np.asarray(col) for col in columns.values()]
    rows = list(zip(*[(col.astype(int) if col.dtype == bool else col).tolist() for col in values]))
    if fmt == "csv":
        path = out_dir / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows([_fmt(v) for v in row] for row in rows)
    else:
        path = out_dir / f"{name}.json"
        write_json(path, {"columns": list(columns), "rows": rows})
    return path


def _load_config_file(path: str, *required: str):
    """The interferometer config and the scenario of a config file, None for a
    missing section; the sections ``required`` must be given."""
    try:
        data = read_json(path)
    except ValueError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    _mapping("config file", data, ("interferometer", "scenario"), required)
    loaded = []
    for name, cls in (("interferometer", InterferometerConfig), ("scenario", TrackingScenario)):
        try:  # TrackingScenario makes the schedule and the branch tuples itself
            loaded.append(cls(**_mapping(name, data[name], cls)) if name in data else None)
        except ValueError as exc:
            raise ValueError(f"invalid {name} section: {exc}") from exc
    return tuple(loaded)


def _resolve_config(args) -> InterferometerConfig:
    """The --config interferometer, else the fig3 preset, else the ideal r = 0.59 default."""
    if args.config:
        return _load_config_file(args.config, "interferometer")[0]
    return presets.fringe_config() if args.preset else InterferometerConfig(r1=0.59, r2=0.59)


def _phi_grid(args) -> np.ndarray:
    _number("--phi-steps", args.phi_steps, 2, integer=True)
    if not 0.0 <= args.phi_min < args.phi_max <= math.pi + 1e-12:
        raise ValueError("phase grid must satisfy 0 <= phi-min < phi-max <= pi")
    return np.linspace(args.phi_min, args.phi_max, args.phi_steps)


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    grid = _phi_grid(args)
    probs = fringe(cfg, grid)
    columns = {"phi": grid, **dict(zip(_OUTCOMES, probs.T))}
    path = _write_table(Path(args.out), "sweep", args.format, columns)
    print(f"wrote {path}")
    print(f"p11 fringe visibility: {fringe_visibility(cfg):.4f}")
    return EXIT_OK


def _fisher_preset_columns(args) -> dict:
    if args.preset == "fig1b":
        return presets.fig1b_table()
    cfgs = [InterferometerConfig(r1=r, r2=r) for r in np.round(np.arange(0.11, 0.5901, 0.04), 4).tolist()]
    n_through = np.array([photons_through_sample(cfg, args.accounting) for cfg in cfgs])
    fmax = np.array([max_fisher(cfg)[1] for cfg in cfgs])
    return {
        "r": [cfg.r1 for cfg in cfgs],
        "mean_photons_through_sample": n_through,
        "max_fisher_per_trial": fmax,
        "max_fisher_per_photon": fmax / n_through,
    }


def cmd_fisher(args) -> int:
    if args.preset in ("fig1b", "fig3c"):
        path = _write_table(Path(args.out), f"fisher_{args.preset}", args.format, _fisher_preset_columns(args))
        print(f"wrote {path}")
        return EXIT_OK
    cfg = _resolve_config(args)
    grid = _phi_grid(args)
    path = _write_table(Path(args.out), "fisher", args.format, fisher_sweep(cfg, grid, accounting=args.accounting))
    phi_star, f_star = max_fisher(cfg)
    n_through = photons_through_sample(cfg, args.accounting)
    print(f"wrote {path}")
    print(f"max Fisher per photon: {f_star / n_through:.4f} rad^-2 at phi = {phi_star:.4f}")
    print(f"SNL baseline: {SNL_PER_PHOTON:.4f} rad^-2 per photon")
    print(f"ideal 5-photon NOON baseline: {noon_fisher_per_photon(5, 1.0):.4f} rad^-2 per photon")
    return EXIT_OK


def cmd_thresholds(args) -> int:
    _number("--noon-max", args.noon_max, 1, integer=True)
    out = Path(args.out)
    tm = {
        "n_bar": args.nbar,
        "eta_tm": [threshold_tm(n) for n in args.nbar],
        "eta_tm_numeric": [math.nan if args.skip_numeric else threshold_tm_numeric(n) for n in args.nbar],
    }
    path_tm = _write_table(out, "thresholds_tm", args.format, tm)
    photons = range(1, args.noon_max + 1)
    noon = {
        "n_photons": photons,
        "eta_noon": [threshold_noon(n) for n in photons],
        "fisher_per_photon_ideal": [noon_fisher_per_photon(n, 1.0) for n in photons],
    }
    path_noon = _write_table(out, "thresholds_noon", args.format, noon)
    print(f"wrote {path_tm}")
    print(f"wrote {path_noon}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    branch = _check_branch((args.branch_lo, args.branch_hi))
    try:
        cal = CalibrationModel.from_json(args.calibration)
    except ValueError as exc:
        raise ValueError(f"invalid calibration file {args.calibration}: {exc}") from exc
    needed = {"window_index", *COUNT_COLUMNS}
    with open(args.counts, newline="") as fh:
        reader = csv.DictReader(fh, restval="")  # a short row's missing counts read "", which int() refuses
        try:  # the header too: a field past the csv size limit is a csv.Error there as in a row
            if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
                raise ValueError(f"counts file must have columns {sorted(needed)}")
            windows = [(int(rec["window_index"]), [int(rec[k]) for k in COUNT_COLUMNS]) for rec in reader]
            # as floats, exact below 2^53, so that a larger count is refused by its size (from
            # Python ints past 2^63, numpy makes an object array, which is no array of numbers)
            counts = np.array([c for _, c in windows], dtype=float).reshape(-1, 4)
            _frequencies(counts)
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"malformed counts file {args.counts}: {exc}") from exc
    phi_est, objective, low_info = estimate_phases(counts, cal, branch)
    columns = {
        "window_index": [i for i, _ in windows],
        "phi_est": phi_est,
        "objective_value": objective,
        "low_information": low_info,
    }
    path = _write_table(Path(args.out), "estimates", args.format, columns)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_track(args) -> int:
    if args.preset:
        cfg, scenario = presets.tracking_config(), presets.fig4_scenario()
    else:
        if not args.config:
            raise ValueError("track needs --preset fig4 or --config with a scenario section")
        cfg, scenario = _load_config_file(args.config, "interferometer", "scenario")
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    cal = CalibrationModel(cfg)
    run = run_tracking(scenario, cfg, cal)
    report = sensitivity_report(run, accounting=args.accounting)
    rec = run.records
    columns = {}  # the record fields in order, counts split into one column per outcome
    for name in rec.dtype.names:
        columns |= dict(zip(COUNT_COLUMNS, rec.counts.T)) if name == "counts" else {name: rec[name]}
    out = Path(args.out)
    _write_table(out, "tracking", "csv", columns)
    write_json(out / "tracking_summary.json", run.summary_dict())
    cal.to_json(out / "calibration.json")
    write_json(out / "sensitivity.json", report.to_dict())
    print(f"wrote {out / 'tracking.csv'}")
    print(f"trials per window (assumed repetition rate): {run.scenario.trials_per_window}")
    best = report.best()
    if best is not None:
        print(
            f"best phase {best.phi_set:.4f}: dphi = {best.dphi:.3e} rad, "
            f"{best.enhancement_db:.2f} dB beyond SNL"
        )
        print(
            "reference values for comparison (rate-dependent, informational): "
            "3.56 dB, dphi = 0.002 rad"
        )
    return EXIT_OK


def cmd_validate(args) -> int:
    _number("--tol", args.tol, 0, above=True)
    grid = _phi_grid(args)
    cases = [(0.3, 1.0), (0.3, 0.75), (0.59, 1.0), (0.59, 0.75)]
    rows = []
    for r, eta in cases:
        cfg = InterferometerConfig(r1=r, r2=r, eta_h=eta, eta_v=eta)
        n_max = oracle_n_max(cfg, args.budget)
        dev = float(np.abs(fringe(cfg, grid) - simulate_fock(cfg, grid, budget=args.budget)).max())
        rows.append((r, eta, n_max, dev))
        print(f"r={r} eta={eta} n_max={n_max}: max |delta p| = {dev:.3e}")
    columns = dict(zip(("r", "eta", "n_max", "max_delta_p"), zip(*rows)))
    _write_table(Path(args.out), "validate", args.format, columns)
    worst = float(np.max(columns["max_delta_p"]))
    print(f"overall max |delta p| = {worst:.3e} (tolerance {args.tol:.1e})")
    if not worst <= args.tol:
        print(f"validation failure: oracle deviation {worst:.3e} exceeds tolerance {args.tol:.1e}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _add_flags(parser: argparse.ArgumentParser, *preset_names, config=False, fmt=True, grid=False) -> None:
    """Declare the shared flags a command reads: --preset (one of
    ``preset_names``), --config, --out, --format and the phase grid."""
    if config:
        parser.add_argument("--config", help="JSON config file")
    if preset_names:
        parser.add_argument("--preset", choices=preset_names, help="bundled figure preset")
    parser.add_argument("--out", default="squint_out", help="output directory")
    if fmt:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")
    if grid:
        parser.add_argument("--phi-min", type=float, default=0.0)
        parser.add_argument("--phi-max", type=float, default=math.pi)
        parser.add_argument("--phi-steps", type=int, default=361)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="squint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="tabulate the four click fringes over phase")
    _add_flags(p, "fig3", config=True, grid=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fisher", help="Fisher information per trial and per photon")
    _add_flags(p, "fig1b", "fig3", "fig3c", config=True, grid=True)
    p.add_argument("--accounting", choices=ACCOUNTINGS, default="single-pass")
    p.set_defaults(func=cmd_fisher)

    p = sub.add_parser("thresholds", help="loss thresholds of this scheme vs NOON states")
    _add_flags(p, "fig1c")
    p.add_argument("--nbar", type=float, nargs="+", default=[0.1, 0.5, 0.78, 1.0, 2.0, 3.0])
    p.add_argument("--noon-max", type=int, default=20)
    p.add_argument("--skip-numeric", action="store_true", help="omit the bisection column")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("estimate", help="re-estimate phases from a counts file")
    _add_flags(p)
    p.add_argument("--counts", required=True, help="CSV with window counts (tracking schema)")
    p.add_argument("--calibration", required=True, help="calibration JSON")
    p.add_argument("--branch-lo", type=float, required=True)
    p.add_argument("--branch-hi", type=float, required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("track", help="Monte Carlo phase-tracking replay")
    _add_flags(p, "fig4", config=True, fmt=False)
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: the scenario's, 0 for fig4)")
    p.add_argument("--accounting", choices=ACCOUNTINGS, default="single-pass")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("validate", help="Gaussian vs Fock oracle equivalence suite")
    _add_flags(p)
    p.add_argument("--phi-steps", type=int, default=73)
    p.add_argument("--budget", type=float, default=1e-8, help="oracle truncation budget")
    p.add_argument("--tol", type=float, default=1e-6, help="max allowed |delta p|")
    p.set_defaults(func=cmd_validate, phi_min=0.0, phi_max=math.pi)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "preset", None) and getattr(args, "config", None):
            raise ValueError("give either --preset or --config, not both")
        return args.func(args)
    # InvalidStateError and LinAlgError are ValueErrors: they must come first
    except (InvalidStateError, TruncationError, BracketError, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
