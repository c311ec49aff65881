"""Command-line front end: figure-data pipelines and validation suites.

Every command is deterministic given (config, seed) and writes diff-able
CSV/JSON data files rather than rendered images. Exit codes: 0 success,
2 configuration error, 3 validation failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import presets
from .detection import _OUTCOMES, fringe, fringe_visibility
from .estimation import CalibrationModel, _check_branch, estimate_phases, write_json
from .fock import TruncationError, required_n_max, simulate_fock
from .gaussian import InterferometerConfig, InvalidStateError
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


class ConfigError(Exception):
    pass


class ValidationFailure(Exception):
    pass


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


def _load_config_file(path: str):
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(data) - {"interferometer", "scenario"}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    for name, section in data.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be a JSON object")
    cfg = None
    scenario = None
    if "interferometer" in data:
        try:
            cfg = InterferometerConfig(**data["interferometer"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid interferometer section: {exc}") from exc
    if "scenario" in data:
        section = data["scenario"]
        try:  # TrackingScenario makes the schedule a tuple of (phase, duration) pairs itself
            if section.get("branch") is not None:
                section["branch"] = tuple(section["branch"])
            scenario = TrackingScenario(**section)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid scenario section: {exc}") from exc
    return cfg, scenario


def _resolve_config(args) -> InterferometerConfig:
    """The --config interferometer, else the fig3 preset, else the ideal r = 0.59 default."""
    if args.config:
        cfg, _ = _load_config_file(args.config)
        if cfg is None:
            raise ConfigError("config file has no 'interferometer' section")
        return cfg
    return presets.fringe_config() if args.preset else InterferometerConfig(r1=0.59, r2=0.59)


def _check_per_photon(cfg: InterferometerConfig) -> None:
    """Per-photon reports divide by the photons through the sample, 0 at r1 = 0."""
    if photons_through_sample(cfg) == 0.0:
        raise ConfigError("per-photon reports need r1 > 0: at r1 = 0 no photons pass the sample")


def _phi_grid(args) -> np.ndarray:
    if args.phi_steps < 2:
        raise ConfigError(f"need at least 2 grid points, got {args.phi_steps}")
    if not 0.0 <= args.phi_min < args.phi_max <= math.pi + 1e-12:
        raise ConfigError("phase grid must satisfy 0 <= phi-min < phi-max <= pi")
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
        return dict(zip(("n_bar", "dphi_tm", "dphi_noon", "dphi_snl"), presets.fig1b_table().T))
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
    _check_per_photon(cfg)
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
    bad = [n for n in args.nbar if not 0.0 <= n < math.inf]
    if bad:
        raise ConfigError(f"mean photon numbers must be finite and >= 0, got {bad[0]}")
    if min(args.nbar) == 0 and not args.skip_numeric:
        raise ConfigError("the numeric threshold needs mean photon numbers > 0 (or --skip-numeric)")
    if args.noon_max < 1:
        raise ConfigError(f"--noon-max must be >= 1, got {args.noon_max}")
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
    try:
        branch = _check_branch((args.branch_lo, args.branch_hi))
    except ValueError as exc:
        raise ConfigError(f"invalid branch: {exc}") from exc
    try:
        cal = CalibrationModel.from_json(args.calibration)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid calibration file {args.calibration}: {exc!r}") from exc
    try:
        with open(args.counts, newline="") as fh:
            reader = csv.DictReader(fh)
            needed = {"window_index", *COUNT_COLUMNS}
            if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
                raise ConfigError(f"counts file must have columns {sorted(needed)}")
            windows = [(int(rec["window_index"]), [int(rec[k]) for k in COUNT_COLUMNS]) for rec in reader]
    except OSError as exc:
        raise ConfigError(f"cannot read counts file {args.counts}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed row in counts file {args.counts}: {exc}") from exc
    counts = np.reshape([c for _, c in windows], (-1, 4))
    if np.any(counts < 0):
        raise ConfigError(f"negative count in counts file {args.counts}")
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
        cfg = presets.tracking_config()
        scenario = presets.fig4_scenario(seed=0 if args.seed is None else args.seed)
    else:
        if not args.config:
            raise ConfigError("track needs --preset fig4 or --config with a scenario section")
        cfg, scenario = _load_config_file(args.config)
        if cfg is None or scenario is None:
            raise ConfigError("track config must contain interferometer and scenario sections")
        if args.seed is not None and args.seed != scenario.seed:
            scenario = replace(scenario, seed=args.seed)
    _check_per_photon(cfg)
    cal = CalibrationModel.from_config(cfg)
    run = run_tracking(scenario, cfg, cal)
    rec = run.records
    columns = {name: rec[name] for name in ("repeat", "window_index", "phase_index", "phi_set")}
    columns.update(zip(COUNT_COLUMNS, rec.counts.T))
    columns.update(phi_est=rec.phi_est, low_information=rec.low_information)
    out = Path(args.out)
    _write_table(out, "tracking", "csv", columns)
    write_json(out / "tracking_summary.json", run.summary_dict())
    cal.to_json(out / "calibration.json")
    report = sensitivity_report(run, accounting=args.accounting)
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
    for flag, value in (("--budget", args.budget), ("--tol", args.tol)):
        if not 0.0 < value < math.inf:
            raise ConfigError(f"{flag} must be finite and > 0, got {value}")
    grid = _phi_grid(args)
    cases = [(0.3, 1.0), (0.3, 0.75), (0.59, 1.0), (0.59, 0.75)]
    rows = []
    for r, eta in cases:
        cfg = InterferometerConfig(r1=r, r2=r, eta_h=eta, eta_v=eta)
        n_max = required_n_max(2 * r, args.budget)  # the cutoff simulate_fock derives
        dev = float(np.abs(fringe(cfg, grid) - simulate_fock(cfg, grid, budget=args.budget)).max())
        rows.append((r, eta, n_max, dev))
        print(f"r={r} eta={eta} n_max={n_max}: max |delta p| = {dev:.3e}")
    columns = dict(zip(("r", "eta", "n_max", "max_delta_p"), zip(*rows)))
    _write_table(Path(args.out), "validate", args.format, columns)
    worst = float(np.max(columns["max_delta_p"]))
    print(f"overall max |delta p| = {worst:.3e} (tolerance {args.tol:.1e})")
    if not worst <= args.tol:
        raise ValidationFailure(f"oracle deviation {worst:.3e} exceeds tolerance {args.tol:.1e}")
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
            raise ConfigError("give either --preset or --config, not both")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (
        TruncationError,
        BracketError,
        InvalidStateError,
        ValueError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
