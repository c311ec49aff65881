"""Monte Carlo experiment engine: click sampling, phase tracking, sensitivity.

Randomness uses counter-based Philox streams keyed by (seed, stream index),
one stream per window, so serial and parallel executions of the same scenario
produce bit-identical runs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .detection import fringe, interferometer_clicks
from .estimation import CalibrationModel, _cramer_rao, estimate_phases, write_json
from .gaussian import InterferometerConfig
from .metrology import ACCOUNTINGS, photons_through_sample

__all__ = [
    "TrackingScenario",
    "WindowRecord",
    "PhaseAggregate",
    "TrackingRun",
    "SensitivityReport",
    "sample_clicks",
    "run_tracking",
    "sensitivity_report",
]

TRACKING_SCHEMA = "squint-tracking/1"

CSV_COLUMNS = (
    "repeat",
    "window_index",
    "phase_index",
    "phi_set",
    "n00",
    "n01",
    "n10",
    "n11",
    "phi_est",
    "low_information",
)

_HALF_PERIOD = math.pi / 2.0


def _stream(seed: int, index: int) -> np.random.Generator:
    """RNG stream keyed by (seed, stream index)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class TrackingScenario:
    """Phase-tracking schedule: a staircase of set phases sampled in windows.

    Each repeat replays the whole schedule; ``duration`` of every entry must
    be a multiple of the sampling ``window``. The estimation branch defaults
    to the scheduled phase range widened by ``branch_margin`` and must stay
    within the half period pi/2.
    """

    phase_schedule: tuple[tuple[float, float], ...]
    window: float = 0.2
    repetition_rate: float = 7.6e7
    repeats: int = 200
    seed: int = 0
    branch: tuple[float, float] | None = None
    branch_margin: float = 0.1

    def __post_init__(self):
        schedule = tuple((float(p), float(d)) for p, d in self.phase_schedule)
        object.__setattr__(self, "phase_schedule", schedule)
        if self.window <= 0 or self.repetition_rate <= 0:
            raise ValueError("window and repetition_rate must be > 0")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        for phi, duration in schedule:
            if duration < 0:
                raise ValueError("durations must be >= 0")
            n = duration / self.window
            if abs(n - round(n)) > 1e-9:
                raise ValueError(f"duration {duration} is not a multiple of window {self.window}")

    @property
    def windows_per_repeat(self) -> int:
        return sum(int(round(d / self.window)) for _, d in self.phase_schedule)

    @property
    def trials_per_window(self) -> int:
        return int(round(self.repetition_rate * self.window))

    def resolved_branch(self) -> tuple[float, float]:
        if self.branch is not None:
            lo, hi = float(self.branch[0]), float(self.branch[1])
        else:
            phases = [p for p, d in self.phase_schedule if d > 0]
            if not phases:
                raise ValueError("cannot resolve a branch for an empty schedule")
            lo = min(phases) - self.branch_margin
            hi = max(phases) + self.branch_margin
        if hi - lo > _HALF_PERIOD + 1e-9:
            raise ValueError(
                f"branch [{lo:.4f}, {hi:.4f}] wider than the half period pi/2; "
                "narrow the schedule or pass an explicit branch"
            )
        return lo, hi


@dataclass(frozen=True)
class WindowRecord:
    repeat: int
    window_index: int
    phase_index: int
    phi_set: float
    counts: tuple[int, int, int, int]
    phi_est: float
    low_information: bool


@dataclass(frozen=True)
class PhaseAggregate:
    phase_index: int
    phi_set: float
    n_estimates: int
    mean_phi_est: float
    std_phi_est: float


@dataclass
class TrackingRun:
    """Window-level records plus per-phase aggregates of a tracking scenario."""

    scenario: TrackingScenario
    config: InterferometerConfig
    branch: tuple[float, float]
    records: list[WindowRecord] = field(default_factory=list)
    aggregates: list[PhaseAggregate] = field(default_factory=list)

    @property
    def trials_per_window(self) -> int:
        return self.scenario.trials_per_window

    def to_csv(self, path) -> None:
        """One row per window; schema in CSV_COLUMNS, floats at 12 significant digits."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for rec in self.records:
                writer.writerow(
                    [
                        rec.repeat,
                        rec.window_index,
                        rec.phase_index,
                        f"{rec.phi_set:.12g}",
                        *rec.counts,
                        f"{rec.phi_est:.12g}",
                        int(rec.low_information),
                    ]
                )

    def summary_dict(self) -> dict:
        scn = self.scenario
        return {
            "schema": TRACKING_SCHEMA,
            "seed": scn.seed,
            "window_s": scn.window,
            "repetition_rate": scn.repetition_rate,
            "trials_per_window": self.trials_per_window,
            "repeats": scn.repeats,
            "branch": [self.branch[0], self.branch[1]],
            "phases": [p for p, _ in scn.phase_schedule],
            "aggregates": [asdict(agg) for agg in self.aggregates],
        }

    def to_json(self, path) -> None:
        write_json(path, self.summary_dict())


def sample_clicks(cfg: InterferometerConfig, phi: float, trials: int, seed: int) -> np.ndarray:
    """Multinomial draw of the four outcome counts; deterministic given seed."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    probs = interferometer_clicks(cfg, phi).as_array()
    return _stream(seed, 0).multinomial(trials, probs)


def run_tracking(
    scenario: TrackingScenario,
    cfg: InterferometerConfig,
    cal: CalibrationModel,
) -> TrackingRun:
    """Replay the schedule: sample every window's counts, estimate all phases
    in one batch, record. Windows without phase information are flagged."""
    if not scenario.phase_schedule or scenario.windows_per_repeat == 0:
        return TrackingRun(scenario=scenario, config=cfg, branch=(0.0, 0.0))
    branch = scenario.resolved_branch()
    trials = scenario.trials_per_window
    one_repeat = [
        (phase_index, phi_set)
        for phase_index, (phi_set, duration) in enumerate(scenario.phase_schedule)
        for _ in range(int(round(duration / scenario.window)))
    ]
    probs = fringe(cfg, [phi_set for phi_set, _ in scenario.phase_schedule])
    windows = one_repeat * scenario.repeats
    counts = np.array([
        _stream(scenario.seed, index).multinomial(trials, probs[phase_index])
        for index, (phase_index, _) in enumerate(windows)
    ])
    phi_est, _, low_info = estimate_phases(counts, cal, branch, trials)

    run = TrackingRun(scenario=scenario, config=cfg, branch=branch)
    run.records = [
        WindowRecord(index // len(one_repeat), index, phase_index, phi_set, tuple(n), phi, low)
        for index, ((phase_index, phi_set), n, phi, low) in enumerate(
            zip(windows, counts.tolist(), phi_est.tolist(), low_info.tolist())
        )
    ]
    phase_of = np.array([phase_index for phase_index, _ in windows])
    for phase_index, (phi_set, _) in enumerate(scenario.phase_schedule):
        ests = phi_est[(phase_of == phase_index) & np.isfinite(phi_est)]
        if ests.size:
            std = float(ests.std(ddof=1)) if ests.size > 1 else 0.0
            run.aggregates.append(PhaseAggregate(phase_index, phi_set, ests.size, float(ests.mean()), std))
    return run


@dataclass(frozen=True)
class SensitivityRow:
    phi_set: float
    n_estimates: int
    dphi: float
    crlb: float
    snl_dphi: float
    enhancement_db: float


@dataclass
class SensitivityReport:
    """Per-phase sensitivity versus the photon-budget-matched shot-noise limit."""

    rows: list[SensitivityRow]
    trials_per_window: int
    photons_through_sample: float
    snl_per_photon: float
    accounting: str

    def best(self) -> SensitivityRow | None:
        finite = [r for r in self.rows if math.isfinite(r.enhancement_db)]
        return max(finite, key=lambda r: r.enhancement_db) if finite else None

    def to_dict(self) -> dict:
        best = self.best()
        return {
            "trials_per_window": self.trials_per_window,
            "photons_through_sample_per_trial": self.photons_through_sample,
            "snl_per_photon": self.snl_per_photon,
            "accounting": self.accounting,
            "rows": [asdict(r) for r in self.rows],
            "best_phase": None if best is None else best.phi_set,
            "best_enhancement_db": None if best is None else best.enhancement_db,
        }


def sensitivity_report(run: TrackingRun, accounting: str = "single-pass") -> SensitivityReport:
    """Compare per-phase tracking noise with the CRLB and the SNL.

    The SNL sensitivity matches the photon budget actually spent per window:
    dphi_SNL = 1/sqrt(cfg.snl_per_photon * trials * photons_through_sample), and
    the enhancement is 20 log10(dphi_SNL / dphi). The absolute scale depends
    on the assumed repetition rate, which is always reported alongside.
    """
    if not run.records:
        raise ValueError("sensitivity_report needs a nonempty run")
    if accounting not in ACCOUNTINGS:
        raise ValueError(f"accounting must be one of {ACCOUNTINGS}, got {accounting!r}")
    cfg = run.config
    snl = cfg.snl_per_photon
    trials = run.trials_per_window
    n_through = photons_through_sample(cfg, accounting)
    snl_dphi = 1.0 / math.sqrt(snl * trials * n_through) if snl > 0 else math.inf
    rows = []
    bounds = _cramer_rao(cfg, [agg.phi_set for agg in run.aggregates], trials)
    for agg, bound in zip(run.aggregates, bounds.tolist()):
        if agg.std_phi_est > 0 and math.isfinite(snl_dphi):
            db = 20.0 * math.log10(snl_dphi / agg.std_phi_est)
        else:
            db = math.inf if agg.std_phi_est == 0 else -math.inf
        rows.append(
            SensitivityRow(
                phi_set=agg.phi_set,
                n_estimates=agg.n_estimates,
                dphi=agg.std_phi_est,
                crlb=bound,
                snl_dphi=snl_dphi,
                enhancement_db=db,
            )
        )
    return SensitivityReport(
        rows=rows,
        trials_per_window=trials,
        photons_through_sample=n_through,
        snl_per_photon=snl,
        accounting=accounting,
    )
