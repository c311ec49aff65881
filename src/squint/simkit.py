"""Monte Carlo experiment engine: phase tracking and sensitivity.

Randomness uses counter-based Philox streams keyed by (seed, stream index):
each window's counts come from its own stream, so they depend only on the
seed and the window index, not on the order of the draws or on the estimator.

Reports are NumPy record arrays: named columns of equal length that also read
row by row. ``TrackingRun.records`` has one row per window (fields of
``RECORD_DTYPE``; ``counts`` is (W, 4) as a column), ``TrackingRun.aggregates``
one per phase and ``SensitivityReport.rows`` one per aggregated phase. The
field ``repeat`` is shadowed by ``ndarray.repeat``: read it as
``records["repeat"]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import fringe
from .estimation import CalibrationModel, _check_branch, estimate_phases
from .gaussian import InterferometerConfig, _integer, _is_number, _is_pair
from .metrology import SNL_PER_PHOTON, crlb, photons_through_sample

__all__ = [
    "TrackingScenario",
    "TrackingRun",
    "SensitivityReport",
    "run_tracking",
    "sensitivity_report",
]

TRACKING_SCHEMA = "squint-tracking/1"
# the default branch: the scheduled phase range widened by this much on each side, rad
_BRANCH_MARGIN = 0.1

RECORD_DTYPE = np.dtype([
    ("repeat", np.int64),
    ("window_index", np.int64),
    ("phase_index", np.int64),
    ("phi_set", np.float64),
    ("counts", np.int64, (4,)),
    ("phi_est", np.float64),
    ("low_information", np.bool_),
])
AGGREGATE_DTYPE = np.dtype([
    ("phase_index", np.int64),
    ("phi_set", np.float64),
    ("n_estimates", np.int64),
    ("mean_phi_est", np.float64),
    ("std_phi_est", np.float64),
])


def _stream(seed: int, index: int, rng: np.random.Generator | None = None) -> np.random.Generator:
    """RNG stream keyed by (seed, stream index): ``rng``, a Philox generator (a new one by default), in
    the state of a new ``Philox(key=(seed, index))``, counter 0 and its buffer of four words empty."""
    rng = rng or np.random.Generator(np.random.Philox(key=0))
    rng.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": (seed, index)},
                               "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


@dataclass(frozen=True)
class TrackingScenario:
    """Phase-tracking schedule: a staircase of set phases sampled in windows.

    Each repeat replays the whole schedule, which needs at least one window,
    and the run's ``windows_per_repeat * repeats`` windows must fit in int64;
    ``duration`` of every entry must be a multiple of the sampling ``window``.
    The estimation branch defaults to the scheduled phase range widened by
    0.1 rad on each side and must stay within the half period pi/2.
    """

    phase_schedule: tuple[tuple[float, float], ...]
    window: float = 0.2
    repetition_rate: float = 7.6e7
    repeats: int = 200
    seed: int = 0
    branch: tuple[float, float] | None = None

    def __post_init__(self):
        for name in ("repeats", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not (isinstance(self.phase_schedule, (list, tuple)) and all(map(_is_pair, self.phase_schedule))
                and _is_number(self.window) and _is_number(self.repetition_rate)):
            raise ValueError(f"window and repetition_rate take numbers, got {self.window!r}, {self.repetition_rate!r}; "
                             "phase_schedule a list of (phase, duration) pairs of numbers")
        schedule = tuple((float(p), float(d)) for p, d in self.phase_schedule)
        object.__setattr__(self, "phase_schedule", schedule)
        if not (0 < self.window < math.inf and 0 < self.repetition_rate < math.inf
                and self.repetition_rate * self.window < math.inf):
            raise ValueError("window, repetition_rate and their product must be finite and > 0")
        if self.trials_per_window < 1:
            raise ValueError(f"repetition_rate * window = {self.repetition_rate * self.window:g} "
                             "rounds to no trials per window")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not 0 <= self.seed < 2**64:  # the 64-bit word of the Philox key
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        for phi, duration in schedule:
            if not (math.isfinite(phi) and 0 <= duration < math.inf):
                raise ValueError(f"phases must be finite and durations finite and >= 0, got ({phi}, {duration})")
        if self.windows_per_repeat == 0:
            raise ValueError("the phase schedule needs at least one window")
        if self.windows_per_repeat * self.repeats > np.iinfo(np.int64).max:  # the records' window index
            raise ValueError(f"{self.windows_per_repeat:.3g} windows x {self.repeats} repeats do not fit in int64")
        if self.branch is not None:
            object.__setattr__(self, "branch", _check_branch(self.branch))
        self.resolved_branch()  # raises for a default branch wider than pi/2

    @property
    def windows_per_phase(self) -> list[int]:
        """Each schedule entry's window count, duration / window, which must be finite and whole."""
        counts = [duration / self.window for _, duration in self.phase_schedule]
        if bad := [n for n in counts if not (math.isfinite(n) and abs(n - round(n)) <= 1e-9)]:
            raise ValueError(f"duration / window must be finite and whole, got {bad} (window {self.window})")
        return [round(n) for n in counts]

    @property
    def windows_per_repeat(self) -> int:
        return sum(self.windows_per_phase)

    @property
    def trials_per_window(self) -> int:
        return int(round(self.repetition_rate * self.window))

    def resolved_branch(self) -> tuple[float, float]:
        if self.branch is not None:
            return self.branch
        phases = [p for p, d in self.phase_schedule if d > 0]
        return _check_branch((min(phases) - _BRANCH_MARGIN, max(phases) + _BRANCH_MARGIN))


@dataclass
class TrackingRun:
    """Window records plus per-phase aggregates of a tracking scenario."""

    scenario: TrackingScenario
    config: InterferometerConfig
    records: np.recarray
    aggregates: np.recarray

    def summary_dict(self) -> dict:
        scn = self.scenario
        return {
            "schema": TRACKING_SCHEMA,
            "seed": scn.seed,
            "window_s": scn.window,
            "repetition_rate": scn.repetition_rate,
            "trials_per_window": scn.trials_per_window,
            "repeats": scn.repeats,
            "branch": list(scn.resolved_branch()),
            "phases": [p for p, _ in scn.phase_schedule],
            "aggregates": self.aggregates,
        }


def run_tracking(
    scenario: TrackingScenario,
    cfg: InterferometerConfig,
    cal: CalibrationModel,
) -> TrackingRun:
    """Replay the schedule: sample every window's counts, estimate all phases
    in one batch, record. Windows without phase information are flagged."""
    trials = scenario.trials_per_window
    phis = np.array([phi_set for phi_set, _ in scenario.phase_schedule])
    phase_of = np.tile(np.repeat(np.arange(len(phis)), scenario.windows_per_phase), scenario.repeats)
    probs = fringe(cfg, phis)
    rng = _stream(scenario.seed, 0)  # rekeyed for each window
    counts = np.array([_stream(scenario.seed, index, rng).multinomial(trials, probs[phase_index])
                       for index, phase_index in enumerate(phase_of.tolist())])
    phi_est, _, low_info = estimate_phases(counts, cal, scenario.resolved_branch())
    index = np.arange(len(phase_of))
    records = np.rec.fromarrays(
        [index // scenario.windows_per_repeat, index, phase_of, phis[phase_of], counts, phi_est, low_info],
        dtype=RECORD_DTYPE,
    )
    aggregates = []
    for phase_index, phi_set in enumerate(phis.tolist()):
        ests = phi_est[(phase_of == phase_index) & np.isfinite(phi_est)]
        if ests.size:
            std = float(ests.std(ddof=1)) if ests.size > 1 else math.nan  # one estimate has no spread
            aggregates.append((phase_index, phi_set, ests.size, float(ests.mean()), std))
    return TrackingRun(scenario, cfg, records, np.rec.fromrecords(aggregates, dtype=AGGREGATE_DTYPE))


@dataclass
class SensitivityReport:
    """Per-phase sensitivity versus the photon-budget-matched shot-noise limit;
    ``rows`` has the fields phi_set, n_estimates, dphi, crlb, snl_dphi and
    enhancement_db."""

    rows: np.recarray
    trials_per_window: int
    photons_through_sample: float
    accounting: str

    def best(self) -> np.record | None:
        """The row with the largest finite enhancement, None if there is none."""
        db = self.rows.enhancement_db
        finite = np.flatnonzero(np.isfinite(db))
        return self.rows[finite[np.argmax(db[finite])]] if finite.size else None

    def to_dict(self) -> dict:
        best = self.best()
        return {
            "trials_per_window": self.trials_per_window,
            "photons_through_sample_per_trial": self.photons_through_sample,
            "snl_per_photon": SNL_PER_PHOTON,
            "accounting": self.accounting,
            "rows": self.rows,
            "best_phase": None if best is None else float(best.phi_set),
            "best_enhancement_db": None if best is None else float(best.enhancement_db),
        }


def sensitivity_report(run: TrackingRun, accounting: str = "single-pass") -> SensitivityReport:
    """Compare per-phase tracking noise with the CRLB and the SNL.

    The SNL sensitivity matches the photon budget actually spent per window:
    dphi_SNL = 1/sqrt(SNL_PER_PHOTON * trials * photons_through_sample), and
    the enhancement is 20 log10(dphi_SNL / dphi). The absolute scale depends
    on the assumed repetition rate, which is always reported alongside.
    """
    cfg = run.config
    trials = run.scenario.trials_per_window
    n_through = photons_through_sample(cfg, accounting)
    snl_dphi = 1.0 / math.sqrt(SNL_PER_PHOTON * trials * n_through)
    agg = run.aggregates
    # math.log10 per value: np.log10 can differ from it in the last place; a nan std gives nan
    db = [math.inf if std == 0 else 20.0 * math.log10(snl_dphi / std) for std in agg.std_phi_est.tolist()]
    rows = np.rec.fromarrays(
        [agg.phi_set, agg.n_estimates, agg.std_phi_est, crlb(cfg, agg.phi_set, trials),
         np.full(len(agg), snl_dphi), db],
        names="phi_set, n_estimates, dphi, crlb, snl_dphi, enhancement_db",
    )
    return SensitivityReport(rows, trials, n_through, accounting)
