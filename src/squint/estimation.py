"""Calibration curves, least-squares phase estimation, bootstrap, and CRLB.

The estimator follows the measurement protocol: a single window's observed
outcome frequencies are matched against the calibrated p_ij(phi) curves by
minimizing the unweighted squared difference over a half-period branch
(grid search plus golden-section refinement). A multinomial maximum-likelihood
objective is available behind a flag for comparison but is not the default.

Calibration fits the interferometer parameters (r1, r2, eta_h, eta_v, overlap,
phase_offset) to observed fringes with a derivative-free coordinate descent
with shrinking steps, bounded at 10^4 objective evaluations.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .detection import _SUM_TOL, fringe
from .gaussian import InterferometerConfig
from .metrology import _golden_min, fisher_per_trial

__all__ = [
    "CalibrationModel",
    "PhaseEstimate",
    "UnidentifiableError",
    "calibrate",
    "estimate_phase",
    "bootstrap_sigma",
    "crlb",
]

CALIBRATION_SCHEMA = "squint-calibration/1"

_HALF_PERIOD = math.pi / 2.0
_OUTCOMES = ("p00", "p01", "p10", "p11")


class UnidentifiableError(ValueError):
    """The observed data carry no usable phase information on this branch."""


@dataclass(frozen=True)
class PhaseEstimate:
    """Single-window phase estimate on a half-period branch."""

    phi_est: float
    sigma: float
    window_trials: int
    objective_value: float
    low_information: bool = False


@dataclass
class CalibrationModel:
    """Fitted interferometer parameters plus tabulated p_ij(phi) curves.

    ``curves`` has shape (points, 4) on the inclusive grid ``phi_tab`` over
    [0, pi]; the model is pi-periodic so curves[0] == curves[-1].
    """

    config: InterferometerConfig
    phi_tab: np.ndarray
    curves: np.ndarray
    fit_residual: float = 0.0
    degraded: bool = False

    @classmethod
    def from_config(cls, config: InterferometerConfig, resolution: int = 2048) -> "CalibrationModel":
        """Exact calibration curves tabulated from a known configuration."""
        phi_tab = np.linspace(0.0, math.pi, resolution + 1)
        return cls(config=config, phi_tab=phi_tab, curves=fringe(config, phi_tab))

    def probabilities(self, phi) -> np.ndarray:
        """Interpolated calibration curves at phi (scalar -> (4,), array -> (N, 4))."""
        wrapped = np.mod(phi, math.pi)
        return np.stack([np.interp(wrapped, self.phi_tab, self.curves[:, j]) for j in range(4)], axis=-1)

    def to_dict(self) -> dict:
        return {
            "schema": CALIBRATION_SCHEMA,
            "config": asdict(self.config),
            "fit_residual": self.fit_residual,
            "degraded": self.degraded,
            "tabulation": {
                "phi_min": float(self.phi_tab[0]),
                "phi_max": float(self.phi_tab[-1]),
                "points": int(self.phi_tab.size),
            },
            "curves": {name: self.curves[:, j].tolist() for j, name in enumerate(_OUTCOMES)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationModel":
        """Load, requiring probability curves on a pi-periodic [0, pi] grid."""
        if data.get("schema") != CALIBRATION_SCHEMA:
            raise ValueError(f"unsupported calibration schema: {data.get('schema')!r}")
        tab = data["tabulation"]
        if tab["phi_min"] != 0.0 or abs(tab["phi_max"] - math.pi) > 1e-12 or tab["points"] < 2:
            raise ValueError("calibration grid must cover [0, pi] with at least 2 points")
        phi_tab = np.linspace(tab["phi_min"], tab["phi_max"], tab["points"])
        curves = np.stack([np.asarray(data["curves"][name], dtype=float) for name in _OUTCOMES], axis=-1)
        if curves.shape != (tab["points"], 4):
            raise ValueError("curve arrays inconsistent with tabulation metadata")
        if not (np.all(np.isfinite(curves)) and np.all((curves >= 0.0) & (curves <= 1.0))):
            raise ValueError("calibration curves must be finite probabilities in [0, 1]")
        if np.abs(curves.sum(axis=1) - 1.0).max() > _SUM_TOL:
            raise ValueError("calibration curves do not sum to 1 at every phase")
        if np.abs(curves[0] - curves[-1]).max() > _SUM_TOL:
            raise ValueError("calibration curves differ at phi = 0 and phi = pi")
        return cls(
            config=InterferometerConfig(**data["config"]),
            phi_tab=phi_tab,
            curves=curves,
            fit_residual=float(data["fit_residual"]),
            degraded=bool(data["degraded"]),
        )

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))

    @classmethod
    def from_json(cls, path) -> "CalibrationModel":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _normalize(observed, trials: int) -> tuple[np.ndarray, int]:
    obs = np.asarray(observed, dtype=float)
    if obs.shape != (4,):
        raise ValueError(f"observed must have 4 entries, got shape {obs.shape}")
    if np.any(obs < 0) or not np.all(np.isfinite(obs)):
        raise ValueError("observed entries must be finite and non-negative")
    total = float(obs.sum())
    if total <= 0:
        raise UnidentifiableError("observed data are empty")
    if trials == 0 and total > 1.5:
        trials = int(round(total))
    return obs / total, trials


_PARAM_NAMES = ("r1", "r2", "eta_h", "eta_v", "overlap", "phase_offset")
_PARAM_BOUNDS = {
    "r1": (0.0, 4.0),
    "r2": (0.0, 4.0),
    "eta_h": (0.0, 1.0),
    "eta_v": (0.0, 1.0),
    "overlap": (0.0, 1.0),
    "phase_offset": (-2.0 * math.pi, 2.0 * math.pi),
}
_INITIAL_STEPS = (0.05, 0.05, 0.02, 0.02, 0.005, 0.02)
_STEP_FLOOR = 1e-7


def calibrate(
    samples: Sequence[tuple[float, Sequence[int]]],
    initial: InterferometerConfig,
    max_evals: int = 10_000,
    resolution: int = 2048,
) -> CalibrationModel:
    """Least-squares fit of the pipeline parameters to observed click counts.

    ``samples`` is a list of (phi, counts) with counts in (n00, n01, n10, n11)
    order. Needs at least 8 distinct phases spanning half a period. On hitting
    the evaluation budget before the steps shrink out, the best-so-far model
    is returned with ``degraded=True``.
    """
    phis = np.array([float(p) for p, _ in samples])
    if np.unique(np.round(phis, 12)).size < 8:
        raise ValueError("calibration needs at least 8 distinct phases")
    if phis.max() - phis.min() < _HALF_PERIOD - 1e-9:
        raise ValueError("calibration phases must span at least half a period (pi/2)")
    freq_arr = np.array([_normalize(counts, 0)[0] for _, counts in samples])

    evals = 0

    def objective(values: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        cfg = initial.with_updates(**dict(zip(_PARAM_NAMES, values)))
        model_curves = fringe(cfg, phis)
        return float(np.sum((model_curves - freq_arr) ** 2))

    current = np.array([getattr(initial, name) for name in _PARAM_NAMES], dtype=float)
    best = objective(current)
    steps = np.array(_INITIAL_STEPS)
    degraded = False
    while evals < max_evals:
        improved = False
        for k, name in enumerate(_PARAM_NAMES):
            lo, hi = _PARAM_BOUNDS[name]
            for direction in (+1.0, -1.0):
                # walk while this direction keeps improving
                while evals < max_evals:
                    candidate = current.copy()
                    candidate[k] = min(hi, max(lo, candidate[k] + direction * steps[k]))
                    if candidate[k] == current[k]:
                        break
                    val = objective(candidate)
                    if val < best - 1e-15:
                        current, best = candidate, val
                        improved = True
                    else:
                        break
        if not improved:
            steps /= 2.0
            if np.all(steps < _STEP_FLOOR):
                break
    else:
        degraded = True

    fitted = initial.with_updates(**dict(zip(_PARAM_NAMES, current)))
    model = CalibrationModel.from_config(fitted, resolution=resolution)
    model.fit_residual = best
    model.degraded = degraded
    return model


def _check_branch(branch: tuple[float, float]) -> tuple[float, float]:
    lo, hi = float(branch[0]), float(branch[1])
    if not hi > lo:
        raise ValueError(f"branch must satisfy hi > lo, got {branch}")
    if hi - lo > _HALF_PERIOD + 1e-9:
        raise ValueError(f"branch width {hi - lo:.6f} exceeds the half period pi/2")
    return lo, hi


def estimate_phase(
    observed,
    cal: CalibrationModel,
    branch: tuple[float, float],
    trials: int = 0,
    method: str = "least-squares",
    grid_points: int = 257,
    tol: float = 1e-6,
) -> PhaseEstimate:
    """Phase minimizing the squared difference to the calibration curves.

    ``observed`` may be outcome frequencies or raw counts (counts are
    normalized and set ``window_trials``). The search never leaves ``branch``,
    whose width must not exceed the half period pi/2.
    """
    freqs, trials = _normalize(observed, trials)
    lo, hi = _check_branch(branch)
    if method == "least-squares":
        def objective_vec(p):
            return np.sum((p - freqs) ** 2, axis=-1)
    elif method == "mle":
        def objective_vec(p):
            return -np.sum(freqs * np.log(np.maximum(p, 1e-300)), axis=-1)
    else:
        raise ValueError(f"unknown method {method!r}")

    grid = np.linspace(lo, hi, grid_points)
    obj = objective_vec(cal.probabilities(grid))
    if obj.max() - obj.min() < 1e-15:
        raise UnidentifiableError("objective is flat on the branch")
    i = int(np.argmin(obj))
    a, b = grid[max(0, i - 1)], grid[min(grid_points - 1, i + 1)]
    x, fx = _golden_min(lambda p: float(objective_vec(cal.probabilities(p))), a, b, tol)
    if obj[i] < fx:
        x, fx = float(grid[i]), float(obj[i])
    info = fisher_per_trial(cal.config, x)
    low_information = (trials * info < 1.0) if trials > 0 else (info < 1e-9)
    return PhaseEstimate(
        phi_est=float(x),
        sigma=0.0,
        window_trials=trials,
        objective_value=float(fx),
        low_information=bool(low_information),
    )


def bootstrap_sigma(
    counts,
    cal: CalibrationModel,
    branch: tuple[float, float],
    resamples: int = 200,
    seed: int | np.random.Generator = 0,
) -> float:
    """Std of the phase estimate over multinomial resamples of the counts.

    ``seed`` is an integer seed or a ready generator, used as given.
    """
    counts = np.asarray(counts)
    if resamples < 100:
        raise ValueError(f"need at least 100 resamples, got {resamples}")
    total = int(counts.sum())
    if total < 1000:
        raise ValueError(f"need at least 1000 total counts, got {total}")
    if np.count_nonzero(counts) < 2:
        raise UnidentifiableError("all counts fall in a single outcome")
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(total, counts / total, size=resamples)
    estimates = [
        estimate_phase(draw, cal, branch, trials=total).phi_est for draw in draws
    ]
    return float(np.std(estimates, ddof=1))


def crlb(cal: CalibrationModel, phi: float, trials: int) -> float:
    """Cramer-Rao bound 1/sqrt(trials * F) of the calibrated model at phi."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    info = fisher_per_trial(cal.config, phi)
    if info <= 0.0:
        return math.inf
    return 1.0 / math.sqrt(trials * info)
