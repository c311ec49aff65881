"""Calibration curves, least-squares phase estimation, bootstrap, and CRLB.

The estimator follows the measurement protocol: a window's observed outcome
frequencies f are matched against the calibrated p_ij(phi) curves by
minimizing the unweighted squared difference sum_k (p_k(phi) - f_k)^2 over a
half-period branch. The curves interpolate linearly between calibration
nodes, so on the segment from node value a to a + d the objective is an exact
quadratic whose minimum is the distance from f to the segment, at
u* = clip((f - a).d / |d|^2, 0, 1). ``estimate_phases`` takes the best
segment for a whole batch of windows at once; every other estimate is a view
of it.

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
from .metrology import _fisher

__all__ = [
    "CalibrationModel",
    "PhaseEstimate",
    "UnidentifiableError",
    "calibrate",
    "estimate_phase",
    "estimate_phases",
    "bootstrap_sigma",
    "crlb",
]

CALIBRATION_SCHEMA = "squint-calibration/1"

_HALF_PERIOD = math.pi / 2.0
# calibration tabulation: intervals over [0, pi]; calibrate's evaluation budget
_CAL_INTERVALS = 2048
_MAX_EVALS = 10_000
# estimate_phases: windows x nodes per batch, which bounds its scratch near 1 MB
_BATCH_CELLS = 8192
# an objective varying less than this over the branch nodes carries no phase
_FLAT = 1e-15
_OUTCOMES = ("p00", "p01", "p10", "p11")


class UnidentifiableError(ValueError):
    """The observed data carry no usable phase information on this branch."""


def _finite_or_null(value):
    """Strict JSON has no NaN or infinities: they are written as null."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path, payload) -> None:
    """Write ``payload`` as strict, indented JSON with sorted keys."""
    text = json.dumps(_finite_or_null(payload), indent=1, sort_keys=True, allow_nan=False)
    Path(path).write_text(text)


@dataclass(frozen=True)
class PhaseEstimate:
    """Single-window phase estimate on a half-period branch."""

    phi_est: float
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
    def from_config(cls, config: InterferometerConfig) -> "CalibrationModel":
        """Exact calibration curves tabulated from a known configuration."""
        phi_tab = np.linspace(0.0, math.pi, _CAL_INTERVALS + 1)
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
        write_json(path, self.to_dict())

    @classmethod
    def from_json(cls, path) -> "CalibrationModel":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _dot4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the leading outcome axis of a * b, in a fixed order so that a
    row's result never depends on the batch it sits in."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _frequencies(counts) -> tuple[np.ndarray, np.ndarray]:
    """Rows (W, 4) of counts or frequencies -> frequencies (4, W) and totals (W,)."""
    obs = np.asarray(counts, dtype=float)
    if obs.ndim != 2 or obs.shape[1] != 4:
        raise ValueError(f"counts must have shape (windows, 4), got {obs.shape}")
    if np.any(obs < 0) or not np.all(np.isfinite(obs)):
        raise ValueError("counts must be finite and non-negative")
    obs = obs.T
    totals = obs[0] + obs[1] + obs[2] + obs[3]
    return np.divide(obs, totals, out=np.zeros_like(obs), where=totals > 0), totals


def _window_trials(totals, trials: int):
    """``trials`` if given, else each row's total when it holds counts (> 1.5)."""
    return trials if trials else np.where(totals > 1.5, np.rint(totals), 0.0)


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
    freqs, totals = _frequencies([counts for _, counts in samples])
    if not totals.all():
        raise UnidentifiableError("a calibration sample has no counts")

    evals = 0

    def objective(values: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        cfg = initial.with_updates(**dict(zip(_PARAM_NAMES, values)))
        model_curves = fringe(cfg, phis)
        return float(np.sum((model_curves - freqs.T) ** 2))

    current = np.array([getattr(initial, name) for name in _PARAM_NAMES], dtype=float)
    best = objective(current)
    steps = np.array(_INITIAL_STEPS)
    degraded = False
    while evals < _MAX_EVALS:
        improved = False
        for k, name in enumerate(_PARAM_NAMES):
            lo, hi = _PARAM_BOUNDS[name]
            for direction in (+1.0, -1.0):
                # walk while this direction keeps improving
                while evals < _MAX_EVALS:
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
    model = CalibrationModel.from_config(fitted)
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


def estimate_phases(
    counts,
    cal: CalibrationModel,
    branch: tuple[float, float],
    trials: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares phase of every window, exact on the interpolated curves.

    ``counts`` has one row (n00, n01, n10, n11) of counts or frequencies per
    window; returns ``phi_est``, ``objective_value`` and ``low_information``,
    each of shape (windows,). Low information is trials * F(phi_est) < 1,
    trials defaulting to a row's total of counts (F < 1e-9 for frequencies).
    A window without counts or with an objective flat over ``branch`` (width
    at most pi/2) gets (nan, nan, True).
    """
    freqs, totals = _frequencies(counts)
    lo, hi = _check_branch(branch)
    # the branch ends plus every calibration node strictly inside, pi-periodically
    shifts = math.pi * np.arange(math.floor(lo / math.pi), math.floor(hi / math.pi) + 1)
    inner = (cal.phi_tab[:-1] + shifts[:, None]).ravel()
    nodes = np.concatenate(([lo], inner[(inner > lo) & (inner < hi)], [hi]))
    values = cal.probabilities(nodes).T  # (4, nodes)
    step = np.diff(values, axis=1)[:, None]  # (4, 1, segments)
    length2 = _dot4(step, step)
    length2[length2 == 0.0] = np.inf  # a segment of zero length keeps u = 0

    phi_est, objective = np.empty((2, totals.size))
    flat = np.empty(totals.size, dtype=bool)
    rows = max(1, _BATCH_CELLS // nodes.size)
    for w in range(0, totals.size, rows):
        gap = freqs[:, w:w + rows, None] - values[:, None]  # (4, batch, nodes)
        at_nodes = _dot4(gap, gap)
        flat[w:w + rows] = at_nodes.max(axis=1) - at_nodes.min(axis=1) < _FLAT
        gap = gap[:, :, :-1]
        u = np.clip(_dot4(gap, step) / length2, 0.0, 1.0)
        resid = gap - u * step
        segment = _dot4(resid, resid)
        j = np.argmin(segment, axis=1)
        best = (np.arange(j.size), j)
        phi_est[w:w + rows] = (1.0 - u[best]) * nodes[j] + u[best] * nodes[j + 1]
        objective[w:w + rows] = segment[best]

    dead = flat | (totals <= 0)
    phi_est[dead] = objective[dead] = math.nan
    info = np.zeros(totals.size)
    if not dead.all():
        info[~dead] = _fisher(cal.config, phi_est[~dead])
    window_trials = _window_trials(totals, trials)
    low_information = np.where(window_trials > 0, window_trials * info < 1.0, info < 1e-9) | dead
    return phi_est, objective, low_information


def estimate_phase(
    observed,
    cal: CalibrationModel,
    branch: tuple[float, float],
    trials: int = 0,
) -> PhaseEstimate:
    """One window of ``estimate_phases``: (n00, n01, n10, n11) as counts or
    frequencies (counts set ``window_trials``). Raises UnidentifiableError
    when the window carries no phase information on the branch.
    """
    obs = np.asarray(observed, dtype=float)
    (phi,), (value,), (low,) = estimate_phases(obs[None], cal, branch, trials)
    if math.isnan(phi):
        raise UnidentifiableError("no phase information on the branch: empty data or a flat objective")
    return PhaseEstimate(
        phi_est=float(phi),
        window_trials=int(_window_trials(float(obs.sum()), trials)),
        objective_value=float(value),
        low_information=bool(low),
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
    estimates = estimate_phases(draws, cal, branch, trials=total)[0]
    if np.isnan(estimates).any():
        raise UnidentifiableError("objective is flat on the branch")
    return float(np.std(estimates, ddof=1))


def _cramer_rao(cfg: InterferometerConfig, phis, trials: int) -> np.ndarray:
    """Bound 1/sqrt(trials * F) at each phase; inf where F = 0."""
    info = _fisher(cfg, phis)
    with np.errstate(divide="ignore"):
        return 1.0 / np.sqrt(trials * info)


def crlb(cal: CalibrationModel, phi: float, trials: int) -> float:
    """Cramer-Rao bound 1/sqrt(trials * F) of the calibrated model at phi."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return float(_cramer_rao(cal.config, [phi], trials)[0])
