"""Calibration curves, least-squares phase estimation, and bootstrap.

The estimator follows the measurement protocol: a window's observed outcome
frequencies f are matched against the calibrated p_ij(phi) curves by
minimizing the unweighted squared difference sum_k (p_k(phi) - f_k)^2 over a
half-period branch. The curves interpolate linearly between calibration
nodes, so on the segment from node value a to a + d the objective is an exact
quadratic whose minimum is the distance from f to the segment, at
u* = clip((f - a).d / |d|^2, 0, 1). ``estimate_phases`` takes the best
segment for a whole batch of windows at once; every other estimate is a view
of it.

Calibration fits (r, eta_h, eta_v, overlap, phase_offset) to observed fringes
by a bounded Levenberg-Marquardt fit (More, LNM 630 (1978)) of residuals
weighted by the multinomial variance. It fits one gain r = r1 = r2: where the
two are equal the click statistics have a null direction along r1 - r2.
Standard errors come from the inverse Fisher matrix at the fit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .detection import _SUM_TOL, fringe
from .gaussian import InterferometerConfig
from .metrology import fisher

__all__ = [
    "CalibrationModel",
    "PhaseEstimate",
    "UnidentifiableError",
    "calibrate",
    "estimate_phase",
    "estimate_phases",
    "bootstrap_sigma",
]

CALIBRATION_SCHEMA = "squint-calibration/2"

_HALF_PERIOD = math.pi / 2.0
# calibration tabulation: intervals over [0, pi]
_CAL_INTERVALS = 2048
# calibrate: fitted parameters, bounds, Jacobian steps, damping (start, and the
# cap past which no step lowers the cost), the cost gain that ends the fit,
# relative to the cost or to 1 (the residuals are in standard deviations) if
# that is larger, the iteration cap, and the eigenvalue floor of the Fisher
# correlations
_FIT_NAMES = ("r", "eta_h", "eta_v", "overlap", "phase_offset")
_FIT_BOUNDS = np.array([[0.0, 0.0, 0.0, 0.0, -2.0 * math.pi], [4.0, 1.0, 1.0, 1.0, 2.0 * math.pi]])
_JAC_STEPS = 1e-6 * np.eye(len(_FIT_NAMES))
_DAMPING, _MAX_DAMPING = 1e-3, 1e10
_REL_GAIN = 1e-12
_MAX_ITER = 100
_SINGULAR = 1e-12
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


@dataclass(frozen=True)
class CalibrationModel:
    """Fitted interferometer parameters plus tabulated p_ij(phi) curves.

    ``curves`` has shape (points, 4) on the inclusive grid ``phi_tab`` over
    [0, pi]; the model is pi-periodic so curves[0] == curves[-1]. A fitted
    model carries ``fit_residual``, ``degraded`` and ``sigma`` (see calibrate).
    The model is immutable and holds read-only copies of both arrays, so the
    node table ``estimate_phases`` keeps for the last branch cannot go stale.
    """

    config: InterferometerConfig
    phi_tab: np.ndarray
    curves: np.ndarray
    fit_residual: float = 0.0
    degraded: bool = False
    sigma: dict = field(default_factory=dict)
    _nodes: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("phi_tab", "curves"):
            array = np.array(getattr(self, name), dtype=float)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def from_config(cls, config: InterferometerConfig, **fit) -> "CalibrationModel":
        """Exact calibration curves tabulated from a known configuration;
        ``fit`` sets fit_residual, degraded and sigma of a fitted model."""
        phi_tab = np.linspace(0.0, math.pi, _CAL_INTERVALS + 1)
        return cls(config, phi_tab, fringe(config, phi_tab), **fit)

    def probabilities(self, phi) -> np.ndarray:
        """Interpolated calibration curves at phi (scalar -> (4,), array -> (N, 4))."""
        wrapped = np.mod(phi, math.pi)
        return np.stack([np.interp(wrapped, self.phi_tab, self.curves[:, j]) for j in range(4)], axis=-1)

    def _branch_nodes(self, lo: float, hi: float) -> tuple[np.ndarray, ...]:
        """Nodes of the interpolated curves on the branch [lo, hi], their values
        (4, nodes), steps (4, 1, segments) and squared step lengths, built once
        and kept for the last branch."""
        if self._nodes is None or self._nodes[0] != (lo, hi):
            # the branch ends plus every calibration node strictly inside, pi-periodically
            shifts = math.pi * np.arange(math.floor(lo / math.pi), math.floor(hi / math.pi) + 1)
            inner = (self.phi_tab[:-1] + shifts[:, None]).ravel()
            nodes = np.concatenate(([lo], inner[(inner > lo) & (inner < hi)], [hi]))
            values = self.probabilities(nodes).T
            step = np.diff(values, axis=1)[:, None]
            length2 = _dot4(step, step)
            length2[length2 == 0.0] = np.inf  # a segment of zero length keeps u = 0
            object.__setattr__(self, "_nodes", ((lo, hi), nodes, values, step, length2))
        return self._nodes[1:]

    def to_dict(self) -> dict:
        return {
            "schema": CALIBRATION_SCHEMA,
            "config": asdict(self.config),
            "fit_residual": self.fit_residual,
            "degraded": self.degraded,
            "sigma": self.sigma,
            "tabulation": {
                "phi_min": float(self.phi_tab[0]),
                "phi_max": float(self.phi_tab[-1]),
                "points": int(self.phi_tab.size),
            },
            "curves": {name: self.curves[:, j].tolist() for j, name in enumerate(_OUTCOMES)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationModel":
        """Load, requiring probability curves on a pi-periodic [0, pi] grid and
        standard errors of fitted parameters that are finite and >= 0 (null
        only in a degraded fit)."""
        if data.get("schema") != CALIBRATION_SCHEMA:
            raise ValueError(f"unsupported calibration schema: {data.get('schema')!r}")
        degraded, sigma = bool(data["degraded"]), data["sigma"]
        if not isinstance(sigma, dict) or not set(sigma) <= set(_FIT_NAMES):
            raise ValueError(f"sigma must map fitted parameters {_FIT_NAMES} to standard errors")
        if not all((v is None and degraded) or (type(v) in (int, float) and math.isfinite(v) and v >= 0.0)
                   for v in sigma.values()):
            raise ValueError(f"sigma values must be finite and >= 0 (null only when degraded): {sigma}")
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
            degraded=degraded,
            sigma={name: None if v is None else float(v) for name, v in sigma.items()},
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


def _fitted_config(initial: InterferometerConfig, theta) -> InterferometerConfig:
    """``initial`` with the fitted parameters theta as plain floats and r1 = r2 = r."""
    r, eta_h, eta_v, overlap, phase_offset = (float(v) for v in theta)
    return initial.with_updates(r1=r, r2=r, eta_h=eta_h, eta_v=eta_v, overlap=overlap, phase_offset=phase_offset)


def calibrate(
    samples: Sequence[tuple[float, Sequence[int]]],
    initial: InterferometerConfig,
) -> CalibrationModel:
    """Weighted least-squares fit of (r, eta_h, eta_v, overlap, phase_offset).

    ``samples`` is a list of (phi, counts) with counts in (n00, n01, n10, n11)
    order, at least 8 distinct phases spanning half a period. The fit starts
    from ``initial`` with r at the mean of its r1 and r2, and sets r1 = r2 = r.
    ``fit_residual`` is the minimized weighted sum of squares, ``sigma`` each
    parameter's standard error from the inverse Fisher matrix; ``degraded``
    means the iteration cap was hit, or that matrix is singular or gives a
    standard error wider than a parameter's bounds (sigma null).
    The fit ends when a step lowers the cost by at most 1e-12 of the cost, or
    of 1 where the cost is below 1.
    """
    phis = np.array([float(p) for p, _ in samples])
    if np.unique(np.round(phis, 12)).size < 8:
        raise ValueError("calibration needs at least 8 distinct phases")
    if phis.max() - phis.min() < _HALF_PERIOD - 1e-9:
        raise ValueError("calibration phases must span at least half a period (pi/2)")
    freqs, totals = _frequencies([counts for _, counts in samples])
    if not totals.all():
        raise UnidentifiableError("a calibration sample has no counts")

    lo, hi = _FIT_BOUNDS
    theta = np.clip([0.5 * (initial.r1 + initial.r2), initial.eta_h, initial.eta_v, initial.overlap,
                     initial.phase_offset], lo, hi)
    n = totals[:, None]
    # multinomial weights, fixed at the start point
    weight = np.sqrt(n / np.maximum(fringe(_fitted_config(initial, theta), phis), 1.0 / n))

    def residual(t: np.ndarray) -> np.ndarray:
        return ((fringe(_fitted_config(initial, t), phis) - freqs.T) * weight).ravel()

    def jacobian(t: np.ndarray) -> np.ndarray:
        # central differences, one-sided at a bound
        up, down = np.minimum(t + _JAC_STEPS, hi), np.maximum(t - _JAC_STEPS, lo)
        return np.stack([residual(u) - residual(d) for u, d in zip(up, down)], axis=1) / np.diag(up - down)

    res = residual(theta)
    cost = float(res @ res)
    damping = _DAMPING
    for _ in range(_MAX_ITER):
        jac = jacobian(theta)
        info, grad = jac.T @ jac, jac.T @ res
        # a parameter at a bound whose descent direction points outward stays put
        free = (np.diag(info) > 0.0) & ~(((theta <= lo) & (grad > 0.0)) | ((theta >= hi) & (grad < 0.0)))
        block = info[np.ix_(free, free)]
        gain = 0.0
        while free.any() and damping < _MAX_DAMPING:
            step = np.zeros_like(theta)
            step[free] = np.linalg.solve(block + damping * np.diag(np.diag(block)), -grad[free])
            trial = np.clip(theta + step, lo, hi)
            trial_res = residual(trial)
            trial_cost = float(trial_res @ trial_res)
            if trial_cost < cost:
                gain = cost - trial_cost
                theta, res, cost = trial, trial_res, trial_cost
                damping /= 10.0
                break
            damping *= 10.0
        # a data set that the model fits exactly has a cost falling toward 0,
        # where a relative test alone would never end the fit
        if gain <= _REL_GAIN * max(cost, 1.0):
            break
    degraded = gain > _REL_GAIN * max(cost, 1.0)  # the iteration cap ended the fit

    scale = np.sqrt(np.diag(info))
    sd = np.full(len(_FIT_NAMES), np.inf)
    if scale.all() and np.linalg.eigvalsh(info / np.outer(scale, scale))[0] > _SINGULAR:
        sd = np.sqrt(np.diag(np.linalg.inv(info)))
    if np.all(sd <= hi - lo):
        sigma = dict(zip(_FIT_NAMES, sd.tolist()))
    else:
        # a singular Fisher matrix, or a standard error wider than the bounds
        # of its parameter: the data do not identify the fit
        sigma, degraded = dict.fromkeys(_FIT_NAMES), True
    return CalibrationModel.from_config(_fitted_config(initial, theta), fit_residual=cost, degraded=degraded,
                                        sigma=sigma)


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
    nodes, values, step, length2 = cal._branch_nodes(*_check_branch(branch))

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
        info[~dead] = fisher(cal.config, phi_est[~dead])
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
