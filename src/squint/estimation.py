"""Calibration curves, least-squares phase estimation, and bootstrap.

The estimator follows the measurement protocol: a window's whole click counts,
as frequencies f, are matched against the calibrated p_ij(phi) curves by
minimizing the unweighted squared difference sum_k (p_k(phi) - f_k)^2 over a
half-period branch. The curves interpolate linearly between calibration
nodes, so on the segment from node value a to a + d the objective is an exact
quadratic whose minimum is the distance from f to the segment, at
u* = clip((f - a).d / |d|^2, 0, 1). ``estimate_phases`` takes the best
segment for a whole batch of windows at once; every other estimate is a view
of it. A per-branch table turns the distances of every segment into one
matrix product with the frequencies, accurate to a few 1e-15; the segments
within a margin of the best of these are the shortlist, and the exact
formula above picks among them, the first on a tie. The margin covers the
product's roundoff many times over, so the pick is that of a full exact
scan, bit for bit, whatever the batch.

A window is flagged low-information when n F(phi_est) < 1, exactly. A lower
bound on F, proven from the calibration table's dp/dphi, clears most windows
without a click call; the rest take one batched ``fisher`` call (_estimates).

Calibration fits (r, eta_h, eta_v, overlap, phase_offset) to observed fringes
by a bounded Levenberg-Marquardt fit (More, LNM 630 (1978)) of residuals
weighted by the multinomial variance. It fits one gain r = r1 = r2: where the
two are equal the click statistics have a null direction along r1 - r2.
Standard errors come from (J^T J)^-1 of the last Jacobian the fit formed,
before its last accepted step and with the start point's weights: not the
inverse Fisher matrix at the fit (0.67 to 1.49 times it from a far start).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .detection import _extremes, _phases, clicks, fringe
from .gaussian import InterferometerConfig, _is_pair, _mapping, _number, _numbers
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

CALIBRATION_SCHEMA = "squint-calibration/3"
_CALIBRATION_KEYS = {"schema", "config", "fit_residual", "degraded", "sigma"}

_HALF_PERIOD = math.pi / 2.0
# the grid of every model's curves: 2048 intervals over [0, pi]
_PHI_TAB = np.linspace(0.0, math.pi, 2049)
_PHI_TAB.setflags(write=False)
# calibrate: fitted parameters, bounds, Jacobian steps, damping (start, and the
# cap past which no step lowers the cost), the cost gain that ends the fit,
# relative to the cost or to 1 (the residuals are in standard deviations) if
# that is larger, the iteration cap, and the eigenvalue floor of the
# correlations of J^T J
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
# the shortlist's margin over the best approximate distance. Every term of
# both the table's and the exact formula's distances is at most 4 (f and the
# node values are probability vectors), so each is within about 100 eps =
# 2.2e-14 of the true distance: the margin holds every segment that a full
# exact scan could pick, and every row the prefilter cannot tell from flat
_MARGIN = 1e-12
# a segment shorter than 1e-100 is a point to the shortlist: its distance
# varies by less than 1e-99 along it, and 1/|d|^2 stays finite
_POINT = 1e-200
# a whole count is exact as a float, and so is every partial sum of a window,
# while the window's total is below this
_EXACT = 2.0**53
# the low-information bound: steps of the calibration grid per radian, the
# offsets of a node pair, and the unit roundoff
_PER_RAD = (_PHI_TAB.size - 1) / math.pi
_PAIR = np.arange(2)[:, None]
_EPS = np.finfo(float).eps


class UnidentifiableError(ValueError):
    """The observed data carry no usable phase information on this branch."""


def _finite_or_null(value):
    """Strict JSON has no NaN or infinities: they are written as null. An array
    is written as a list, a record array as one object per row."""
    if isinstance(value, np.ndarray):
        names = value.dtype.names
        value = [dict(zip(names, row)) for row in value.tolist()] if names else value.tolist()
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path, payload) -> None:
    """Write ``payload`` as strict, indented JSON with sorted keys."""
    text = json.dumps(_finite_or_null(payload), indent=1, sort_keys=True, allow_nan=False)
    Path(path).write_text(text)


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not strict JSON")


def read_json(path):
    """The value of a strict JSON file: NaN and Infinity tokens are refused."""
    return json.loads(Path(path).read_text(), parse_constant=_refuse_constant)


@dataclass(frozen=True)
class PhaseEstimate:
    """Single-window phase estimate on a half-period branch."""

    phi_est: float
    window_trials: int
    objective_value: float
    low_information: bool = False


@dataclass(frozen=True)
class CalibrationModel:
    """Fitted interferometer parameters and the p_ij(phi) curves they give.

    A fitted model carries ``fit_residual`` (finite, >= 0), ``degraded`` (a
    boolean) and ``sigma`` (``{}``, or the standard errors of all five fitted
    parameters, finite and >= 0, or None in a degraded fit); see calibrate.
    ``curves`` and ``slopes`` are derived, read-only p and dp/dphi of
    ``clicks(config, phi_tab)`` on the grid ``phi_tab`` of 2049 points over
    [0, pi] shared by all models, views of that call's one array (p is a copy
    only where roundoff was clamped), so ``==`` compares the fit alone and the
    node table ``estimate_phases`` keeps cannot go stale.
    """

    config: InterferometerConfig
    fit_residual: float = 0.0
    degraded: bool = False
    sigma: dict = field(default_factory=dict)
    phi_tab: ClassVar[np.ndarray] = _PHI_TAB
    curves: np.ndarray = field(init=False, repr=False, compare=False)
    slopes: np.ndarray = field(init=False, repr=False, compare=False)
    _nodes: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        degraded, residual, sigma = self.degraded, self.fit_residual, self.sigma
        if type(degraded) is not bool:
            raise ValueError(f"degraded must be a boolean, got {degraded!r}")
        _number("fit_residual", residual, 0)
        for name, v in _mapping("sigma", sigma, _FIT_NAMES, _FIT_NAMES if sigma else ()).items():
            if not (v is None and degraded):  # null only in a degraded fit
                _number(f"sigma[{name!r}]", v, 0)
        curves, slopes = clicks(self.config, _PHI_TAB)
        curves.setflags(write=False)
        slopes.setflags(write=False)
        object.__setattr__(self, "fit_residual", float(residual))
        object.__setattr__(self, "sigma", {name: None if v is None else float(v) for name, v in sigma.items()})
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "slopes", slopes)

    @classmethod
    def from_config(cls, config: InterferometerConfig, **fit) -> "CalibrationModel":
        """The model of a known configuration; ``fit`` as for the constructor."""
        return cls(config, **fit)

    def probabilities(self, phi) -> np.ndarray:
        """Interpolated calibration curves at phi (scalar -> (4,), array -> (N, 4));
        refuses a non-finite phase."""
        wrapped = np.mod(_phases(phi), math.pi)
        p = np.stack([np.interp(wrapped, self.phi_tab, self.curves[:, j]) for j in range(4)], axis=-1)
        return p.reshape(np.shape(phi) + (4,))

    def _branch_nodes(self, lo: float, hi: float) -> tuple[np.ndarray, ...]:
        """The search table of the branch [lo, hi], built once and kept for the
        last branch (see _estimates): the nodes of the interpolated curves and
        their values a (nodes, 4); the product table (4, nodes + segments); the
        segments' squared lengths |d|^2 and 1/(2 |d|^2), 0 at a point (_POINT);
        and each segment's row (d, |d|^2), |d|^2 inf at zero length, so u = 0
        there."""
        if self._nodes is None or self._nodes[0] != (lo, hi):
            # the branch ends plus every calibration node strictly inside, pi-periodically
            shifts = math.pi * np.arange(math.floor(lo / math.pi), math.floor(hi / math.pi) + 1)
            inner = (self.phi_tab[:-1] + shifts[:, None]).ravel()
            nodes = np.concatenate(([lo], inner[(inner > lo) & (inner < hi)], [hi]))
            values = self.probabilities(nodes)
            step = np.diff(values, axis=0)
            length2 = _dot4(step.T, step.T)
            # with sum_k f_k = 1, f.(|a|^2 - 2a) = |f - a|^2 - |f|^2 and f.2(d - a.d) = 2 (f - a).d
            table = np.concatenate([_dot4(values.T, values.T) - 2.0 * values.T,
                                    2.0 * (step.T - _dot4(values[:-1].T, step.T))], axis=1)
            half = np.divide(0.5, length2, out=np.zeros_like(length2), where=length2 > _POINT)
            steps = np.concatenate([step, np.where(length2 > 0.0, length2, np.inf)[:, None]], axis=1)
            object.__setattr__(self, "_nodes", ((lo, hi), nodes, values, table, length2, half, steps))
        return self._nodes[1:]

    def to_dict(self) -> dict:
        return {
            "schema": CALIBRATION_SCHEMA,
            "config": asdict(self.config),
            "fit_residual": self.fit_residual,
            "degraded": self.degraded,
            "sigma": self.sigma,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationModel":
        """Load the keys ``to_dict`` writes, and no others; the constructor
        checks the config and the fit."""
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema != CALIBRATION_SCHEMA or set(data) != _CALIBRATION_KEYS:
            raise ValueError(f"need a {CALIBRATION_SCHEMA} object with the keys {sorted(_CALIBRATION_KEYS)}, "
                             f"got schema {schema!r}")
        config = InterferometerConfig(**_mapping("config", data["config"], InterferometerConfig))
        return cls(config, data["fit_residual"], data["degraded"], data["sigma"])

    def to_json(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def from_json(cls, path) -> "CalibrationModel":
        """Load a strict JSON file (``read_json``)."""
        return cls.from_dict(read_json(path))


def _dot4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the leading outcome axis of a * b, in a fixed order so that a
    row's result never depends on the batch it sits in."""
    ab = a * b
    return ab[0] + ab[1] + ab[2] + ab[3]


def _curvature_bound(r1: float) -> float:
    """C(r1) = 2 sqrt(E N^4) + 2 E N^2 with N = 2n, n geometric of mean mu =
    sinh^2 r1: a bound on |d^2 p_k/dphi^2| of every config with this r1 (see
    _estimates); 0 at r1 = 0, where the phase cannot act."""
    mu = math.sinh(r1) ** 2
    return 8.0 * math.sqrt(((24.0 * mu + 36.0) * mu + 14.0) * mu * mu + mu) + 8.0 * (2.0 * mu + 1.0) * mu


def _frequencies(counts) -> tuple[np.ndarray, np.ndarray]:
    """Rows (W, 4) of whole counts -> frequencies (W, 4) and totals (W,); the
    one check of click data. The counts must be numbers (``gaussian._numbers``),
    and each window's total below 2^53, where floats still hold every whole
    number."""
    _numbers("counts", counts)
    obs = np.asarray(counts, dtype=float)
    if obs.ndim != 2 or obs.shape[1] != 4:
        raise ValueError(f"counts must have shape (windows, 4), got {obs.shape}")
    # 0 <= count <= 2^53 and whole (a NaN fails both), so the totals stay finite
    lo, hi = _extremes(obs)
    if not (lo >= 0.0 and hi <= _EXACT and not _extremes(obs != np.rint(obs))[1]):
        raise ValueError("counts must be finite, whole and non-negative, each at most 2**53")
    totals = np.add.reduce(obs, 1)  # exact below 2^53, and rounding never takes a larger sum below it
    if not _extremes(totals)[1] < _EXACT:
        raise ValueError(f"a window's total of counts must be below 2**53, got {totals.max():.17g}")
    return obs / np.maximum(totals, 1.0)[:, None], totals  # an empty window's frequencies are 0


def _window(counts) -> tuple[np.ndarray, np.ndarray]:
    """``_frequencies`` of one window's counts; an array stays one, so it takes the dtype test."""
    return _frequencies(counts[None] if isinstance(counts, np.ndarray) else [counts])


def _fitted_config(initial: InterferometerConfig, theta) -> InterferometerConfig:
    """``initial`` with the fitted parameters theta as plain floats and r1 = r2 = r."""
    r, eta_h, eta_v, overlap, phase_offset = (float(v) for v in theta)
    return initial.with_updates(r1=r, r2=r, eta_h=eta_h, eta_v=eta_v, overlap=overlap, phase_offset=phase_offset)


def calibrate(
    samples: Sequence[tuple[float, Sequence[int]]],
    initial: InterferometerConfig,
) -> CalibrationModel:
    """Weighted least-squares fit of (r, eta_h, eta_v, overlap, phase_offset).

    ``samples`` is a list of (phi, counts) with whole counts in (n00, n01,
    n10, n11) order, at least 8 distinct phases spanning half a period. The
    fit starts from ``initial`` with r at the mean of its r1 and r2, and sets
    r1 = r2 = r. ``fit_residual`` is the minimized weighted sum of squares,
    ``sigma`` each parameter's standard error from (J^T J)^-1 (module docstring);
    ``degraded`` means the iteration cap was hit, or that matrix is singular
    or gives a standard error wider than a parameter's bounds (sigma null).
    The fit ends when a step lowers the cost by at most 1e-12 of the cost, or
    of 1 where the cost is below 1.
    """
    phis = _phases([p for p, _ in samples])
    if phis.size != len(samples):
        raise ValueError("each calibration sample needs one phase")
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
        return ((fringe(_fitted_config(initial, t), phis) - freqs) * weight).ravel()

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
        # a singular J^T J, or a standard error wider than the bounds
        # of its parameter: the data do not identify the fit
        sigma, degraded = dict.fromkeys(_FIT_NAMES), True
    return CalibrationModel.from_config(_fitted_config(initial, theta), fit_residual=cost, degraded=degraded,
                                        sigma=sigma)


def _check_branch(branch: tuple[float, float]) -> tuple[float, float]:
    """The branch (lo, hi), a list or tuple of numbers, as floats, hi > lo and at most pi/2 wide."""
    if not _is_pair(branch):
        raise ValueError(f"branch must be a pair (lo, hi) of numbers, got {branch!r}")
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares phase of every window, exact on the interpolated curves.

    ``counts`` has one row (n00, n01, n10, n11) of whole counts per window;
    returns ``phi_est``, ``objective_value`` and ``low_information``, each of
    shape (windows,). A window's trials n are its total of counts, and it has
    low information when n * F(phi_est) < 1. A window without counts or with
    an objective flat over ``branch`` (width at most pi/2) gets (nan, nan,
    True).
    """
    return _estimates(*_frequencies(counts), cal, branch)


def _search(freqs, cal: CalibrationModel, lo: float, hi: float):
    """The least-squares phase and objective of the windows' frequencies (W, 4)
    on the branch [lo, hi], and whether each objective is flat.

    Per batch, one product with the branch's table gives |f - a|^2 - |f|^2 at
    every node and 2 (f - a).d on every segment, so each segment's distance
    up to the window's constant |f|^2; the segments within _MARGIN of the
    best are scored by the exact formula, which picks the first best one."""
    nodes, values, table, length2, half, steps = cal._branch_nodes(lo, hi)
    size = freqs.shape[0]
    phi_est, objective, flat = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    rows = max(1, _BATCH_CELLS // nodes.size)
    for w in range(0, size, rows):
        f = freqs[w:w + rows]
        near = f @ table  # (batch, nodes + segments)
        at_nodes, dist = near[:, :nodes.size], near[:, nodes.size:]
        # the objective's range over the nodes, exact where the prefilter cannot tell it from flat
        level = flat[w:w + rows]
        np.less(np.maximum.reduce(at_nodes, 1) - np.minimum.reduce(at_nodes, 1), _FLAT + _MARGIN, level)
        if level[level.argmax()]:  # any
            gap = f[level].T[:, :, None] - values.T[:, None]
            at = _dot4(gap, gap)
            level[level] = at.max(axis=1) - at.min(axis=1) < _FLAT
        # the distance at u = clip(2 (f - a).d / 2 |d|^2, 0, 1): |f - a|^2 - u (2 (f - a).d - u |d|^2)
        u = np.multiply(dist, half)
        np.minimum(np.maximum(u, 0.0, out=u), 1.0, out=u)
        np.subtract(dist, u * length2, dist)
        np.multiply(dist, u, dist)
        np.subtract(at_nodes[:, :-1], dist, dist)
        short = dist <= np.minimum.reduce(dist, 1, keepdims=True) + _MARGIN
        row, seg = np.divmod(short.ravel().nonzero()[0], dist.shape[1])
        # the shortlist by the exact formula, from the rows a and (d, |d|^2) of its segments
        x = steps.take(seg, axis=0).T
        gap = f.take(row, axis=0).T - values.take(seg, axis=0).T
        u = (_dot4(gap, x[:4]) / x[4]).clip(0.0, 1.0)
        resid = gap - u * x[:4]
        segment = _dot4(resid, resid)
        # the first of each row's least distances: row is sorted, and lexsort is stable
        best = np.lexsort((segment, row))[np.searchsorted(row, np.arange(f.shape[0]))]
        j, u = seg[best], u[best]
        phi_est[w:w + rows] = (1.0 - u) * nodes[j] + u * nodes[j + 1]
        objective[w:w + rows] = segment[best]
    return phi_est, objective, flat


def _estimates(freqs, totals, cal: CalibrationModel, branch: tuple[float, float]):
    """``estimate_phases`` of the windows' frequencies (W, 4) and totals (W,):
    the search, then the low-information flag, exact, from a proven bound or
    a batched ``fisher`` call. The search's scratch is freed before the flag's."""
    lo, hi = _check_branch(branch)
    phi_est, objective, flat = _search(freqs, cal, lo, hi)
    dead = flat | (totals <= 0)
    # The flag n F(phi_est) < 1 comes from the exact ``fisher`` unless a proven
    # bound clears it. With t = phi + phase_offset, p_k = Tr[e^{-iNt} rho e^{iNt}
    # Pi_k]: rho is the state before the phase, N = n_a + n_b the photon number
    # the phase acts on, and 0 <= Pi_k <= I outcome k pulled back through the
    # mismatch rotation, the second squeezer, the arm losses and the detectors.
    # So p_k'' = -<[N, [N, Pi_k]]>, and by Cauchy-Schwarz |p_k''| <= 2 sqrt(E N^4)
    # + 2 E N^2 (the generator argument of Braunstein & Caves, PRL 72, 3439
    # (1994)). The rotation conserves N and the internal loss thins it, so these
    # raw moments are at most those of the lossless two-mode squeezed vacuum:
    # |p_k''| <= C(r1) (_curvature_bound). Coarse-graining to "k or not k" gives
    # F >= p_k'^2 / (p_k (1 - p_k)) >= 4 p_k'^2. So with phi_e either
    # calibration node around phi_est mod pi, F(phi_est) >= 4 L^2 for L =
    # max_e max_k |p_k'(phi_e)| - C (|phi_est mod pi - phi_e| + delta), if L > 0.
    # delta = 4 eps (max(|lo|, |hi|) + |phase_offset| + pi) bounds the rounding
    # of the phases: their sums with the offset, the reduction mod pi and the
    # exponential of each. A window with n L^2 >= 1/2, so n F >= 2, is not
    # low-information; the factor 2 covers the roundoff of p, dp and F, each
    # accurate to about 1e-13 relative. At the stationary points t = 0 and
    # pi/2 every dp vanishes, so L is small there and those windows take the
    # exact call by themselves. A dead window's estimate is a finite phase on
    # the branch too. The nodes (2, windows) are j and j + 1 with j = floor(
    # (phi_est mod pi) / node step); take clips j + 1 = 2049 at phi_est mod pi
    # = pi to the last node, and the bound holds at any node.
    t = np.mod(phi_est, math.pi)
    ends = (t * _PER_RAD).astype(np.intp) + _PAIR
    curvature = _curvature_bound(cal.config.r1)
    slopes = cal.slopes.T.take(ends, 1, mode="clip")
    lower = np.maximum.reduce(np.abs(slopes, out=slopes), 0)
    reach = np.abs(t - _PHI_TAB.take(ends, mode="clip"))
    reach += 4.0 * _EPS * (max(-lo, hi) + abs(cal.config.phase_offset) + math.pi)
    lower -= curvature * reach
    lower = np.maximum.reduce(lower, 0, initial=0.0)
    # the exact flag of every live window the bound leaves open; one phase's
    # Fisher information does not depend on the others in the call
    low = dead.copy()
    exact = (totals * lower * lower < 0.5) & ~dead
    if exact.any():
        low[exact] = totals[exact] * fisher(cal.config, phi_est[exact]) < 1.0
    phi_est[dead] = objective[dead] = math.nan
    return phi_est, objective, low


def estimate_phase(
    observed,
    cal: CalibrationModel,
    branch: tuple[float, float],
    trials: int = 0,
) -> PhaseEstimate:
    """One window of ``estimate_phases``: whole counts (n00, n01, n10, n11),
    whose total is ``window_trials``. A nonzero ``trials`` is checked against
    that total and raises ValueError if it differs. Raises UnidentifiableError
    when the window carries no phase information on the branch.
    """
    freqs, totals = _window(observed)
    total = int(totals[0])
    if _number("trials", trials, 0, integer=True) and trials != total:
        raise ValueError(f"trials {trials!r} differs from the window's total of counts {total}")
    (phi,), (value,), (low,) = (a.tolist() for a in _estimates(freqs, totals, cal, branch))
    if math.isnan(phi):
        raise UnidentifiableError("no phase information on the branch: empty data or a flat objective")
    return PhaseEstimate(phi_est=phi, window_trials=total, objective_value=value, low_information=low)


def bootstrap_sigma(
    counts,
    cal: CalibrationModel,
    branch: tuple[float, float],
    resamples: int = 200,
    seed: int | np.random.Generator = 0,
) -> float:
    """Std of the phase estimate over multinomial resamples of one window's
    whole counts (n00, n01, n10, n11), each resample of the window's total.

    ``seed`` is an integer seed in [0, 2^64) or a ready generator, used as
    given.
    """
    freqs, (total,) = _window(counts)
    resamples = _number("resamples", resamples, 100, integer=True)
    if not isinstance(seed, np.random.Generator):
        seed = _number("seed", seed, 0, 2**64 - 1, integer=True)
    if total < 1000:
        raise ValueError(f"need at least 1000 total counts, got {total:.0f}")
    if np.count_nonzero(freqs) < 2:
        raise UnidentifiableError("all counts fall in a single outcome")
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(int(total), freqs[0], size=resamples)
    estimates = estimate_phases(draws, cal, branch)[0]
    if np.isnan(estimates).any():
        raise UnidentifiableError("objective is flat on the branch")
    return float(np.std(estimates, ddof=1))
