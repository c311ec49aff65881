"""Calibration curves, least-squares phase estimation, and bootstrap.

The estimator follows the measurement protocol: a window's whole click counts,
as frequencies f, are matched against the calibrated p_ij(phi) curves by
minimizing the unweighted squared difference sum_k (p_k(phi) - f_k)^2 over a
half-period branch. The curves interpolate linearly between calibration
nodes, so on the segment from node value a to a + d the objective is an exact
quadratic whose minimum is the distance from f to the segment, at
u* = clip((f - a).d / |d|^2, 0, 1). ``estimate_phases`` takes the best
segment for a whole batch of windows at once, and ``run_tracking``,
``bootstrap_sigma`` and ``squint estimate`` call it. A per-branch table turns
the distances |f - a|^2 to every node into one matrix product with the
frequencies, accurate to a few 1e-15. A segment within a margin of the best
distance has an end at most half the longest segment farther than the
nearest node: the segments with such an end are the shortlist. One scorer,
``_closest``, applies the exact formula above to each window's shortlist in
Python floats, in ascending order, and keeps the first least distance; both
``estimate_phases`` and ``estimate_phase`` call it. The margin covers the
product's roundoff many times over, so the pick is that of a full exact scan,
bit for bit, whatever the batch.

A window is flagged low-information when n F(phi_est) < 1, exactly. A lower
bound on F over each segment, proven from the calibration table's dp/dphi
and kept in the branch table as the least n it clears, settles most windows
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
# estimate_phases: windows x nodes per batch; the fig4 replay's 2200 windows
# peak at 0.42 MB traced, as many far windows at 0.43 MB
_BATCH_CELLS = 16384
# an objective varying less than this over the branch nodes carries no phase
_FLAT = 1e-15
# the shortlist's margin. Every term of both the table's and the exact
# formula's distances is at most 4 (f and the node values are probability
# vectors), so each is within about 100 eps = 2.2e-14 of the true distance:
# the margin holds every segment that a full exact scan could pick, and every
# row the product cannot tell from flat
_MARGIN = 1e-12
# a whole count is exact as a float, and so is every partial sum of a window,
# while the window's total is below this
_EXACT = 2.0**53


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
        """The constructor, kept for ``perfbench/worker.py``, which calls and traces it."""
        return cls(config, **fit)

    def probabilities(self, phi) -> np.ndarray:
        """Interpolated calibration curves at phi, shape np.shape(phi) + (4,)
        (scalar -> (4,)); refuses a non-finite phase."""
        wrapped = np.mod(_phases(phi), math.pi)
        p = np.stack([np.interp(wrapped, self.phi_tab, self.curves[:, j]) for j in range(4)], axis=-1)
        return p.reshape(np.shape(phi) + (4,))

    def _branch_nodes(self, lo: float, hi: float) -> tuple:
        """The search table of the branch [lo, hi], built once and kept for the
        last branch: the nodes of the interpolated curves and their values a
        (nodes, 4); the product table (4, nodes); half the longest segment;
        and each segment's row (a, d, |d|^2, its two nodes, need) as a list of
        Python floats, which ``_closest`` reads, |d|^2 inf at zero length, so
        u = 0 there, and need the total of counts from which the segment's
        bound on F clears the flag."""
        if self._nodes is None or self._nodes[0] != (lo, hi):
            # the branch ends plus every calibration node strictly inside, pi-periodically
            shifts = math.pi * np.arange(math.floor(lo / math.pi), math.floor(hi / math.pi) + 1)
            inner = (self.phi_tab[:-1] + shifts[:, None]).ravel()
            nodes = np.concatenate(([lo], inner[(inner > lo) & (inner < hi)], [hi]))
            values = self.probabilities(nodes)
            step = np.diff(values, axis=0)
            length2 = _dot4(step.T, step.T)
            # with sum_k f_k = 1, f.(|a|^2 - 2a) = |f - a|^2 - |f|^2
            table = _dot4(values.T, values.T) - 2.0 * values.T
            # The flag n F(phi_est) < 1 comes from the exact ``fisher`` unless a
            # proven bound clears it. With t = phi + phase_offset, p_k = Tr[e^{-iNt}
            # rho e^{iNt} Pi_k]: rho is the state before the phase, N = n_a + n_b
            # the photon number the phase acts on, and 0 <= Pi_k <= I outcome k
            # pulled back through the mismatch rotation, the second squeezer, the
            # arm losses and the detectors. So p_k'' = -<[N, [N, Pi_k]]>, and by
            # Cauchy-Schwarz |p_k''| <= 2 sqrt(E N^4) + 2 E N^2 (the generator
            # argument of Braunstein & Caves, PRL 72, 3439 (1994)). The rotation
            # conserves N and the internal loss thins it, so these raw moments are
            # at most those of the lossless two-mode squeezed vacuum: |p_k''| <=
            # C(r1) (_curvature_bound). Coarse-graining to "k or not k" gives F >=
            # p_k'^2 / (p_k (1 - p_k)) >= 4 p_k'^2. Each segment lies in one
            # interval of the calibration grid, counted from the grid nodes at or
            # below lo, so with phi_e either end of it, F >= 4 L^2 on the segment
            # for L = max_e max_k |p_k'(phi_e)| - C (grid step + delta), if L > 0.
            # delta = 4 eps (max(|lo|, |hi|) + |phase_offset| + pi) bounds the
            # rounding of the phases: their sums with the offset, the shifts by
            # multiples of pi and the exponential of each. A window with n L^2 >=
            # 1/2, n >= need = 1/(2 L^2), so n F >= 2, is not low-information; the
            # factor 2 covers the roundoff of p, dp, F and need, each accurate to
            # about 1e-13 relative. At the stationary points t = 0 and pi/2 every
            # dp vanishes, so L is small there and those windows take the exact
            # call by themselves.
            grid = (np.searchsorted(inner, lo, "right") - 1 + np.arange(step.shape[0])) % (self.phi_tab.size - 1)
            peak = np.maximum.reduce(np.abs(self.slopes), 1)
            delta = 4.0 * np.finfo(float).eps * (max(-lo, hi) + abs(self.config.phase_offset) + math.pi)
            lower = np.maximum(peak[grid], peak[grid + 1])
            lower -= _curvature_bound(self.config.r1) * (self.phi_tab[1] + delta)
            # inf where L <= 1e-100, whose need is past any total of counts
            need = np.divide(0.5, lower * lower, out=np.full_like(lower, np.inf), where=lower > 1e-100)
            rows = np.column_stack([values[:-1], step, np.where(length2 > 0.0, length2, np.inf), nodes[:-1],
                                    nodes[1:], need]).tolist()
            object.__setattr__(self, "_nodes", ((lo, hi), nodes, values, table, 0.5 * math.sqrt(length2.max()), rows))
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
    CalibrationModel._branch_nodes); 0 at r1 = 0, where the phase cannot act."""
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
    # 0 <= count <= 2^53 and whole (a NaN fails both; an integer array is whole), so the totals stay finite
    lo, hi = _extremes(obs)
    whole = isinstance(counts, np.ndarray) and counts.dtype.kind in "iu"
    if not (lo >= 0.0 and hi <= _EXACT and (whole or not _extremes(obs != np.rint(obs))[1])):
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
    # the distinct rounded phases, counted without np.unique, which imports numpy.ma
    if np.count_nonzero(np.diff(np.sort(np.round(phis, 12)))) < 7:
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
    return CalibrationModel(_fitted_config(initial, theta), fit_residual=cost, degraded=degraded, sigma=sigma)


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


def _closest(f, segments, shortlist) -> tuple[float, float, float]:
    """(phase, distance, need) of the segment nearest to f, four floats, among
    the rows ``segments[j]`` of ``_branch_nodes`` for j in ``shortlist``, in
    ascending order: the exact formula in ``_dot4``'s order of sums, a clip that
    keeps a zero's sign, the first least distance; (nan, inf, inf) for none."""
    f0, f1, f2, f3 = f
    phi, value, need = math.nan, math.inf, math.inf
    for j in shortlist:
        a0, a1, a2, a3, d0, d1, d2, d3, length2, start, stop, need_j = segments[j]
        g0, g1, g2, g3 = f0 - a0, f1 - a1, f2 - a2, f3 - a3
        u = (((g0 * d0 + g1 * d1) + g2 * d2) + g3 * d3) / length2
        u = 0.0 if u < 0.0 else 1.0 if u > 1.0 else u
        r0, r1, r2, r3 = g0 - u * d0, g1 - u * d1, g2 - u * d2, g3 - u * d3
        distance = ((r0 * r0 + r1 * r1) + r2 * r2) + r3 * r3
        if distance < value:
            phi, value, need = (1.0 - u) * start + u * stop, distance, need_j
    return phi, value, need


def _search(freqs, cal: CalibrationModel, lo: float, hi: float):
    """The least-squares phase and objective of the windows' frequencies (W, 4)
    on the branch [lo, hi], the need of its segment, and which windows are
    dead: empty, or with an objective flat over the branch.

    Per batch, one product with the branch's table gives |f - a|^2 - |f|^2 at
    every node, least at the nearest node, N^2 - |f|^2. A segment of length l
    <= 2 rho holds no point nearer to f than min_e |f - a_e| - l/2 over its
    ends e. So a segment within _MARGIN of the best distance, itself at most
    N^2, has an end with |f - a_e|^2 <= N^2 + 2 rho sqrt(N^2 + _MARGIN) + rho^2
    + _MARGIN. The segments with an end below that plus a second _MARGIN for
    roundoff are a live window's shortlist, which ``_closest`` scores."""
    nodes, values, table, rho, segments = cal._branch_nodes(lo, hi)
    found, dead = np.empty((3, len(freqs))), np.empty(len(freqs), dtype=bool)
    rows, slack, width = max(1, _BATCH_CELLS // nodes.size), rho * rho + 2.0 * _MARGIN, len(segments)
    for w in range(0, len(freqs), rows):
        f = freqs[w:w + rows]
        near = f @ table  # (batch, nodes)
        least = np.minimum.reduce(near, 1)
        # the objective's range over the nodes, exact where the product cannot
        # tell it from flat, as that of an empty window (f = 0) always is
        level = dead[w:w + rows]
        np.less(np.maximum.reduce(near, 1) - least, _FLAT + _MARGIN, level)
        if level[level.argmax()]:  # any
            gap = f[level].T[:, :, None] - values.T[:, None]
            at = _dot4(gap, gap)
            level[level] = (at.max(axis=1) - at.min(axis=1) < _FLAT) | ~f[level].any(axis=1)
        bound = np.sqrt(least + np.add.reduce(f * f, 1) + _MARGIN) * (2.0 * rho) + (least + slack)
        end = near <= bound[:, None]
        end[level] = False  # a dead window is not scored
        pairs = (end[:, :-1] | end[:, 1:]).ravel().nonzero()[0]  # row-major; a 2-d nonzero costs 7x more
        cut = np.searchsorted(pairs, np.arange(0, end.shape[0] * width + 1, width)).tolist()
        seg = (pairs % width).tolist()
        best = [_closest(x, segments, seg[i:j]) for x, i, j in zip(f.tolist(), cut, cut[1:])]
        found[:, w:w + rows] = np.array(best).T
    return *found, dead


def _estimates(freqs, totals, cal: CalibrationModel, branch: tuple[float, float]):
    """``estimate_phases`` of the windows' frequencies (W, 4) and totals (W,):
    the search, then the low-information flag, exact, from the proven bound of
    the estimate's segment (_branch_nodes) or a batched ``fisher`` call. The
    search's scratch is freed before the flag's."""
    lo, hi = _check_branch(branch)
    phi_est, objective, need, low = _search(freqs, cal, lo, hi)  # low starts as the dead windows
    phi_est[low] = objective[low] = math.nan
    # the exact flag of every live window the bound leaves open; one phase's
    # Fisher information does not depend on the others in the call
    exact = (totals < need) & ~low
    if np.count_nonzero(exact):
        low[exact] = totals[exact] * fisher(cal.config, phi_est[exact]) < 1.0
    return phi_est, objective, low


def estimate_phase(
    observed,
    cal: CalibrationModel,
    branch: tuple[float, float],
    trials: int = 0,
) -> PhaseEstimate:
    """One window of ``estimate_phases``, bit for bit: whole counts (n00, n01,
    n10, n11), whose total is ``window_trials``. A nonzero ``trials`` is
    checked against that total and raises ValueError if it differs. Raises
    UnidentifiableError when the window carries no phase information on the
    branch.

    A numpy call costs more than scoring a few segments, so this path forms its
    window's shortlist as ``_search`` does without the batch's bookkeeping. An
    empty window, or one the product cannot tell from flat, goes to _estimates.
    """
    freqs, totals = _window(observed)
    total = int(totals[0])
    if _number("trials", trials, 0, integer=True) and trials != total:
        raise ValueError(f"trials {trials!r} differs from the window's total of counts {total}")
    _, _, table, rho, segments = cal._branch_nodes(*_check_branch(branch))
    near = freqs[0] @ table
    least, most = near.item(near.argmin()), near.item(near.argmax())
    if total and most - least >= _FLAT + _MARGIN:
        f = freqs[0].tolist()
        bound = (math.sqrt(least + sum(x * x for x in f) + _MARGIN) * (2.0 * rho)
                 + (least + (rho * rho + 2.0 * _MARGIN)))
        end = near <= bound
        phi, value, need = _closest(f, segments, (end[:-1] | end[1:]).nonzero()[0].tolist())
        low = bool(total < need and total * fisher(cal.config, [phi])[0] < 1.0)
    else:
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
