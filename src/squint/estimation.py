"""Calibration curves, least-squares phase estimation, and bootstrap.

The estimator follows the measurement protocol: a window's whole click counts,
as frequencies f, are matched against the calibrated p_ij(phi) curves by
minimizing the unweighted squared difference sum_k (p_k(phi) - f_k)^2 over a
half-period branch. The curves interpolate linearly between calibration
nodes, so on the segment from node value a to a + d the objective is an exact
quadratic whose minimum is the distance from f to the segment, at
u* = clip((f - a).d / |d|^2, 0, 1). ``estimate_phase`` and
``estimate_phases`` (which ``run_tracking``, ``bootstrap_sigma`` and ``squint
estimate`` call) take each window's best segment from one search,
``_nearest``. A segment within a margin of the best distance has an end at
most half the longest segment farther than the nearest node: the segments
with such an end are the shortlist. A node within R of f lies within R of it
in projection, so the search bisects the nodes' sorted projection for a
window's ends (Friedman, Baskett & Shustek, IEEE Trans. Comput. C-24, 1000
(1975)); a window whose reach holds every node or more than _WIDE of them
takes the exact distances to every node, which also tell a flat objective.
``_closest`` scores each shortlist by the exact formula in Python floats, in
ascending order, keeping the first least distance. The margin covers the
roundoff many times over, so the pick is that of a full exact scan, bit for
bit, whatever the batch.

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
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .detection import _extremes, _fringe_rows, _phases, clicks, fringe
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
# an objective varying less than this over the branch nodes carries no phase
_FLAT = 1e-15
# the shortlist's margin. Every term of the exact formula's distances is at
# most 4 (f and the node values are probability vectors), so each is within
# about 100 eps = 2.2e-14 of the true distance: the margin holds every segment
# that a full exact scan could pick
_MARGIN = 1e-12
# _nearest's reach R in projection: |w.a - w.f| <= |w| |a - f|, and the
# roundoff of w.a and w.f (2 eps each, norms at most 1), |w| (1 eps), R <= 3
# (3 eps) and w.f -+ R (2 eps) is 18 eps = 4e-15, half _SLACK; and the most
# nodes it scores in Python, at about 0.6 us a node against 40 us for the exact
# distances to a fig4 branch's 785 nodes and their shortlist: the two cross
# near 60 nodes
_SLACK, _WIDE = 1e-14, 60
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
        (nodes, 4); half the longest segment; the projection (a unit vector w,
        w.a sorted and the node of each, as lists); and each segment's row (a,
        d, |d|^2, its two nodes, need) as a list of Python floats, which
        ``_closest`` reads, |d|^2 inf at zero length, so u = 0 there, and need
        the total of counts from which the segment's bound on F clears the flag."""
        if self._nodes is None or self._nodes[0] != (lo, hi):
            # the branch ends plus every calibration node strictly inside, pi-periodically
            shifts = math.pi * np.arange(math.floor(lo / math.pi), math.floor(hi / math.pi) + 1)
            inner = (self.phi_tab[:-1] + shifts[:, None]).ravel()
            nodes = np.concatenate(([lo], inner[(inner > lo) & (inner < hi)], [hi]))
            values = self.probabilities(nodes)
            # the projection's unit vector w: along the chord of the end values, if they differ
            chord = values[-1] - values[0]
            w = (chord / math.hypot(*chord) if chord.any() else np.full(4, 0.5)).tolist()
            proj = values @ w
            order = np.argsort(proj, kind="stable")
            step = np.diff(values, axis=0)
            length2 = _dot4(step.T, step.T)
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
            object.__setattr__(self, "_nodes", ((lo, hi), nodes, values, 0.5 * math.sqrt(length2.max()),
                                                (w, proj[order].tolist(), order.tolist()), rows))
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


def _window(counts) -> tuple[list, int]:
    """One window's frequencies, Python floats, and total: for an integer
    array of four counts that ``_frequencies`` accepts, its quotients in
    Python, else its output, an array as one, so it takes the dtype test."""
    whole = counts.tolist() if isinstance(counts, np.ndarray) and counts.shape == (4,) else ()
    if whole and counts.dtype.kind in "iu" and min(whole) >= 0 and sum(whole) < _EXACT:
        return [c / (sum(whole) or 1) for c in whole], sum(whole)
    freqs, totals = _frequencies(counts[None] if isinstance(counts, np.ndarray) else [counts])
    return freqs[0].tolist(), int(totals[0])


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
    # multinomial weights, fixed at the start point, whose fringe also gives the first residual
    start = fringe(_fitted_config(initial, theta), phis)
    weight = np.sqrt(n / np.maximum(start, 1.0 / n))

    def residual(p: np.ndarray) -> np.ndarray:
        return ((p - freqs) * weight).ravel()

    def jacobian(t: np.ndarray) -> np.ndarray:
        # central differences, one-sided at a bound, from one click pass over the ten configs
        up, down = np.minimum(t + _JAC_STEPS, hi), np.maximum(t - _JAC_STEPS, lo)
        res = (_fringe_rows([_fitted_config(initial, x) for x in (*up, *down)], phis) - freqs) * weight
        return np.stack(list((res[:len(t)] - res[len(t):]).reshape(len(t), -1)), axis=1) / np.diag(up - down)

    res = residual(start)
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
            trial_res = residual(fringe(_fitted_config(initial, trial), phis))
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
    the rows ``segments[j]`` of ``_branch_nodes`` for j in ``shortlist``, which
    is not empty, in ascending order: the exact formula in ``_dot4``'s order of
    sums, a clip that keeps a zero's sign, the first least distance."""
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


def _nearest(f, values, rho, projection, segments) -> tuple[float, float, float]:
    """(phase, objective, need) of one window's frequencies f, four floats, on
    the branch table of ``_branch_nodes`` after its nodes; (nan, nan, inf) for
    a dead window: empty (f = 0), or with an objective flat over the branch.

    A segment of length l <= 2 rho holds no point nearer to f than min_e |f -
    a_e| - l/2 over its ends e. So with D a distance that a segment attains, a
    segment within _MARGIN of the best distance has an end with |f - a_e|^2 <=
    D + 2 rho sqrt(D + _MARGIN) + rho^2 + _MARGIN. The segments with an end
    below that plus a second _MARGIN for roundoff are the shortlist, which
    ``_closest`` scores. D is the least distance of the segments at a node next
    to f in projection, and the ends are the nodes within the bound's root plus
    _SLACK of f in projection. A reach that holds that node alone keeps its
    score. One that holds every node, as a flat window's does, or more than
    _WIDE takes the exact distances to every node instead: the least is D,
    and their range is the flat test of a full scan."""
    if not (f[0] or f[1] or f[2] or f[3]):
        return math.nan, math.nan, math.inf
    w, proj, order = projection
    at = ((w[0] * f[0] + w[1] * f[1]) + w[2] * f[2]) + w[3] * f[3]  # w.f
    pos = min(bisect_left(proj, at), len(order) - 1)
    k = order[pos]  # a node next to f in projection
    first = _closest(f, segments, (max(k - 1, 0), min(k, len(segments) - 1)))
    near = first[1]
    reach = math.sqrt(math.sqrt(near + _MARGIN) * (2.0 * rho) + (near + (rho * rho + 2.0 * _MARGIN))) + _SLACK
    i, j = bisect_left(proj, at - reach), bisect_right(proj, at + reach)
    if i == pos and j == pos + 1:
        return first
    if j - i <= _WIDE and j - i < len(proj):
        return _closest(f, segments, sorted({e - d for e in order[i:j] for d in (0, 1)} - {-1, len(segments)}))
    gap = (values - f).T
    exact = _dot4(gap, gap)
    near = exact.min()
    if exact.max() - near < _FLAT:
        return math.nan, math.nan, math.inf
    end = exact <= math.sqrt(near + _MARGIN) * (2.0 * rho) + (near + (rho * rho + 2.0 * _MARGIN))
    return _closest(f, segments, (end[:-1] | end[1:]).nonzero()[0].tolist())


def _estimates(freqs, totals, cal: CalibrationModel, branch: tuple[float, float]):
    """``estimate_phases`` of the windows' frequencies (W, 4) and totals (W,):
    ``_nearest`` of each window, then the low-information flag, exact, from the
    proven bound of the estimate's segment (_branch_nodes) or a batched
    ``fisher`` call."""
    table = cal._branch_nodes(*_check_branch(branch))[1:]
    found = np.fromiter((_nearest(f, *table) for f in map(np.ndarray.tolist, freqs)), (float, 3), len(freqs))
    phi_est, objective, need = found.T
    low = np.isnan(phi_est)  # the dead windows
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
    """One window of ``estimate_phases``, bit for bit, from the same
    ``_nearest``: whole counts (n00, n01, n10, n11), whose total is
    ``window_trials``. A nonzero ``trials`` is checked against that total and
    raises ValueError if it differs. Raises UnidentifiableError when the window
    carries no phase information on the branch.
    """
    f, total = _window(observed)
    if _number("trials", trials, 0, integer=True) and trials != total:
        raise ValueError(f"trials {trials!r} differs from the window's total of counts {total}")
    phi, value, need = _nearest(f, *cal._branch_nodes(*_check_branch(branch))[1:])
    if math.isnan(phi):
        raise UnidentifiableError("no phase information on the branch: empty data or a flat objective")
    low = bool(total < need and total * fisher(cal.config, [phi])[0] < 1.0)
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
    freqs, total = _window(counts)
    resamples = _number("resamples", resamples, 100, integer=True)
    if not isinstance(seed, np.random.Generator):
        seed = _number("seed", seed, 0, 2**64 - 1, integer=True)
    if total < 1000:
        raise ValueError(f"need at least 1000 total counts, got {total:.0f}")
    if np.count_nonzero(freqs) < 2:
        raise UnidentifiableError("all counts fall in a single outcome")
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(total, freqs, size=resamples)
    estimates = estimate_phases(draws, cal, branch)[0]
    if np.isnan(estimates).any():
        raise UnidentifiableError("objective is flat on the branch")
    return float(np.std(estimates, ddof=1))
