"""Threshold-detector click statistics of zero-mean Gaussian states.

The four outcome probabilities of two threshold detectors are obtained by
inclusion-exclusion over vacuum overlaps of reduced states, which is exact
for zero-mean Gaussian inputs and needs no Fock truncation:

    p00 = Pr(vacuum on both arms)
    p01 = Pr(vacuum on arm H) - p00      (click on V only)
    p10 = Pr(vacuum on arm V) - p00      (click on H only)
    p11 = 1 - p00 - p01 - p10

A vacuum overlap is P = det(M)^(-1/2) with M = sigma_sub + I/2, the
two-detector case of the Torontonian (Quesada et al., PRA 98, 062322 (2018)).
With d log det M = tr(M^-1 dM), X = M^-1 M' and t = tr X, its phase
derivatives are P' = -P t/2 and P'' = P (t^2/4 + tr(X X)/2 - tr(M^-1 M'')/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    GaussianState,
    InterferometerConfig,
    InvalidStateError,
    PhaseFactors,
    _quad_indices,
    interferometer_factors,
)

__all__ = [
    "ClickDistribution",
    "ArmAssignment",
    "vacuum_probability",
    "click_distribution",
    "clicks",
    "interferometer_arms",
    "interferometer_clicks",
    "fringe",
    "fringe_visibility",
    "overlap_for_visibility",
]

# Floating-point noise this far outside [0, 1] is clamped; anything larger
# indicates a model bug and raises.
_CLAMP_TOL = 1e-12
_SUM_TOL = 1e-10
# Phases per batch: bounds the scratch memory of long phase arrays.
_CHUNK = 128
_OUTCOMES = ("p00", "p01", "p10", "p11")
# fringe_visibility grid over one period; overlap_for_visibility bisection
_VISIBILITY_POINTS = 721
_OVERLAP_MIN, _OVERLAP_TOL = 0.5, 1e-6


def _checked(p: np.ndarray) -> np.ndarray:
    """Validate rows of (p00, p01, p10, p11) and clamp roundoff into [0, 1]."""
    bad = ~((p >= -_CLAMP_TOL) & (p <= 1.0 + _CLAMP_TOL))  # NaN fails both
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise InvalidStateError(f"{_OUTCOMES[col]} = {p[row, col]} not finite or outside [0, 1]")
    p = np.clip(p, 0.0, 1.0)
    total = p.sum(axis=-1)
    if np.any(np.abs(total - 1.0) > _SUM_TOL):
        raise InvalidStateError(f"outcome probabilities sum to {total.min()}..{total.max()}, not 1")
    return p


@dataclass(frozen=True)
class ClickDistribution:
    """Probabilities of the four threshold-detector outcomes."""

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self):
        row = _checked(np.array([[self.p00, self.p01, self.p10, self.p11]], dtype=float))[0]
        for name, v in zip(_OUTCOMES, row):
            object.__setattr__(self, name, float(v))

    def as_array(self) -> np.ndarray:
        return np.array([self.p00, self.p01, self.p10, self.p11])


@dataclass(frozen=True)
class ArmAssignment:
    """Which state modes feed the H and V threshold detectors."""

    arm_h: tuple[int, ...]
    arm_v: tuple[int, ...]

    def __post_init__(self):
        h, v = tuple(self.arm_h), tuple(self.arm_v)
        if not h or not v:
            raise ValueError("both arms must be nonempty")
        if set(h) & set(v):
            raise ValueError("arms must be disjoint")
        object.__setattr__(self, "arm_h", h)
        object.__setattr__(self, "arm_v", v)


def interferometer_arms() -> ArmAssignment:
    """Detector assignment for build_interferometer states: each detector sees
    both the matched and the mismatched component of its arm."""
    return ArmAssignment(arm_h=(0, 2), arm_v=(1, 3))


def _vacuum_overlaps(subs: list[np.ndarray]) -> list[np.ndarray]:
    """P (N,) for a stack of reduced covariances (N, d, d), then P' and P''
    when ``subs`` also holds the stack's phase derivatives."""
    m = subs[0] + np.eye(subs[0].shape[-1]) / 2.0
    if not np.all(np.isfinite(m)):
        raise InvalidStateError("reduced covariance contains non-finite entries")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise InvalidStateError("reduced covariance + I/2 is not positive definite") from exc
    p = 1.0 / np.prod(np.diagonal(chol, axis1=-2, axis2=-1), axis=-1)
    bad = ~((p >= 0.0) & (p <= 1.0 + _CLAMP_TOL))
    if bad.any():
        raise InvalidStateError(f"vacuum probability {p[bad][0]} outside [0, 1]")
    out = [np.minimum(p, 1.0)]
    if len(subs) > 1:
        m_inv = np.linalg.inv(m)
        x = m_inv @ subs[1]
        t1 = np.trace(x, axis1=-2, axis2=-1)
        out.append(-0.5 * out[0] * t1)
        if len(subs) > 2:
            t2 = np.einsum("nij,nji->n", x, x)
            t3 = np.einsum("nij,nji->n", m_inv, subs[2])
            out.append(out[0] * (0.25 * t1 * t1 + 0.5 * t2 - 0.5 * t3))
    return out


def _click_stack(covs: list[np.ndarray], arms: ArmAssignment) -> list[np.ndarray]:
    """Inclusion-exclusion over a covariance stack: p (N, 4), validated and
    clamped, then dp and d2p when ``covs`` carries the derivative stacks."""
    overlaps = []
    for modes in (arms.arm_h + arms.arm_v, arms.arm_h, arms.arm_v):
        idx = np.array(_quad_indices(modes, covs[0].shape[-1] // 2))
        overlaps.append(_vacuum_overlaps([c[:, idx[:, None], idx] for c in covs]))
    out = []
    for k, (p00, ph, pv) in enumerate(zip(*overlaps)):
        p01 = ph - p00
        p10 = pv - p00
        p11 = (1.0 if k == 0 else 0.0) - p00 - p01 - p10
        out.append(np.stack([p00, p01, p10, p11], axis=-1))
    out[0] = _checked(out[0])
    return out


def vacuum_probability(state: GaussianState, modes) -> float:
    """Tr[rho_sub |0><0|] = 1/sqrt(det(sigma_sub + I/2)) for the reduced state."""
    return float(_vacuum_overlaps([state.reduced(modes)[None]])[0][0])


def click_distribution(
    state: GaussianState,
    arms: ArmAssignment,
    dark_h: float = 0.0,
    dark_v: float = 0.0,
) -> ClickDistribution:
    """Four-outcome distribution via inclusion-exclusion over vacuum overlaps.

    Optional per-detector dark-count probabilities are folded in as an
    independent Bernoulli OR on each click (off by default).
    """
    p00, p01, p10, p11 = _click_stack([state.covariance[None]], arms)[0][0]
    if dark_h or dark_v:
        if not (0.0 <= dark_h <= 1.0 and 0.0 <= dark_v <= 1.0):
            raise ValueError("dark-count probabilities must be in [0, 1]")
        q00 = p00 * (1 - dark_h) * (1 - dark_v)
        q01 = (1 - dark_h) * (p01 + p00 * dark_v)
        q10 = (1 - dark_v) * (p10 + p00 * dark_h)
        p00, p01, p10 = q00, q01, q10
        p11 = 1.0 - p00 - p01 - p10
    return ClickDistribution(p00=p00, p01=p01, p10=p10, p11=p11)


def clicks(factors: PhaseFactors, phis, order: int = 0) -> list[np.ndarray]:
    """Click probabilities p (N, 4) of the pipeline over an array of phases,
    then dp/dphi and d2p/dphi2 up to ``order`` (at most 2), in chunks."""
    phis = np.asarray(phis, dtype=float).reshape(-1)
    arms = interferometer_arms()
    chunks = (factors.covariances(phis[k: k + _CHUNK], order) for k in range(0, phis.size, _CHUNK))
    parts = [_click_stack(covs, arms) for covs in chunks]
    if not parts:
        return [np.empty((0, 4)) for _ in range(order + 1)]
    return [np.concatenate(stacks) for stacks in zip(*parts)]


def interferometer_clicks(cfg: InterferometerConfig, phi: float) -> ClickDistribution:
    """Click distribution of the full pipeline at probe phase ``phi``."""
    return ClickDistribution(*clicks(interferometer_factors(cfg), [phi])[0][0])


def fringe(cfg: InterferometerConfig, phi_grid) -> np.ndarray:
    """Tabulate the four outcome probabilities over a phase grid, shape (N, 4)."""
    return clicks(interferometer_factors(cfg), phi_grid)[0]


def fringe_visibility(cfg: InterferometerConfig) -> float:
    """(max - min)/(max + min) of the coincidence fringe p11 over one period."""
    p11 = fringe(cfg, np.linspace(0.0, math.pi, _VISIBILITY_POINTS))[:, 3]
    hi, lo = float(p11.max()), float(p11.min())
    return (hi - lo) / (hi + lo)


def overlap_for_visibility(cfg: InterferometerConfig, target: float) -> float:
    """Mode-overlap amplitude reproducing a target p11 fringe visibility.

    Visibility is 1 at overlap 1 and decreases as the overlap shrinks, so a
    bisection on [0.5, 1] recovers the overlap for any reachable target.
    """
    if not 0.0 < target <= 1.0:
        raise ValueError("target visibility must be in (0, 1]")
    lo, hi = _OVERLAP_MIN, 1.0
    if fringe_visibility(cfg.with_updates(overlap=lo)) > target:
        raise ValueError(f"target visibility {target} not reachable above overlap {lo}")
    while hi - lo > _OVERLAP_TOL:
        mid = 0.5 * (lo + hi)
        if fringe_visibility(cfg.with_updates(overlap=mid)) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
