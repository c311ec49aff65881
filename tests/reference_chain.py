"""Op-by-op covariance reference for the click core, independent of squint.detection.

Covariances use the interleaved ordering (x1, p1, x2, p2, ...), vacuum I/2.
Clicks are inclusion-exclusion over vacuum overlaps det(sigma_sub + I/2)^(-1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from squint.gaussian import InvalidStateError

_SYMMETRY_RTOL = 1e-12


def symplectic_form(num_modes: int) -> np.ndarray:
    """Symplectic form Omega for the interleaved (x1, p1, ...) ordering."""
    return np.kron(np.eye(num_modes), [[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class GaussianState:
    """Zero-mean Gaussian state of ``num_modes`` modes as a covariance matrix."""

    num_modes: int
    covariance: np.ndarray

    def __post_init__(self):
        if self.num_modes < 1:
            raise ValueError(f"num_modes must be >= 1, got {self.num_modes}")
        cov = np.array(self.covariance, dtype=float)
        d = 2 * self.num_modes
        if cov.shape != (d, d):
            raise ValueError(f"covariance must be {d}x{d}, got {cov.shape}")
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > _SYMMETRY_RTOL * scale:
            raise InvalidStateError("covariance is not symmetric")
        cov = 0.5 * (cov + cov.T)
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)

    def symplectic_eigenvalues(self) -> np.ndarray:
        """Symplectic spectrum; physical states have all values >= 1/2."""
        m = 1j * symplectic_form(self.num_modes) @ self.covariance
        ev = np.linalg.eigvals(m)
        return np.sort(np.abs(ev.real))[self.num_modes:]

    def is_physical(self, atol: float = 1e-9) -> bool:
        """Check sigma + (i/2) Omega >= 0 via its (Hermitian) eigenvalues."""
        m = self.covariance + 0.5j * symplectic_form(self.num_modes)
        return bool(np.linalg.eigvalsh(m).min() >= -atol)

    def purity(self) -> float:
        """1/sqrt(det(2 sigma)); equals 1 for pure states."""
        sign, logdet = np.linalg.slogdet(2.0 * self.covariance)
        if sign <= 0:
            raise InvalidStateError("covariance has non-positive determinant")
        return float(math.exp(-0.5 * logdet))


def _quad_indices(modes: Iterable[int], num_modes: int) -> list[int]:
    idx = []
    for m in modes:
        if not 0 <= m < num_modes:
            raise ValueError(f"mode index {m} out of range for {num_modes} modes")
        idx += [2 * m, 2 * m + 1]
    if not idx:
        raise ValueError("mode subset must be nonempty")
    return idx


def vacuum(num_modes: int) -> GaussianState:
    """The ``num_modes``-mode vacuum, covariance I/2."""
    return GaussianState(num_modes, np.eye(2 * num_modes) / 2.0)


def _embed(block: np.ndarray, modes: Sequence[int], num_modes: int) -> np.ndarray:
    """Embed a symplectic acting on ``modes`` into the full 2M x 2M identity."""
    full = np.eye(2 * num_modes)
    idx = _quad_indices(modes, num_modes)
    full[np.ix_(idx, idx)] = block
    return full


def apply_two_mode_squeezer(state: GaussianState, i: int, j: int, r: float) -> GaussianState:
    """Apply the two-mode squeezer S(r) = exp[r(ab - a†b†)] to modes (i, j)."""
    if i == j:
        raise ValueError("two-mode squeezer needs two distinct modes")
    if not math.isfinite(r):
        raise ValueError(f"squeezing parameter must be finite, got {r}")
    c, s = math.cosh(r), math.sinh(r)
    block = np.array([[c, 0.0, -s, 0.0], [0.0, c, 0.0, s], [-s, 0.0, c, 0.0], [0.0, s, 0.0, c]])
    s = _embed(block, [i, j], state.num_modes)
    return GaussianState(state.num_modes, s @ state.covariance @ s.T)


def apply_phase(state: GaussianState, modes: Sequence[int], phi: float) -> GaussianState:
    """Rotate each selected mode by phi: a -> a e^{i phi}."""
    modes = sorted(set(modes))
    c, s = math.cos(phi), math.sin(phi)
    full = _embed(np.kron(np.eye(len(modes)), [[c, -s], [s, c]]), modes, state.num_modes)
    return GaussianState(state.num_modes, full @ state.covariance @ full.T)


def apply_beamsplitter(state: GaussianState, i: int, j: int, theta: float) -> GaussianState:
    """Passive rotation mixing modes (i, j): a -> a cos(theta) + a' sin(theta)."""
    if i == j:
        raise ValueError("beamsplitter needs two distinct modes")
    c, s = math.cos(theta), math.sin(theta)
    full = _embed(np.kron([[c, s], [-s, c]], np.eye(2)), [i, j], state.num_modes)
    return GaussianState(state.num_modes, full @ state.covariance @ full.T)


def apply_loss(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Pure-loss channel with transmission eta: sigma -> eta sigma + (1-eta) I/2."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {eta}")
    idx = _quad_indices([mode], state.num_modes)
    t = np.eye(2 * state.num_modes)
    t[idx, idx] = math.sqrt(eta)
    cov = t @ state.covariance @ t.T
    cov[idx, idx] += (1.0 - eta) / 2.0
    return GaussianState(state.num_modes, cov)


def mean_photon(state: GaussianState, modes: Sequence[int] | None = None) -> float:
    """Total mean photon number in the selected modes (all modes by default)."""
    if modes is None:
        modes = range(state.num_modes)
    idx = _quad_indices(modes, state.num_modes)
    # per mode: (<x^2> + <p^2> - 1)/2, zero for vacuum
    return 0.5 * (float(np.sum(state.covariance[idx, idx])) - len(idx) / 2.0)


def op_by_op_state(cfg, phi: float) -> GaussianState:
    """Output state of modes (a, b, a', b') at probe phase ``phi``."""
    s = apply_two_mode_squeezer(vacuum(4), 0, 1, cfg.r1)
    s = apply_loss(apply_loss(s, 0, cfg.eta_internal), 1, cfg.eta_internal)
    s = apply_phase(s, [0, 1, 2, 3], phi + cfg.phase_offset)
    theta = math.acos(cfg.overlap)
    s = apply_beamsplitter(apply_beamsplitter(s, 0, 2, theta), 1, 3, theta)
    s = apply_two_mode_squeezer(s, 0, 1, cfg.r2)
    s = apply_beamsplitter(apply_beamsplitter(s, 0, 2, -theta), 1, 3, -theta)
    for mode, eta in ((0, cfg.eta_h), (2, cfg.eta_h), (1, cfg.eta_v), (3, cfg.eta_v)):
        s = apply_loss(s, mode, eta)
    return s


def covariance_clicks(cov: np.ndarray) -> np.ndarray:
    """(p00, p01, p10, p11) of detector H on modes (0, 2) and V on (1, 3)."""

    def vacuum_overlap(idx):
        return 1.0 / np.prod(np.diag(np.linalg.cholesky(cov[np.ix_(idx, idx)] + np.eye(len(idx)) / 2)))

    arm_h, arm_v = _quad_indices((0, 2), 4), _quad_indices((1, 3), 4)
    p00, p_h, p_v = vacuum_overlap(arm_h + arm_v), vacuum_overlap(arm_h), vacuum_overlap(arm_v)
    return np.array([p00, p_h - p00, p_v - p00, 1.0 - p_h - p_v + p00])


def op_by_op_clicks(cfg, phi: float) -> np.ndarray:
    return covariance_clicks(op_by_op_state(cfg, phi).covariance)
