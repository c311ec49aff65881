"""Zero-mean multimode Gaussian states and the two-squeezer interferometer model.

States are covariance matrices in the interleaved quadrature ordering
(x1, p1, x2, p2, ...) with hbar-free units, so the vacuum covariance is I/2.
The two-mode squeezer follows the convention S(r) = exp[r(ab - a†b†)], whose
action on vacuum has Fock amplitudes (1/cosh r)(-tanh r)^n; all other modules
share this convention and the Fock oracle pins it.

Everything here is a pure function on immutable values: operations return new
``GaussianState`` instances and never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GaussianState",
    "InterferometerConfig",
    "InvalidStateError",
    "vacuum",
    "apply_two_mode_squeezer",
    "apply_phase",
    "apply_beamsplitter",
    "apply_loss",
    "mean_photon",
    "build_interferometer",
    "interferometer_factors",
    "PhaseFactors",
    "symplectic_form",
]

_SYMMETRY_RTOL = 1e-12


class InvalidStateError(ValueError):
    """A covariance matrix violates the physicality requirements."""


def symplectic_form(num_modes: int) -> np.ndarray:
    """Symplectic form Omega for the interleaved (x1, p1, ...) ordering."""
    omega = np.zeros((2 * num_modes, 2 * num_modes))
    for m in range(num_modes):
        omega[2 * m, 2 * m + 1] = 1.0
        omega[2 * m + 1, 2 * m] = -1.0
    return omega


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
    if num_modes < 1:
        raise ValueError(f"num_modes must be >= 1, got {num_modes}")
    return GaussianState(num_modes, np.eye(2 * num_modes) / 2.0)


def _embed(block: np.ndarray, modes: Sequence[int], num_modes: int) -> np.ndarray:
    """Embed a symplectic acting on ``modes`` into the full 2M x 2M identity."""
    full = np.eye(2 * num_modes)
    idx = _quad_indices(modes, num_modes)
    full[np.ix_(idx, idx)] = block
    return full


def two_mode_squeezer_symplectic(r: float) -> np.ndarray:
    """4x4 symplectic of exp[r(ab - a†b†)] on quadratures (xa, pa, xb, pb)."""
    c, s = math.cosh(r), math.sinh(r)
    return np.array(
        [
            [c, 0.0, -s, 0.0],
            [0.0, c, 0.0, s],
            [-s, 0.0, c, 0.0],
            [0.0, s, 0.0, c],
        ]
    )


def apply_two_mode_squeezer(state: GaussianState, i: int, j: int, r: float) -> GaussianState:
    """Apply the two-mode squeezer S(r) = exp[r(ab - a†b†)] to modes (i, j)."""
    if i == j:
        raise ValueError("two-mode squeezer needs two distinct modes")
    if not math.isfinite(r):
        raise ValueError(f"squeezing parameter must be finite, got {r}")
    s = _embed(two_mode_squeezer_symplectic(r), [i, j], state.num_modes)
    return GaussianState(state.num_modes, s @ state.covariance @ s.T)


def apply_phase(state: GaussianState, modes: Sequence[int], phi: float) -> GaussianState:
    """Rotate each selected mode by phi: a -> a e^{i phi}."""
    modes = list(modes)
    if not modes:
        raise ValueError("mode subset must be nonempty")
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    full = np.eye(2 * state.num_modes)
    for m in set(modes):
        if not 0 <= m < state.num_modes:
            raise ValueError(f"mode index {m} out of range")
        full[2 * m: 2 * m + 2, 2 * m: 2 * m + 2] = rot
    return GaussianState(state.num_modes, full @ state.covariance @ full.T)


def apply_beamsplitter(state: GaussianState, i: int, j: int, theta: float) -> GaussianState:
    """Passive rotation mixing modes (i, j): a -> a cos(theta) + a' sin(theta)."""
    if i == j:
        raise ValueError("beamsplitter needs two distinct modes")
    c, s = math.cos(theta), math.sin(theta)
    i2 = np.eye(2)
    block = np.block([[c * i2, s * i2], [-s * i2, c * i2]])
    full = _embed(block, [i, j], state.num_modes)
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


@dataclass(frozen=True)
class InterferometerConfig:
    """Physical model of the two-squeezer interferometer.

    ``r1``/``r2`` are the squeezing parameters of the two passes, ``eta_h`` and
    ``eta_v`` the end-to-end efficiencies of the two detected arms,
    ``eta_internal`` an optional loss between the squeezers, ``overlap`` the
    mode-overlap amplitude between the seed and the second squeezing process,
    and ``phase_offset`` a constant phase bias added to the probe phase.
    ``snl_per_photon`` is the shot-noise-limit Fisher-per-photon baseline
    (2 rad^-2 under the photons-through-the-sample accounting).
    """

    r1: float
    r2: float
    eta_h: float = 1.0
    eta_v: float = 1.0
    eta_internal: float = 1.0
    overlap: float = 1.0
    phase_offset: float = 0.0
    snl_per_photon: float = 2.0

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError("squeezing parameters must be >= 0")
        if not (math.isfinite(self.r1) and math.isfinite(self.r2)):
            raise ValueError("squeezing parameters must be finite")
        for name in ("eta_h", "eta_v", "eta_internal", "overlap"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not math.isfinite(self.phase_offset):
            raise ValueError("phase_offset must be finite")

    def with_updates(self, **kwargs) -> "InterferometerConfig":
        return replace(self, **kwargs)


# Mode layout of build_interferometer: 0 = a, 1 = b (matched pair),
# 2 = a', 3 = b' (mismatched ancilla pair). Arm H sees {0, 2}, arm V {1, 3}.
MODE_A, MODE_B, MODE_A_ANC, MODE_B_ANC = 0, 1, 2, 3


def _before_phase(cfg: InterferometerConfig) -> GaussianState:
    """First squeezer on (a, b), then the internal loss."""
    state = apply_two_mode_squeezer(vacuum(4), MODE_A, MODE_B, cfg.r1)
    if cfg.eta_internal < 1.0:
        state = apply_loss(state, MODE_A, cfg.eta_internal)
        state = apply_loss(state, MODE_B, cfg.eta_internal)
    return state


def _after_phase(cfg: InterferometerConfig, state: GaussianState) -> GaussianState:
    """Second squeezer acting on the rotated modes (xi a + sqrt(1-xi^2) a',
    xi b + sqrt(1-xi^2) b'), then the external arm losses applied to both
    components of each arm."""
    theta = math.acos(min(1.0, cfg.overlap))
    mismatched = theta != 0.0
    if mismatched:
        state = apply_beamsplitter(state, MODE_A, MODE_A_ANC, theta)
        state = apply_beamsplitter(state, MODE_B, MODE_B_ANC, theta)
    state = apply_two_mode_squeezer(state, MODE_A, MODE_B, cfg.r2)
    if mismatched:
        state = apply_beamsplitter(state, MODE_A, MODE_A_ANC, -theta)
        state = apply_beamsplitter(state, MODE_B, MODE_B_ANC, -theta)
    h, v = cfg.eta_h, cfg.eta_v
    for m, eta in ((MODE_A, h), (MODE_A_ANC, h), (MODE_B, v), (MODE_B_ANC, v)):
        if eta < 1.0:
            state = apply_loss(state, m, eta)
    return state


@dataclass(frozen=True)
class PhaseFactors:
    """Output covariance of one config as a function of the probe phase.

    With Sigma1 = _before_phase(cfg), _after_phase(cfg, .) = A (.) A^T + N and
    the phase rotating every mode by R(t), t = phi + phase_offset, the output
    sigma(t) = A R(t) Sigma1 R(t)^T A^T + N is quadratic in (cos t, sin t):
    sigma(t) = H0 + H1 cos(2t) + H2 sin(2t), ``harmonics`` = (H0, H1, H2).
    """

    harmonics: np.ndarray
    phase_offset: float

    def covariances(self, phis, order: int = 0) -> list[np.ndarray]:
        """sigma(phi) and its first ``order`` phase derivatives, each (N, 8, 8)."""
        t = 2.0 * (np.asarray(phis, dtype=float).reshape(-1) + self.phase_offset)
        c, s = np.cos(t)[:, None, None], np.sin(t)[:, None, None]
        h0, h1, h2 = self.harmonics
        out = [h0 + c * h1 + s * h2]
        if order >= 1:
            out.append(2.0 * (c * h2 - s * h1))
        if order >= 2:
            out.append(-4.0 * (c * h1 + s * h2))
        return out


@lru_cache(maxsize=64)
def interferometer_factors(cfg: InterferometerConfig) -> PhaseFactors:
    """PhaseFactors of a config (cached), fixed by the pipeline run once at
    each of t = 0, pi/2 and pi/4."""
    before = _before_phase(cfg)
    phases = (0.0, math.pi / 2, math.pi / 4)
    s0, s90, s45 = (_after_phase(cfg, apply_phase(before, range(4), t)).covariance for t in phases)
    h0 = (s0 + s90) / 2.0
    harmonics = np.array([h0, (s0 - s90) / 2.0, s45 - h0])
    harmonics.setflags(write=False)
    return PhaseFactors(harmonics=harmonics, phase_offset=cfg.phase_offset)


def build_interferometer(cfg: InterferometerConfig, phi: float) -> GaussianState:
    """4-mode output state at probe phase ``phi``: one phase of interferometer_factors."""
    return GaussianState(4, interferometer_factors(cfg).covariances([phi])[0][0])
