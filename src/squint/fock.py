"""Brute-force truncated Fock-space oracle for the interferometer pipeline.

This is the independent verification path. The state is one pure vector
from start to finish. Squeezers and beamsplitters are matrix exponentials of
truncated generators; each conserves a photon-number label (n_a - n_b for a
squeezer, n_a + n_b for a beamsplitter), so the exponential is one
eigendecomposition per conserved sector. The phase is the diagonal
e^{i n phi}. Internal loss is a beamsplitter onto an environment mode in
vacuum, summed out at detection. External loss is a weight at detection:
"mode m empty after transmission eta" has the POVM element
sum_n (1 - eta)^n |n><n|, so the vacuum probabilities are exact, and the
clicks follow from the same inclusion-exclusion as the Gaussian path. The
mode-mismatch tier runs at reduced truncation with a looser budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .detection import ClickDistribution
from .gaussian import InterferometerConfig

__all__ = [
    "FockState",
    "TruncationError",
    "tmss_amplitudes",
    "truncation_error_bound",
    "required_n_max",
    "squeezer_unitary",
    "evolve_fock",
    "simulate_fock",
]


class TruncationError(RuntimeError):
    """The requested truncation cannot meet the accuracy budget."""


def tmss_amplitudes(r: float, n_max: int) -> np.ndarray:
    """Fock amplitudes c_n = (1/cosh r)(-tanh r)^n of the two-mode squeezed vacuum."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = np.arange(n_max + 1)
    return (1.0 / math.cosh(r)) * (-math.tanh(r)) ** n


def truncation_error_bound(r_total: float, n_max: int) -> float:
    """Neglected tail weight tanh(r)^{2(n_max+1)} of a TMSS at total squeezing r."""
    if r_total == 0.0:
        return 0.0
    return math.tanh(abs(r_total)) ** (2 * (n_max + 1))


def required_n_max(r_total: float, budget: float = 1e-8) -> int:
    """Smallest per-mode cutoff whose truncation bound is below ``budget``."""
    n_max = 1
    while truncation_error_bound(r_total, n_max) > budget:
        n_max += 1
        if n_max > 400:
            raise TruncationError(
                f"no feasible cutoff for r_total={r_total} at budget {budget}"
            )
    return n_max


def _destroy(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


def _expm_skew(generator: np.ndarray, sectors: np.ndarray) -> np.ndarray:
    """exp of a skew-Hermitian matrix that is block diagonal in ``sectors``
    (a conserved label per basis index): one eigh of i*generator per block."""
    u = np.zeros(generator.shape, dtype=complex)
    for label in np.unique(sectors):
        idx = np.flatnonzero(sectors == label)
        block = np.ix_(idx, idx)
        w, v = np.linalg.eigh(1j * generator[block])
        u[block] = (v * np.exp(-1j * w)) @ v.conj().T
    return u


def _two_mode_unitary(generator, sign: int, n_max: int) -> np.ndarray:
    """exp(g - g†) on the (n_max+1)^2 two-mode space, with n_a + sign*n_b conserved."""
    n = np.arange(n_max + 1)
    u = _expm_skew(generator - generator.T, (n[:, None] + sign * n[None, :]).ravel())
    u.setflags(write=False)
    return u


@lru_cache(maxsize=4)
def _squeezer_unitary_cached(r: float, n_max: int) -> np.ndarray:
    a = _destroy(n_max + 1)
    return _two_mode_unitary(r * np.kron(a, a), -1, n_max)


def squeezer_unitary(r: float, n_max: int, budget: float | None = None) -> np.ndarray:
    """Truncated unitary of exp[r(ab - a†b†)] on the (n_max+1)^2 two-mode space.

    If ``budget`` is given, raises TruncationError when the truncation bound
    for this squeezing exceeds it (reporting the achieved bound).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if budget is not None:
        achieved = truncation_error_bound(r, n_max)
        if achieved > budget:
            raise TruncationError(
                f"truncation bound {achieved:.3e} exceeds budget {budget:.3e} "
                f"at n_max={n_max}"
            )
    return _squeezer_unitary_cached(float(r), int(n_max))


@lru_cache(maxsize=4)
def _beamsplitter_unitary(theta: float, n_max: int) -> np.ndarray:
    """exp[theta(a†b - a b†)]: a -> a cos(theta) + b sin(theta)."""
    a = _destroy(n_max + 1)
    return _two_mode_unitary(theta * np.kron(a.T, a), 1, n_max)


@dataclass(frozen=True)
class FockState:
    """Pure truncated state: one amplitude per product-basis index, shape
    (n_max+1,) * num_modes."""

    num_modes: int
    n_max: int
    vector: np.ndarray

    def __post_init__(self):
        shape = (self.n_max + 1,) * self.num_modes
        if np.shape(self.vector) != shape:
            raise ValueError(f"vector has shape {np.shape(self.vector)}, expected {shape}")

    def norm(self) -> float:
        """Squared norm; 1 up to the truncation tail."""
        return float(np.vdot(self.vector, self.vector).real)

    def vacuum_probability(self, eta: dict[int, float]) -> float:
        """Probability that no photon survives on the modes keyed in ``eta``,
        mode m seen through transmission eta[m]; every other mode is summed out."""
        weights = np.abs(self.vector) ** 2
        n = np.arange(self.n_max + 1)
        for mode, e in eta.items():  # (1 - eta)^n, with 0^0 = 1 at eta = 1
            weights = np.moveaxis(np.moveaxis(weights, mode, -1) * (1.0 - e) ** n, -1, mode)
        return float(weights.sum())


def _apply_pair_unitary(tensor: np.ndarray, u: np.ndarray, ax1: int, ax2: int) -> np.ndarray:
    """Apply a two-mode operator (row-major (n1, n2) index) on two tensor axes."""
    d = tensor.shape[ax1]
    work = np.moveaxis(tensor, (ax1, ax2), (0, 1))
    out = (u @ work.reshape(d * d, -1)).reshape(work.shape)
    return np.moveaxis(out, (0, 1), (ax1, ax2))


def _arms(cfg: InterferometerConfig) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Modes of the H and V arms: (a, a') and (b, b') under mode mismatch,
    else (a,) and (b,), mirroring the Gaussian model's mode layout."""
    return ((0, 2), (1, 3)) if cfg.overlap < 1.0 else ((0,), (1,))


def evolve_fock(cfg: InterferometerConfig, phi: float, n_max: int) -> FockState:
    """Run the interferometer pipeline up to, not including, the external loss.

    The arm modes come first (see ``_arms``); internal loss appends one
    environment mode per sample mode, so the state has at most six modes.
    The internal-loss beamsplitter is exact under truncation: with the
    environment empty, each (n_a + n_e) sector it touches is complete.
    """
    d = n_max + 1
    arm_h, arm_v = _arms(cfg)
    system = len(arm_h) + len(arm_v)
    lossy = cfg.eta_internal < 1.0
    num_modes = system + 2 * lossy
    u1 = squeezer_unitary(cfg.r1, n_max)
    u2 = u1 if cfg.r2 == cfg.r1 else squeezer_unitary(cfg.r2, n_max)

    vec = np.zeros((d,) * num_modes, dtype=complex)
    vec[(0,) * num_modes] = 1.0
    vec = _apply_pair_unitary(vec, u1, 0, 1)
    if lossy:
        loss = _beamsplitter_unitary(math.acos(math.sqrt(cfg.eta_internal)), n_max)
        vec = _apply_pair_unitary(vec, loss, 0, system)
        vec = _apply_pair_unitary(vec, loss, 1, system + 1)

    # phase: diagonal e^{i n phi} over the photon number of the sample modes a, b
    n = np.arange(d)
    phase = np.exp(1j * (n[:, None] + n[None, :]) * (phi + cfg.phase_offset))
    vec = vec * phase.reshape((d, d) + (1,) * (num_modes - 2))

    # mode mismatch: the second squeezer sees a, b rotated by theta into a', b'
    mixed = (arm_h, arm_v) if cfg.overlap < 1.0 else ()
    theta = math.acos(cfg.overlap)
    for arm in mixed:
        vec = _apply_pair_unitary(vec, _beamsplitter_unitary(theta, n_max), *arm)
    vec = _apply_pair_unitary(vec, u2, 0, 1)
    for arm in mixed:
        vec = _apply_pair_unitary(vec, _beamsplitter_unitary(-theta, n_max), *arm)
    return FockState(num_modes, n_max, vec)


def simulate_fock(
    cfg: InterferometerConfig, phi: float, n_max: int, budget: float = 1e-8
) -> ClickDistribution:
    """Click probabilities from the truncated Fock evolution.

    Raises TruncationError when the worst-case bound (total squeezing r1+r2)
    exceeds ``budget``; the four-mode mismatch tier is usually run with the
    looser budget 1e-4.
    """
    achieved = truncation_error_bound(cfg.r1 + cfg.r2, n_max)
    if achieved > budget:
        raise TruncationError(
            f"truncation bound {achieved:.3e} exceeds budget {budget:.3e} at n_max={n_max}"
        )
    state = evolve_fock(cfg, phi, n_max)
    arm_h, arm_v = _arms(cfg)
    h = dict.fromkeys(arm_h, cfg.eta_h)
    v = dict.fromkeys(arm_v, cfg.eta_v)
    p00 = state.vacuum_probability({**h, **v})
    ph = state.vacuum_probability(h)
    pv = state.vacuum_probability(v)
    return ClickDistribution(p00=p00, p01=ph - p00, p10=pv - p00, p11=1.0 - ph - pv + p00)
