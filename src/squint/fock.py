"""Brute-force truncated Fock-space oracle for the interferometer pipeline.

This is the independent verification path. The state is one pure vector
from start to finish. Squeezers and beamsplitters are matrix exponentials of
truncated generators; each conserves a photon-number label (n_a - n_b for a
squeezer, n_a + n_b for a beamsplitter), so the unitary is kept as one
(indices, block) pair per conserved sector, each from one eigendecomposition,
and applied block by block: no (n_max+1)^2-square matrix is built. The phase
is the diagonal e^{i n phi}. Internal loss is a beamsplitter onto an
environment mode in vacuum, summed out at detection. External loss is a
weight at detection: "mode m empty after transmission eta" has the POVM
element sum_n (1 - eta)^n |n><n|, so the vacuum probabilities are exact, and
the clicks follow from them by inclusion-exclusion.

``simulate_fock(cfg, phis)`` takes an array of phases, as ``clicks`` does,
and returns one (p00, p01, p10, p11) row per phase. Each call evolves the
part before the phase and builds the detection weights once, then runs the
rest one phase at a time, so memory does not grow with the number of phases.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

import numpy as np

from .detection import _checked
from .gaussian import InterferometerConfig

__all__ = [
    "TruncationError",
    "truncation_error_bound",
    "required_n_max",
    "evolve_fock",
    "simulate_fock",
]


class TruncationError(RuntimeError):
    """The requested truncation cannot meet the accuracy budget."""


def truncation_error_bound(r_total: float, n_max: int) -> float:
    """Neglected tail weight tanh(r)^{2(n_max+1)} of a TMSS at total squeezing r."""
    if r_total == 0.0:
        return 0.0
    return math.tanh(abs(r_total)) ** (2 * (n_max + 1))


def required_n_max(r_total: float, budget: float = 1e-8) -> int:
    """Smallest per-mode cutoff whose truncation bound is below ``budget``."""
    if not 0.0 < budget < math.inf:
        raise ValueError(f"budget must be finite and > 0, got {budget}")
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


def _pair_blocks(hop1: np.ndarray, hop2: np.ndarray, scale: float, sign: int) -> tuple:
    """exp(g - g†), g = scale * hop1 ⊗ hop2, on the two-mode space of the
    (n_max+1)-square ladder matrices, as one (flat indices, unitary block)
    pair per sector of the conserved n_1 + sign*n_2: one eigh per block."""
    d = hop1.shape[0]
    n1, n2 = np.divmod(np.arange(d * d), d)
    labels = n1 + sign * n2
    blocks = []
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        m, n = n1[idx], n2[idx]
        g = scale * (hop1[np.ix_(m, m)] * hop2[np.ix_(n, n)])
        w, v = np.linalg.eigh(1j * (g - g.T))
        u = (v * np.exp(-1j * w)) @ v.conj().T
        for arr in (idx, u):
            arr.setflags(write=False)
        blocks.append((idx, u))
    return tuple(blocks)


@lru_cache(maxsize=4)
def _squeezer_unitary_cached(r: float, n_max: int) -> tuple:
    a = _destroy(n_max + 1)
    return _pair_blocks(a, a, r, -1)


@lru_cache(maxsize=4)
def _beamsplitter_unitary(theta: float, n_max: int) -> tuple:
    """exp[theta(a†b - a b†)]: a -> a cos(theta) + b sin(theta)."""
    a = _destroy(n_max + 1)
    return _pair_blocks(a.T, a, theta, 1)


def _apply_pair_unitary(tensor: np.ndarray, blocks: tuple, ax1: int, ax2: int) -> np.ndarray:
    """Apply a two-mode operator, given as sector blocks over the row-major
    (n1, n2) index, on two tensor axes."""
    d = tensor.shape[ax1]
    work = np.moveaxis(tensor, (ax1, ax2), (0, 1))
    flat = work.reshape(d * d, -1)
    out = np.empty_like(flat)  # the sectors partition the d*d rows
    for idx, u in blocks:
        out[idx] = u @ flat[idx]
    return np.moveaxis(out.reshape(work.shape), (0, 1), (ax1, ax2))


def _layout(cfg: InterferometerConfig) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Modes of the H and V arms, (a, a') and (b, b') under mode mismatch,
    else (a,) and (b,) as in the Gaussian model, and the number of modes: two
    more under internal loss, one environment mode per sample mode."""
    arm_h, arm_v = ((0, 2), (1, 3)) if cfg.overlap < 1.0 else ((0,), (1,))
    return arm_h, arm_v, len(arm_h) + len(arm_v) + 2 * (cfg.eta_internal < 1.0)


def evolve_fock(cfg: InterferometerConfig, phis, n_max: int) -> Iterator[np.ndarray]:
    """Run the interferometer pipeline up to, not including, the external loss.

    Yields the pure state's amplitudes, shape (n_max+1,) * modes (see
    ``_layout``), at each of the phases ``phis`` (any array-like, flattened)
    in turn. The part before the phase (vacuum, first squeezer, internal
    loss) is evolved once per call. The internal-loss beamsplitter is exact
    under truncation: with the environment empty, each (n_a + n_e) sector it
    touches is complete.
    """
    d = n_max + 1
    arm_h, arm_v, num_modes = _layout(cfg)
    start = np.zeros((d,) * num_modes, dtype=complex)
    start[(0,) * num_modes] = 1.0
    start = _apply_pair_unitary(start, _squeezer_unitary_cached(cfg.r1, n_max), 0, 1)
    if cfg.eta_internal < 1.0:
        loss = _beamsplitter_unitary(math.acos(math.sqrt(cfg.eta_internal)), n_max)
        start = _apply_pair_unitary(start, loss, 0, num_modes - 2)
        start = _apply_pair_unitary(start, loss, 1, num_modes - 1)

    # phase: diagonal e^{i n t} over the photon number of the sample modes a, b
    n = np.arange(d)
    phase = 1j * (n[:, None] + n[None, :]).reshape((d, d) + (1,) * (num_modes - 2))
    # mode mismatch: the second squeezer sees a, b rotated by theta into a', b'
    mixed = (arm_h, arm_v) if cfg.overlap < 1.0 else ()
    theta = math.acos(cfg.overlap)
    for t in np.asarray(phis, dtype=float).reshape(-1) + cfg.phase_offset:
        vec = start * np.exp(phase * t)
        for arm in mixed:
            vec = _apply_pair_unitary(vec, _beamsplitter_unitary(theta, n_max), *arm)
        vec = _apply_pair_unitary(vec, _squeezer_unitary_cached(cfg.r2, n_max), 0, 1)
        for arm in mixed:
            vec = _apply_pair_unitary(vec, _beamsplitter_unitary(-theta, n_max), *arm)
        yield vec


def simulate_fock(cfg: InterferometerConfig, phis, budget: float = 1e-8) -> np.ndarray:
    """Click probabilities (N, 4), columns (p00, p01, p10, p11), from the
    truncated Fock evolution at the phases ``phis``, flattened as by ``clicks``.

    The cutoff is the smallest whose worst-case bound (total squeezing r1+r2)
    meets ``budget``, ``required_n_max(r1 + r2, budget)``; raises
    TruncationError when no cutoff does.
    """
    n_max = required_n_max(cfg.r1 + cfg.r2, budget)
    arm_h, arm_v, num_modes = _layout(cfg)
    n = np.arange(n_max + 1)
    # "mode m empty": weight (1 - eta)^n on axis m, with 0^0 = 1 at eta = 1;
    # every other mode is summed out
    h, v = ([((1.0 - eta) ** n).reshape((-1,) + (1,) * (num_modes - 1 - m)) for m in arm]
            for eta, arm in ((cfg.eta_h, arm_h), (cfg.eta_v, arm_v)))

    def detect(vec):
        w = np.abs(vec) ** 2
        p00, ph, pv = (math.prod(weights, start=w).sum() for weights in (h + v, h, v))
        return p00, ph - p00, pv - p00, 1.0 - ph - pv + p00

    # map, unlike a loop variable, drops each state before the next one is evolved
    return _checked(np.array(list(map(detect, evolve_fock(cfg, phis, n_max)))).reshape(-1, 4))
