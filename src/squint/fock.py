"""Brute-force truncated Fock-space oracle for the interferometer pipeline.

This is the independent verification path. The state is one pure vector
from start to finish. Squeezers and beamsplitters are matrix exponentials of
truncated generators; each conserves a photon-number label (n_a - n_b for a
squeezer, n_a + n_b for a beamsplitter), so the unitary is kept as one
(indices, block) pair per conserved sector, each from one eigendecomposition,
and applied block by block: no (n_max+1)^2-square matrix is built. Internal
loss is a beamsplitter onto an environment mode in vacuum. Mode mismatch is
a beamsplitter of a with a' and of b with b', once, before the phase e^{iNt}
(N the photon number of every sample mode), which commutes with it as a', b'
are empty until then; it is never undone, as each arm's detector sees only
n_a + n_a' (or n_b + n_b'). External loss is a weight at detection: "mode m
empty after transmission eta" has the POVM element sum_n (1 - eta)^n |n><n|,
so one contraction of |psi|^2 gives the exact vacuum probabilities, and the
clicks follow by inclusion-exclusion.

``simulate_fock(cfg, phis)`` takes an array of phases, as ``clicks`` does,
and returns one (p00, p01, p10, p11) row per phase. It evolves the part
before the phase once, then one state per phase, holding one at a time.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

import numpy as np

from .detection import _checked, _phases
from .gaussian import InterferometerConfig, _number

__all__ = [
    "TruncationError",
    "truncation_error_bound",
    "required_n_max",
    "oracle_n_max",
    "evolve_fock",
    "simulate_fock",
]


class TruncationError(RuntimeError):
    """The requested truncation cannot meet the accuracy budget."""


def truncation_error_bound(r_total: float, n_max: int) -> float:
    """Neglected tail weight tanh(r)^{2(n_max+1)} of a TMSS at total squeezing r."""
    _number("total squeezing", r_total)
    _number("n_max", n_max, 0, integer=True)
    return math.tanh(abs(r_total)) ** (2 * (n_max + 1))


def required_n_max(r_total: float, budget: float = 1e-8) -> int:
    """Smallest per-mode cutoff whose truncation bound is below ``budget``."""
    _number("budget", budget, 0, above=True)
    n_max = 1
    while truncation_error_bound(r_total, n_max) > budget:
        n_max += 1
        if n_max > 400:
            raise TruncationError(
                f"no feasible cutoff for r_total={r_total} at budget {budget}"
            )
    return n_max


def oracle_n_max(cfg: InterferometerConfig, budget: float = 1e-8) -> int:
    """The cutoff of ``simulate_fock``, the least that meets ``budget`` at the total squeezing r1 + r2."""
    return required_n_max(cfg.r1 + cfg.r2, budget)


def _pair_blocks(n_max: int, scale: float, sign: int) -> tuple:
    """exp(g - g†) on two modes cut at n_max, g = scale a† ⊗ a for sign 1 (a
    beamsplitter) or scale a ⊗ a for sign -1 (a squeezer), as one (flat
    indices, unitary block) pair per sector of the conserved n_1 + sign*n_2."""
    d = n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    first = a.T if sign > 0 else a
    n1, n2 = np.divmod(np.arange(d * d), d)
    labels = n1 + sign * n2
    blocks = []
    for label in range(labels.min(), labels.max() + 1):  # every label in between occurs
        idx = np.flatnonzero(labels == label)
        m, n = n1[idx], n2[idx]
        g = scale * (first[np.ix_(m, m)] * a[np.ix_(n, n)])
        w, v = np.linalg.eigh(1j * (g - g.T))
        u = (v * np.exp(-1j * w)) @ v.conj().T
        for arr in (idx, u):
            arr.setflags(write=False)
        blocks.append((idx, u))
    return tuple(blocks)


@lru_cache(maxsize=4)
def _squeezer_unitary(r: float, n_max: int) -> tuple:
    return _pair_blocks(n_max, r, -1)


@lru_cache(maxsize=4)
def _beamsplitter_unitary(theta: float, n_max: int) -> tuple:
    """exp[theta(a†b - a b†)]: a -> a cos(theta) + b sin(theta)."""
    return _pair_blocks(n_max, theta, 1)


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
    ``_layout``), at each of the phases ``phis`` (any array-like, flattened;
    ValueError if one is not finite) in turn. The part before the phase
    (vacuum, first squeezer, internal loss, mismatch rotation) is evolved once
    per call; each phase t is then one multiply by e^{iNt}, N the total photon
    number of the sample modes, and the second squeezer. The internal-loss
    beamsplitter is exact under truncation: with the environment empty, each
    (n_a + n_e) sector it touches is complete.
    """
    ts = _phases(phis) + cfg.phase_offset
    d = _number("n_max", n_max, 0, integer=True) + 1
    arm_h, arm_v, num_modes = _layout(cfg)
    start = np.zeros((d,) * num_modes, dtype=complex)
    start[(0,) * num_modes] = 1.0
    start = _apply_pair_unitary(start, _squeezer_unitary(cfg.r1, n_max), 0, 1)
    # internal loss mixes a, b with e_a, e_b; mode mismatch then with a', b'
    for angle, partners in ((math.acos(math.sqrt(cfg.eta_internal)), range(len(arm_h + arm_v), num_modes)),
                            (math.acos(cfg.overlap), arm_h[1:] + arm_v[1:])):
        for mode, partner in zip((0, 1), partners):
            start = _apply_pair_unitary(start, _beamsplitter_unitary(angle, n_max), mode, partner)

    # N, broadcastable; each phase exponentiates its few values, not the full array
    total = sum(np.arange(d).reshape((-1,) + (1,) * (num_modes - 1 - m)) for m in arm_h + arm_v)
    levels = 1j * np.arange(total.max() + 1)
    for t in ts:  # the phased state is a temporary, freed before the caller's work
        yield _apply_pair_unitary(start * np.exp(levels * t)[total], _squeezer_unitary(cfg.r2, n_max), 0, 1)


def simulate_fock(cfg: InterferometerConfig, phis, budget: float = 1e-8) -> np.ndarray:
    """Click probabilities (N, 4), columns (p00, p01, p10, p11), from the
    truncated Fock evolution at the phases ``phis``, flattened as by ``clicks``.

    The cutoff is ``oracle_n_max(cfg, budget)``; raises TruncationError when
    no cutoff meets ``budget``. Detection is one contraction a phase.
    """
    n_max = oracle_n_max(cfg, budget)
    arm_h, arm_v, num_modes = _layout(cfg)
    # one (2, n_max + 1) operand per detected mode, rows (1 - eta)^0 = 1 and (1 - eta)^n, "mode
    # empty" (0^0 = 1); an arm's modes share its output index, and the environment axes, named by
    # none, are summed: [[all, V empty], [H empty, both empty]]. Its pairwise order needs only shapes.
    contraction = [list(range(num_modes))]
    for eta, arm, out in ((cfg.eta_h, arm_h, num_modes), (cfg.eta_v, arm_v, num_modes + 1)):
        for m in arm:
            contraction += [(1.0 - eta) ** np.outer((0, 1), np.arange(n_max + 1)), [out, m]]
    contraction.append([num_modes, num_modes + 1])
    path, _ = np.einsum_path(np.broadcast_to(0.0, (n_max + 1,) * num_modes), *contraction, optimize="greedy")

    def detect(vec):
        (_, pv), (ph, p00) = np.einsum(np.abs(vec) ** 2, *contraction, optimize=path)
        return p00, ph - p00, pv - p00, 1.0 - ph - pv + p00

    # map, unlike a loop variable, drops each state before the next one is evolved
    return _checked(np.array(list(map(detect, evolve_fock(cfg, phis, n_max)))).reshape(-1, 4))
