"""Fock-space references used only by the tests: the two-mode squeezed vacuum
amplitudes in closed form and the dense squeezer unitary assembled from the
sector blocks that ``squint.fock`` applies directly."""

from __future__ import annotations

import math

import numpy as np

from squint.fock import TruncationError, _squeezer_unitary, truncation_error_bound


def tmss_amplitudes(r: float, n_max: int) -> np.ndarray:
    """Fock amplitudes c_n = (1/cosh r)(-tanh r)^n of the two-mode squeezed vacuum."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = np.arange(n_max + 1)
    return (1.0 / math.cosh(r)) * (-math.tanh(r)) ** n


def squeezer_unitary(r: float, n_max: int, budget: float | None = None) -> np.ndarray:
    """Truncated unitary of exp[r(ab - a†b†)] on the (n_max+1)^2 two-mode space.

    Dense, assembled from the oracle's sector blocks. If ``budget`` is given,
    raises TruncationError when the truncation bound for this squeezing
    exceeds it (reporting the achieved bound).
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
    u = np.zeros(((n_max + 1) ** 2,) * 2, dtype=complex)
    for idx, block in _squeezer_unitary(float(r), int(n_max)):
        u[np.ix_(idx, idx)] = block
    return u
