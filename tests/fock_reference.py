"""Fock-space references used only by the tests: the two-mode squeezed vacuum
amplitudes in closed form, the dense squeezer unitary assembled from the
sector blocks that ``squint.fock`` applies directly, and the click
probabilities of one oracle state by full-size weighted products, the
formula that the oracle's one contraction replaced."""

from __future__ import annotations

import math

import numpy as np

from squint.fock import TruncationError, _layout, _squeezer_unitary, truncation_error_bound
from squint.gaussian import InterferometerConfig


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


def state_clicks(cfg: InterferometerConfig, vec: np.ndarray) -> tuple:
    """(p00, p01, p10, p11) of one ``evolve_fock`` state by full-size products:
    P(both arms empty), P(H empty) and P(V empty) are each the sum of |psi|^2
    times the weight (1 - eta)^n of "mode m empty" on the axis of every mode of
    those arms; the clicks follow by inclusion-exclusion."""
    arm_h, arm_v, num_modes = _layout(cfg)
    n = np.arange(vec.shape[0])
    # 0^0 = 1 at eta = 1; every other mode is summed out
    h, v = ([((1.0 - eta) ** n).reshape((-1,) + (1,) * (num_modes - 1 - m)) for m in arm]
            for eta, arm in ((cfg.eta_h, arm_h), (cfg.eta_v, arm_v)))
    w = np.abs(vec) ** 2
    p00, ph, pv = (math.prod(weights, start=w).sum() for weights in (h + v, h, v))
    return p00, ph - p00, pv - p00, 1.0 - ph - pv + p00
