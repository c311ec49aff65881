"""The two-squeezer interferometer model as a Bogoliubov map of its modes.

Each detected mode is b = U(t) a + V(t) a† over the six input modes (a, b,
a', b', e_a, e_b): the squeezed pair, the mismatched ancilla pair and the
environment of the internal loss. The squeezer S(r) = exp[r(ab - a†b†)] maps
a -> a cosh r - b† sinh r, so its vacuum amplitudes are (1/cosh r)(-tanh r)^n,
the convention the Fock oracle pins. The phase t = phi + phase_offset is the
only rotation, so U(t) = e^{it} X_U + e^{-it} Y_U and likewise V(t) (Yurke,
McCall & Klauder, PRA 33, 4033 (1986)). External loss scales an arm's rows by
sqrt(eta); its environment drops out of every normal-ordered moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

__all__ = [
    "InterferometerConfig",
    "InvalidStateError",
    "bogoliubov_factors",
]


class InvalidStateError(ValueError):
    """Click probabilities that no physical state produces."""


@dataclass(frozen=True)
class InterferometerConfig:
    """Physical model of the two-squeezer interferometer.

    ``r1``/``r2`` are the squeezing parameters of the two passes, ``eta_h`` and
    ``eta_v`` the end-to-end efficiencies of the two detected arms,
    ``eta_internal`` an optional loss between the squeezers, ``overlap`` the
    mode-overlap amplitude between the seed and the second squeezing process,
    and ``phase_offset`` a constant phase bias added to the probe phase.
    """

    r1: float
    r2: float
    eta_h: float = 1.0
    eta_v: float = 1.0
    eta_internal: float = 1.0
    overlap: float = 1.0
    phase_offset: float = 0.0

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


# Rows (a, b, a', b'), columns (a, b, a', b', e_a, e_b). Every operation
# conserves n_a - n_b, so U of arm H = (a, a') and V of arm V = (b, b') see
# only the charge +1 inputs (a, a', e_a), U_V and V_H only (b, b', e_b):
_PLUS, _MINUS = [0, 2, 4], [1, 3, 5]
_BLOCKS = [np.ix_([0, 2], _PLUS), np.ix_([1, 3], _MINUS), np.ix_([0, 2], _MINUS), np.ix_([1, 3], _PLUS)]


@lru_cache(maxsize=64)
def bogoliubov_factors(cfg: InterferometerConfig) -> np.ndarray:
    """X and Y of U and V, 2x3 per arm on the input columns of its charge:
    shape (2, 2, 2, 3, 2) for (X|Y, U|V, row, column, arm H|V).

    Before the phase: the first squeezer on (a, b) and the internal loss onto
    (e_a, e_b). After it: the mismatch rotation of each arm by acos(overlap),
    the second squeezer on (a, b), the rotation back and the arm losses.
    """
    # modes (a, b, a', b') before the phase as g (pair a + v0 a†) + rest a, the
    # map after it as m -> sqrt(eta) (alpha m + beta m†); g and the arm losses
    # scale last, so X_V and Y_V stay equal where the two squeezers cancel
    c1, s1 = math.cosh(cfg.r1), math.sinh(cfg.r1)
    g, leak = math.sqrt(cfg.eta_internal), math.sqrt(1.0 - cfg.eta_internal)
    pair, rest, v0 = np.zeros((3, 4, 6))
    pair[[0, 1], [0, 1]] = c1
    rest[[2, 3, 0, 1], [2, 3, 4, 5]] = [1.0, 1.0, leak, leak]
    v0[[0, 1], [1, 0]] = -s1
    c = cfg.overlap
    s = math.sqrt((1.0 - c) * (1.0 + c))  # 1 - c is exact near c = 1
    rot = np.array([[c, 0, s, 0], [0, c, 0, s], [-s, 0, c, 0], [0, -s, 0, c]])
    c2, s2 = math.cosh(cfg.r2), math.sinh(cfg.r2)
    alpha = rot.T @ np.diag([c2, c2, 1.0, 1.0]) @ rot
    beta = rot.T @ np.array([[0, -s2, 0, 0], [-s2, 0, 0, 0], [0] * 4, [0] * 4]) @ rot
    scale = np.sqrt([cfg.eta_h, cfg.eta_v, cfg.eta_h, cfg.eta_v])[:, None]
    # the phase multiplies the part before it by e^{it}; beta takes its adjoint, e^{-it}
    x_u, x_v = scale * (g * (alpha @ pair) + alpha @ rest), scale * (g * (alpha @ v0))
    y_u, y_v = scale * (g * (beta @ v0)), scale * (g * (beta @ pair) + beta @ rest)
    out = np.array([[u[k] for k in _BLOCKS[:2]] + [v[k] for k in _BLOCKS[2:]]
                    for u, v in ((x_u, x_v), (y_u, y_v))])
    out = np.moveaxis(out.reshape(2, 2, 2, 2, 3), 2, -1)
    out.setflags(write=False)
    return out
