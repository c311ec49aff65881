"""The two-squeezer interferometer model as a Bogoliubov map of one detector arm.

Each detected mode is b = U(t) a + V(t) a† over the input modes: the squeezed
pair (a, b), the mismatched ancilla pair (a', b') and the environment (e_a,
e_b) of the internal loss. The squeezer S(r) = exp[r(ab - a†b†)] maps a -> a
cosh r - b† sinh r, so its vacuum amplitudes are (1/cosh r)(-tanh r)^n, the
convention the Fock oracle pins. Mode mismatch rotates a into a' and b into
b' once, before the phase, which commutes with it as a', b' are empty until
then; no rotation back follows, as it keeps n_a + n_a' and n_b + n_b', all
the detectors see. So U(t) = e^{it} X_U + e^{-it} Y_U with t = phi +
phase_offset, and likewise V(t) (Yurke, McCall & Klauder, PRA 33, 4033
(1986)). The arms differ only in their external loss, which scales an arm's
map by sqrt(eta); its environment drops out of every normal-ordered moment.
"""

from __future__ import annotations

import contextlib
import math
import operator
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace

import numpy as np

__all__ = [
    "InterferometerConfig",
    "InvalidStateError",
    "bogoliubov_factors",
]


class InvalidStateError(ValueError):
    """Click probabilities that no physical state produces."""


def _is_number(value) -> bool:
    """An int or a float, numpy scalars included, and never a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _is_pair(value) -> bool:
    """A list or a tuple of two numbers."""
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value))


def _mapping(name: str, value, keys, required=()) -> dict:
    """``value`` if it is a dict whose keys are among ``keys`` and include ``required``, else a ValueError
    naming ``name``. A dataclass's keys are its fields, and those without a default are required."""
    if is_dataclass(keys):
        keys, required = [f.name for f in fields(keys)], [f.name for f in fields(keys) if f.default is MISSING]
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    if unknown := value.keys() - set(keys):
        raise ValueError(f"unknown {name} keys: {sorted(unknown, key=repr)}")
    if missing := [key for key in required if key not in value]:
        raise ValueError(f"{name} lacks the keys {missing}")
    return value


def _integer(name: str, value) -> int:
    """``value`` as an int; a ValueError naming ``name`` for a bool or a non-integer."""
    with contextlib.suppress(TypeError):
        if not isinstance(value, bool):
            return operator.index(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        if not all(map(_is_number, values.values())):
            raise ValueError(f"every field must be a number, got {values}")
        if not (0 <= self.r1 < math.inf and 0 <= self.r2 < math.inf):
            raise ValueError("squeezing parameters must be finite and >= 0")
        for name in ("eta_h", "eta_v", "eta_internal", "overlap"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not math.isfinite(self.phase_offset):
            raise ValueError("phase_offset must be finite")

    def with_updates(self, **kwargs) -> "InterferometerConfig":
        return replace(self, **kwargs)


def bogoliubov_factors(cfg: InterferometerConfig) -> np.ndarray:
    """X and Y of U and V of one arm before its external loss, shape (2, 2,
    2, 3) for (X|Y, U|V, row, column): rows the arm's modes (m, m'), U on
    (m, m', e_m) and V on the partner arm's. Arm X's are sqrt(eta_X) times
    these, as the model has no per-arm internal loss and no per-arm overlap.

    Before the phase: the first squeezer pairs m with its partner, the
    internal loss mixes in e_m and the mismatch rotation mixes in m'. After
    it: the second squeezer on m, and no rotation back (module docstring).
    """
    # the arm before the phase as g (pair m + v0 m_partner^dag) + rest m; the
    # rotation and the second squeezer as m -> alpha m + beta m_partner^dag; g
    # scales last, so X_V and Y_V stay equal where the two squeezers cancel
    c1, s1 = math.cosh(cfg.r1), math.sinh(cfg.r1)
    g, leak = math.sqrt(cfg.eta_internal), math.sqrt(1.0 - cfg.eta_internal)
    pair, rest, v0 = np.zeros((3, 2, 3))
    pair[0, 0], rest[1, 1], rest[0, 2], v0[0, 0] = c1, 1.0, leak, -s1
    c = cfg.overlap
    s = math.sqrt((1.0 - c) * (1.0 + c))  # 1 - c is exact near c = 1
    rot = np.array([[c, s], [-s, c]])
    c2, s2 = math.cosh(cfg.r2), math.sinh(cfg.r2)
    alpha = np.diag([c2, 1.0]) @ rot
    beta = np.diag([-s2, 0.0]) @ rot
    # the phase multiplies the part before it by e^{it}; beta takes its adjoint, e^{-it}
    x_u, x_v = g * (alpha @ pair) + alpha @ rest, g * (alpha @ v0)
    y_u, y_v = g * (beta @ v0), g * (beta @ pair) + beta @ rest
    return np.array([[x_u, x_v], [y_u, y_v]])
