"""Threshold-detector click statistics of the interferometer output.

Detector H sees the matched and the mismatched mode of arm a, (a, a'),
detector V those of arm b, (b, b'). With each arm written as b = U(t) a +
V(t) a† (``gaussian.bogoliubov_factors``), U and V are evaluated at each
phase first and then multiplied into the arm moments N = V* V^T, Hermitian
2x2 because every operation conserves n_a - n_b. Near a fringe zero V is
small and these products stay accurate relative to their size. With
e(A) = det(I + A) - 1 = tr A + det A, c = e/(1 + e), P_X = 1/(1 + e(N_X))
the vacuum probability of arm X and G_X its moments given vacuum on the
other arm, the two-detector Torontonian (Quesada et al., PRA 98, 062322
(2018)) reads

    p00 = P_H / (1 + e(G_V)),  p01 = P_H c(G_V),  p10 = P_V c(G_H),
    p11 = c(N_H) c(N_V) + P_H P_V (e(N_H) - e(G_H)) / (1 + e(G_H)),

products and sums of non-negative terms, none a difference of larger
numbers. p and dp/dphi (by the product rule) thus keep their relative
accuracy where an outcome vanishes, and F = sum dp^2/p needs no guard.
"""

from __future__ import annotations

import math

import numpy as np

from .gaussian import InterferometerConfig, InvalidStateError, bogoliubov_factors

__all__ = [
    "clicks",
    "fringe",
    "fringe_visibility",
    "overlap_for_visibility",
]

# Floating-point noise this far outside [0, 1] is clamped; anything larger
# indicates a model bug and raises.
_CLAMP_TOL = 1e-12
_SUM_TOL = 1e-10
_OUTCOMES = ("p00", "p01", "p10", "p11")
# Phases per batch: bounds the scratch memory of long phase arrays.
_CHUNK = 256
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


# A jet holds one quantity and, if asked for, its phase derivative on an axis
# of length 1 or 2 just before the last, the phase. Leading axes index small
# matrices, vectors or scalars, so linear maps act on a jet as a whole.


def _leibniz(f, x, y):
    """Jet of f(x, y) for a bilinear f."""
    out = f(x[..., :1, :], y)
    if x.shape[-2] > 1:
        out[..., 1:, :] += f(x[..., 1:, :], y[..., :1, :])
    return out


def _mm(x, y):
    """Matrix product of stacks (k, m, ...) and (m, l, ...)."""
    return np.add.reduce(x[:, :, None] * y[None], axis=1)


def _tr_adj(x, y):
    """tr(adj(x) y) = det(x + y) - det x - det y for 2x2 stacks; 2 det x at y = x."""
    return x[1, 1] * y[0, 0] + x[0, 0] * y[1, 1] - x[0, 1] * y[1, 0] - x[1, 0] * y[0, 1]


def _e(a):
    """Jet of e(A) = det(I + A) - 1 = tr A + det A of a Hermitian 2x2 jet."""
    return (a[0, 0] + a[1, 1] + 0.5 * _leibniz(_tr_adj, a, a)).real


def _q(e):
    """Jet of 1/(1 + e)."""
    q = 1.0 / (1.0 + e[..., :1, :])
    out = -e * q * q
    out[..., :1, :] = q
    return out


def _given_vacuum(v, n, m, u_o, n_o, p_o, eta_o):
    """Jet of G = n - m^dag (I + n_o*)^-1 m: the moments n = v* v^T of an arm
    given vacuum on the other arm o, coupled to it through m = U_o v^T.

    The commutators of arm o give U_o U_o^dag = eta_o I + n_o*, so with
    lam = 1 - eta_o, G = lam v* (lam I + U_o^dag U_o)^-1 v^T. U_o^dag U_o is
    3x3 of rank 2 with adjugate w w^dag, w = u_0 x u_1 its rows' cross
    product, so G = P_o [lam^2 n + lam ((2 eta_o + tr n_o) n - m^dag m) + z* z^T]
    with z = v w*. At lam = 0 only the Gram form z* z^T is left, which is
    exactly 0 where G vanishes identically (the subtraction leaves roundoff).
    """
    lam = 1.0 - eta_o
    w = _leibniz(lambda a, b: np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                                        a[0] * b[1] - a[1] * b[0]]), u_o[0], u_o[1])
    z = _leibniz(lambda x, y: np.add.reduce(x * y.conj(), axis=1), v, w)
    tr = n_o[0, 0] + n_o[1, 1]
    tr[..., :1, :] += 2.0 * eta_o
    g = lam * lam * n + lam * (_leibniz(np.multiply, tr, n) - _leibniz(_mm, m.conj().swapaxes(0, 1), m))
    g += _leibniz(lambda x, y: x.conj()[:, None] * y[None], z, z)
    return _leibniz(np.multiply, p_o, g)


def clicks(cfg: InterferometerConfig, phis, order: int = 0) -> list[np.ndarray]:
    """Click probabilities p (N, 4) of a config over an array of phases, then
    dp/dphi when ``order`` is 1, in chunks of _CHUNK phases."""
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    phis = np.asarray(phis, dtype=float).reshape(-1)
    parts = [_clicks(cfg, phis[k: k + _CHUNK], order) for k in range(0, phis.size, _CHUNK)]
    p = np.concatenate(parts, axis=-1) if parts else np.empty((4, order + 1, 0))
    return [_checked(p[:, 0].T)] + [p[:, 1].T for _ in range(order)]


def _clicks(cfg, phis, order):
    """(p, dp/dphi) of a chunk of phases as a jet of shape (4, order + 1, N)."""
    w = np.exp(1j * (phis + cfg.phase_offset))
    x, y = bogoliubov_factors(cfg)[..., None]
    plus, minus = x * w, y * w.conj()
    jets = [plus + minus]
    if order:
        # every moment is unchanged by U -> e^{is} U, V -> e^{-is} V, so the
        # derivative may drop that part: U' - iU = -2i U_-, V' + iV = 2i V_+,
        # which are exactly 0 when the phase cannot act (r1 = 0)
        jets.append(2j * np.stack([-minus[0], plus[1]]))
    # U and V of both arms at once: H, then V on the third axis from the end
    u, v = np.stack(jets, axis=-2)
    vt, o = v.swapaxes(0, 1), slice(None, None, -1)
    n = _leibniz(_mm, v.conj(), vt)
    e = _e(n)
    p_vac = _q(e)
    u_o, n_o, p_o = u[..., o, :, :], n[..., o, :, :], p_vac[o]
    m = _leibniz(_mm, u_o, vt)
    g = _given_vacuum(v, n, m, u_o, n_o, p_o, np.array([cfg.eta_v, cfg.eta_h])[:, None, None])
    # p11 = c(N_H) c(N_V) + P_H P_V (e(N_H) - e(G_H)) / (1 + e(G_H)), the
    # difference taken as e(D) + tr(adj(G) D) from D = N - G =
    # P_o m^dag adj(I + n_o*) m >= 0: a form in V_H, like c(N_H) and p10
    adj = np.array([[n_o[1, 1], -n_o[0, 1]], [-n_o[1, 0], n_o[0, 0]]]).conj()
    adj[[0, 1], [0, 1], ..., :1, :] += 1.0
    d = _leibniz(np.multiply, p_o, _leibniz(_mm, _leibniz(_mm, m.conj().swapaxes(0, 1), adj), m))
    e_g, e_d = _e(np.stack([g, d], axis=2))
    ee = np.array([e, e_g])
    q = _q(ee)
    (p_h, p_v), ((c_h, c_v), (c_gh, c_gv)), (q_gh, q_gv) = p_vac, _leibniz(np.multiply, ee, q), q[1]
    gain_h = e_d[0] + _leibniz(_tr_adj, g, d)[0].real
    # rows p00, p01, p10, c(N_H) c(N_V) and P_V / (1 + e(G_H))
    p = _leibniz(np.multiply, np.array([p_h, p_h, p_v, c_h, p_v]), np.array([q_gv, c_gv, c_gh, c_v, q_gh]))
    p[3] += _leibniz(np.multiply, p[4], _leibniz(np.multiply, p_h, gain_h))
    return p[:4]


def fringe(cfg: InterferometerConfig, phi_grid) -> np.ndarray:
    """Tabulate the four outcome probabilities over a phase grid, shape (N, 4)."""
    return clicks(cfg, phi_grid)[0]


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
