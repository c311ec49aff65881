"""Threshold-detector click statistics of the interferometer output.

Detector H sees the matched and the mismatched mode of arm a, (a, a'),
detector V those of arm b, (b, b'). Arm X's U and V in b = U(t) a + V(t) a†
are sqrt(eta_X) times one arm map (``gaussian.bogoliubov_factors``), evaluated
at each phase first and multiplied, for both arms at once, into N0 = V* V^T
(Hermitian 2x2: every operation conserves n_a - n_b) and M0 = U V^T. Each
arm's moments weight these by eta_h and eta_v. Near a fringe zero V is small
and these products stay accurate relative to their size. With
e(A) = det(I + A) - 1 = tr A + det A, c = e/(1 + e), P_X = 1/(1 + e(N_X))
the vacuum probability of arm X and G_X its moments given vacuum on the
other arm, the two-detector Torontonian (Quesada et al., PRA 98, 062322
(2018)) reads

    p00 = P_H / (1 + e(G_V)),  p01 = P_H c(G_V),  p10 = P_V c(G_H),
    p11 = c(N_H) c(N_V) + P_H P_V (e(N_H) - e(G_H)) / (1 + e(G_H)),

products and sums of non-negative terms, none a difference of larger
numbers. p and dp/dphi (by the product rule) thus keep their relative
accuracy where an outcome vanishes, and F = sum dp^2/p needs no guard.
``clicks`` returns both on its one path, and ``fringe`` is its p. Both are
carried as jets through four products: x y, matrix, cross and tr(adj(X) Y),
each a broadcast over the arms and a chunk of rows: phases of one config, or
the stacked phases of several, each with its config's factors (``_fringe_rows``).
"""

from __future__ import annotations

import math

import numpy as np

from .gaussian import InterferometerConfig, InvalidStateError, _number, _numbers, bogoliubov_factors

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
# Phases per batch: bounds the scratch memory of long phase arrays. One chunk
# traces a 0.41 MB peak, a 2049-phase call 0.53 MB (TestScratchBound).
_CHUNK = 128
# click core: the off-diagonal of a 2x2 block, and columns c + 1 and c + 2
# (mod 3) at column c
_OFF_DIAGONAL = ~np.eye(2, dtype=bool)[:, :, None, None]
_ROLL = np.array([[1, 2, 0], [2, 0, 1]])
# the outcome rows p00 = q(N_H) q(G_V), p01 = q(N_H) c(G_V), p10 = q(N_V) c(G_H),
# c(N_H) c(N_V), q(N_V) q(G_H) and q(N_H) gain, as pairs of entries of the table
# (q(N_H), q(N_V), q(G_H), q(G_V), c(N_H), c(N_V), c(G_H), c(G_V), gain)
_ROWS = np.array([[0, 3], [0, 7], [1, 6], [4, 5], [1, 2], [0, 8]]).T
# overlap_for_visibility bisection
_OVERLAP_MIN, _OVERLAP_TOL = 0.5, 1e-6


def _extremes(a: np.ndarray):
    """The least and the largest entry of an array, (0, 0) if it is empty; a
    NaN, if there is one, is both. argmin and argmax cost less than a
    reduction."""
    flat = a.ravel("K")
    return (flat[flat.argmin()], flat[flat.argmax()]) if flat.size else (0.0, 0.0)


def _checked(p: np.ndarray) -> np.ndarray:
    """Validate rows of (p00, p01, p10, p11) and clamp roundoff into [0, 1]."""
    lo, hi = _extremes(p)  # a NaN fails both tests
    if not (lo >= -_CLAMP_TOL and hi <= 1.0 + _CLAMP_TOL):
        row, col = np.argwhere(~((p >= -_CLAMP_TOL) & (p <= 1.0 + _CLAMP_TOL)))[0]
        raise InvalidStateError(f"{_OUTCOMES[col]} = {p[row, col]} not finite or outside [0, 1]")
    if lo < 0.0 or hi > 1.0:  # clip leaves every value inside, -0.0 too
        p = p.clip(0.0, 1.0)
    total = np.add.reduce(p, -1)  # p.sum(axis=-1), without the method's wrapper
    if not _extremes(np.abs(total - 1.0))[1] <= _SUM_TOL:  # a NaN fails the test
        raise InvalidStateError(f"outcome probabilities sum to {total.min()}..{total.max()}, not 1")
    return p


# A jet holds one quantity and its phase derivative on the leading axis. The
# phase is the last axis and the arm (H, V) the one before it; small matrices,
# vectors or scalars sit between. Each product below is a jet: the value
# x0 y0, then the derivative x0 y1 + x1 y0 by the product rule.


def _mul(x, y):
    """Jet of the product x y."""
    out = x[:1] * y
    out[1] += x[1] * y[0]
    return out


def _mm(x, y):
    """Jet of the matrix product of stacks (2, k, m, ...) and (2, m, l, ...)."""
    out = np.add.reduce(x[:1, :, :, None] * y[:, None], axis=2)
    out[1] += np.add.reduce(x[1, :, :, None] * y[0, None], axis=1)
    return out


def _cross(u):
    """Jet of the cross product u_0 x u_1 of the rows of 2x3 blocks (2, 2, 3, ...):
    (u_0 x u_1)_c = u_0,c+1 u_1,c+2 - u_0,c+2 u_1,c+1 (indices mod 3)."""
    rolled = u.take(_ROLL, axis=2)
    a, b = rolled[:, None, 0], rolled[:, 1]  # every pair (i, j) of jet entries
    out = a[:, :, 0] * b[:, 1] - a[:, :, 1] * b[:, 0]
    out[0, 1] += out[1, 0]
    return out[0]


def _tr_adj(x, y):
    """Jet of tr(adj(X) Y) = X11 Y00 + X00 Y11 - X01 Y10 - X10 Y01 of the 2x2
    blocks on the axes before (arm, phase); 2 det X at Y = X."""
    a, b = x[:, None], y  # every pair (i, j) of jet entries
    out = (a[..., 1, 1, :, :] * b[..., 0, 0, :, :] + a[..., 0, 0, :, :] * b[..., 1, 1, :, :]
           - a[..., 0, 1, :, :] * b[..., 1, 0, :, :] - a[..., 1, 0, :, :] * b[..., 0, 1, :, :])
    out[0, 1] += out[1, 0]
    return out[0]


def _q(e):
    """Jet of 1/(1 + e)."""
    q = 1.0 / (1.0 + e[:1])
    out = -e * q * q
    out[:1] = q
    return out


def _jet_factors(cfg: InterferometerConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients of e^{it} and of e^{-it} in the jets of V*, U and V of one
    arm before its loss, each (2, 3, 2, 3, 1, 1) for (jet, block, row, column,
    arm, phase), and the weights (6, 2, 1) of the arm moments (see _clicks)."""
    (x_u, x_v), (y_u, y_v) = bogoliubov_factors(cfg)
    zero = np.zeros_like(x_v)
    # every moment is unchanged by U -> e^{is} U, V -> e^{-is} V, so the
    # derivative may drop that part: U' - iU = -2i U_-, V' + iV = 2i V_+,
    # which are exactly 0 when the phase cannot act (r1 = 0)
    at_w = np.array([[y_v.conj(), x_u, x_v], [zero, zero, 2j * x_v]])[..., None, None]
    at_wc = np.array([[x_v.conj(), y_u, y_v], [(2j * x_v).conj(), -2j * y_u, zero]])[..., None, None]
    eta, eta_o = np.array([[cfg.eta_h, cfg.eta_v], [cfg.eta_v, cfg.eta_h]])[..., None]
    lam = 1.0 - eta_o
    weights = np.array([eta, eta * eta, eta * lam * (1 + eta_o), eta * lam * eta_o, eta * eta_o * eta_o, eta * eta_o])
    return at_w, at_wc, weights


def _phases(phis) -> np.ndarray:
    """Any array-like of numbers (``gaussian._numbers``) as a flat float array
    of phases; refuses a non-finite one."""
    _numbers("phases", phis)
    phis = np.asarray(phis, dtype=float).reshape(-1)
    lo, hi = _extremes(phis)  # a NaN fails both tests
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError("phases must be finite")
    return phis


def clicks(cfg: InterferometerConfig, phis) -> tuple[np.ndarray, np.ndarray]:
    """Click probabilities p (N, 4) of a config over an array of phases and
    their derivatives dp/dphi (N, 4), in chunks of _CHUNK phases."""
    phis = _phases(phis)
    p = _rows(_jet_factors(cfg), phis + cfg.phase_offset)
    return _checked(p[0].T), p[1].T


def _fringe_rows(cfgs, phis) -> np.ndarray:
    """``fringe`` of each config over the phases, (configs, N, 4), in one pass over their stacked rows."""
    phis = _phases(phis)
    factors = [np.concatenate(arrays, axis=-1).repeat(phis.size, axis=-1) for arrays in zip(*map(_jet_factors, cfgs))]
    p = _rows(factors, np.concatenate([phis + cfg.phase_offset for cfg in cfgs]))[0]
    return _checked(p.T).reshape(len(cfgs), phis.size, 4)


def _rows(factors, t) -> np.ndarray:
    """_clicks at t = phi + phase_offset in chunks of _CHUNK, from _jet_factors of one config or of each row."""
    p = np.empty((2, 4, t.size))
    for k in range(0, t.size, _CHUNK):
        rows = slice(k, k + _CHUNK) if factors[0].shape[-1] > 1 else slice(None)
        p[..., k: k + _CHUNK] = _clicks([x[..., rows] for x in factors], t[k: k + _CHUNK])
    return p


def _clicks(factors, t):
    """(p, dp/dphi) of a chunk of rows as a jet (2, 4, N) at t, from their _jet_factors."""
    w = np.exp(1j * t)
    at_w, at_wc, (e_tr, e_det, g_n, g_b, g_z, d_b) = factors
    # V*, U and V of one arm before its loss, with an arm axis of length 1
    uv = at_w * w + at_wc * w.conj()
    v = uv[:, 2]
    # N0 = V* V^T and M0 = U V^T from one product
    nm = _mm(uv[:, :2].reshape(-1, 4, 3, 1, w.size), v.swapaxes(1, 2))
    n, m = nm[:, :2], nm[:, 2:]
    tr = (n[:, 0, 0] + n[:, 1, 1]).real  # tr N0 is real: its roundoff imaginary part is dropped
    e_n = e_tr * tr + e_det * (0.5 * _tr_adj(n, n).real)  # e(N) = eta tr N0 + eta^2 det N0
    p_vac = _q(e_n)
    # G = N - m^dag (I + N_o*)^-1 m are the moments of arm X given vacuum on
    # the other arm o, with N = eta N0 and m = U_o V^T = sqrt(eta eta_o) M0. The
    # commutators give U_o U_o^dag = eta_o I + N_o*, so with lam = 1 - eta_o,
    # G = lam V* (lam I + U_o^dag U_o)^-1 V^T. U^dag U is 3x3 of rank 2 with
    # adjugate w w^dag, w = u_0 x u_1 its rows' cross product, so G = P_o g,
    #   g = eta [(1 - eta_o^2) N0 + lam eta_o (tr N0 N0 - B) + eta_o^2 z* z^T]
    # with B = M0^dag M0 and z = V w*. At lam = 0 only the Gram form is left,
    # exactly 0 where G vanishes identically (the subtraction leaves roundoff).
    z = _mm(v, _cross(uv[:, 1]).conj()[:, :, None])[:, :, 0]
    # B and M0^dag adj(N0*) from one product, adj(N0*) = [[n11*, -n01*], [-n10*, n00*]]
    adj = n[:, ::-1, ::-1].swapaxes(1, 2).conj()
    np.negative(adj, out=adj, where=_OFF_DIAGONAL)
    mm = _mm(m.conj().swapaxes(1, 2), np.concatenate([m, adj], axis=2))
    b = mm[:, :, :2]
    g = g_n * n + g_b * (_mul(tr[:, None, None], n) - b)
    g += g_z * _mul(z.conj()[:, :, None], z[:, None])
    # p11 = c(N_H) c(N_V) + P_H P_V (e(N_H) - e(G_H)) / (1 + e(G_H)), the
    # difference taken as e(D) + tr(adj(G) D) from D = N - G = P_o d >= 0,
    # d = m^dag adj(I + N_o*) m = eta eta_o (B + eta_o M0^dag adj(N0*) M0)
    # (adj(I + A) = I + adj A for 2x2 A): a form in V_H, like c(N_H) and p10.
    # No outcome reads D_V, so d is formed for arm H only
    d = d_b[:1] * b + g_z[:1] * _mm(mm[:, :, 2:], m)
    # (G_H, G_V, D_H) = (P_V g_H, P_H g_V, P_V d_H) on the arm axis, then e(.)
    # of each from 2 det, and tr(adj(G_H) D_H) of the p11 gain
    s = _mul(p_vac[:, [1, 0, 1]], np.concatenate([g, d], axis=-2))
    e = (s[:, 0, 0] + s[:, 1, 1] + 0.5 * _tr_adj(s, s)).real
    q_g = _q(e[:, :2])
    # e(N_H) - e(G_H) = e(D_H) + tr(adj(G_H) D_H)
    gain = e[:, 2:] + _tr_adj(s[..., :1, :], s[..., 2:, :]).real
    qc = np.concatenate([p_vac, q_g, _mul(e_n, p_vac), _mul(e[:, :2], q_g), gain], axis=1)
    p = _mul(qc.take(_ROWS[0], 1), qc.take(_ROWS[1], 1))
    p[:, 3] += _mul(p[:, 4], p[:, 5])
    return p[:, :4]


def fringe(cfg: InterferometerConfig, phi_grid) -> np.ndarray:
    """Tabulate the four outcome probabilities over a phase grid, shape (N, 4)."""
    return clicks(cfg, phi_grid)[0]


def fringe_visibility(cfg: InterferometerConfig) -> float:
    """(max - min)/(max + min) of the coincidence fringe p11 over one period,
    0 where p11 = 0 throughout (as at r = 0). p11 is read at t = phi +
    phase_offset = 0 and pi/2: every outcome is even in t with period pi, so
    both are stationary; at overlap 1 p11 is monotone between them (n is affine
    in cos 2t), and test_p11_extremes_at_the_symmetry_points checks mismatch."""
    p11 = fringe(cfg, np.array([0.0, 0.5 * math.pi]) - cfg.phase_offset)[:, 3]
    hi, lo = float(p11.max()), float(p11.min())
    return (hi - lo) / (hi + lo) if hi > 0.0 else 0.0


def _bisect(above, lo: float, hi: float, tol: float) -> float:
    """Halve [lo, hi] to width ``tol`` or less, moving hi to each midpoint
    where ``above`` holds and lo to each other one; return the midpoint."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    return 0.5 * (lo + hi)


def overlap_for_visibility(cfg: InterferometerConfig, target: float) -> float:
    """Mode-overlap amplitude reproducing a target p11 fringe visibility.

    Visibility decreases as the overlap shrinks from 1, where it is 1 only if
    r1 = r2, so a bisection on [0.5, 1] recovers the overlap for a target
    between the visibilities at its two ends, and any other target raises.
    """
    _number("target visibility", target, 0, 1, above=True)
    lo, hi = _OVERLAP_MIN, 1.0
    ends = [fringe_visibility(cfg.with_updates(overlap=end)) for end in (lo, hi)]
    if not ends[0] <= target <= ends[1]:
        raise ValueError(f"target visibility {target} not reachable: {ends} at overlap {lo} and {hi}")
    return _bisect(lambda xi: fringe_visibility(cfg.with_updates(overlap=xi)) >= target, lo, hi, _OVERLAP_TOL)
