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
``clicks`` returns both on its one path, and ``fringe`` is its p.
"""

from __future__ import annotations

import math
from functools import lru_cache

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
# click core: the off-diagonal of a 2x2 block
_OFF_DIAGONAL = ~np.eye(2, dtype=bool)[:, :, None, None]
# overlap_for_visibility bisection
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


# A jet holds one quantity and its phase derivative on the leading axis, so
# x[:1] is the value. The phase is the last axis and the arm (H, V) the one
# before it; small matrices, vectors or scalars sit between, so linear maps
# act on a jet as a whole.


def _leibniz(f, x, y):
    """Jet of f(x, y) for a bilinear f."""
    out = f(x[:1], y)
    out[1:] += f(x[1:], y[:1])
    return out


def _mm(x, y):
    """Matrix product of stacks (J, k, m, ...) and (J, m, l, ...)."""
    return np.add.reduce(x[:, :, :, None] * y[:, None], axis=2)


def _q(e):
    """Jet of 1/(1 + e)."""
    q = 1.0 / (1.0 + e[:1])
    out = -e * q * q
    out[:1] = q
    return out


# Short sums of products run as gathers: x and y are tables of jets whose
# axes between the jet and the arm, flattened, hold named entries, and each
# output of a step is a sum of products x[a] y[b], "-b" for a negative term.
def _stage(x_names, y_names, forms):
    """For ``forms``, a list of (output, [(a, b), ...]) whose sums share one
    pattern of signs: the signs of the terms and the flat table indices of
    each term's a and b for the jet pairs (0, 0), (0, 1) and (1, 0), shape
    (terms, 3, outputs)."""
    terms = [[(x_names.index(a), y_names.index(b.lstrip("-"))) for a, b in sum_] for _, sum_ in forms]
    jets = np.array([[0, 0, 1], [0, 1, 0]]) * [[len(x_names)], [len(y_names)]]
    return [b.startswith("-") for _, b in forms[0][1]], tuple(np.array(terms).T[..., None, :] + jets[:, None, :, None])


def _forms(x, y, stage):
    """Jets (2, outputs, ...) of a step: the value, then the derivative by the
    product rule, f(x0, y1) + f(x1, y0)."""
    negative, (ix, iy) = stage
    terms = x.reshape((-1,) + x.shape[-2:]).take(ix, 0) * y.reshape((-1,) + y.shape[-2:]).take(iy, 0)
    total = terms[0]
    for term, minus in zip(terms[1:], negative[1:]):
        (np.subtract if minus else np.add)(total, term, out=total)
    total[1] += total[2]
    return total[:2]


def _tr_adj(a, b):
    """tr(adj(A) B) = A11 B00 + A00 B11 - A01 B10 - A10 B01; 2 det A at B = A."""
    return [(f"{a}11", f"{b}00"), (f"{a}00", f"{b}11"), (f"{a}01", f"-{b}10"), (f"{a}10", f"-{b}01")]


# table entries (row and column last): V*, U and V; N0 and M0; w*; P_o; the
# bracket g of G and d of D; G and D; then q = 1/(1 + e) and c = e q of N_H,
# N_V, G_H and G_V, and the gain P_H (e(N_H) - e(G_H))
_IJ = ("00", "01", "10", "11")
_T = [f"{name}{i}{c}" for name in ("vc", "u", "v") for i in range(2) for c in range(3)]
_NM, _GD = [f"n{e}" for e in _IJ] + [f"m{e}" for e in _IJ], [f"g{e}" for e in _IJ] + [f"d{e}" for e in _IJ]
_QC = [f"{f}{a}{x}" for f in "qc" for a in "NG" for x in "HV"] + ["gain"]
_CROSS = _stage(_T, _T, [(c, [(f"u0{(c + 1) % 3}", f"u1{(c + 2) % 3}"), (f"u0{(c + 2) % 3}", f"-u1{(c + 1) % 3}")])
                         for c in range(3)])
_Z = _stage(_T, ["wc0", "wc1", "wc2"], [(i, [(f"v{i}{c}", f"wc{c}") for c in range(3)]) for i in range(2)])
_DET = _stage(_NM, _NM, [("n", _tr_adj("n", "n"))])
_OUTER = _stage(["zc0", "zc1"], ["z0", "z1"], [(e, [(f"zc{e[0]}", f"z{e[1]}")]) for e in _IJ])
_SCALE = _stage(["po"], _GD, [(name, [("po", name)]) for name in _GD])
_DETS = _stage([n.upper() for n in _GD], [n.upper() for n in _GD], [(a + b, _tr_adj(a, b)) for a, b in ("GG", "DD", "GD")])
# rows p00, p01, p10, c(N_H) c(N_V), P_V / (1 + e(G_H)) and P_H gain
_ROWS = _stage(_QC, _QC, [(k, [pair]) for k, pair in enumerate(
    [("qNH", "qGV"), ("qNH", "cGV"), ("qNV", "cGH"), ("cNH", "cNV"), ("qNV", "qGH"), ("qNH", "gain")])])


@lru_cache(maxsize=64)
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
    for array in (at_w, at_wc, weights):
        array.setflags(write=False)
    return at_w, at_wc, weights


def _phases(phis) -> np.ndarray:
    """Any array-like of phases as a flat float array; refuses a non-finite one."""
    phis = np.asarray(phis, dtype=float).reshape(-1)
    if not np.isfinite(phis).all():
        raise ValueError("phases must be finite")
    return phis


def clicks(cfg: InterferometerConfig, phis) -> tuple[np.ndarray, np.ndarray]:
    """Click probabilities p (N, 4) of a config over an array of phases and
    their derivatives dp/dphi (N, 4), in chunks of _CHUNK phases."""
    phis = _phases(phis)
    if not phis.size:
        return np.zeros((0, 4)), np.zeros((0, 4))
    p = np.concatenate([_clicks(cfg, phis[k: k + _CHUNK]) for k in range(0, phis.size, _CHUNK)], axis=-1)
    return _checked(p[0].T), p[1].T


def _clicks(cfg, phis):
    """(p, dp/dphi) of a chunk of phases as a jet of shape (2, 4, N)."""
    w = np.exp(1j * (phis + cfg.phase_offset))
    at_w, at_wc, (e_tr, e_det, g_n, g_b, g_z, d_b) = _jet_factors(cfg)
    # V*, U and V of one arm before its loss, with an arm axis of length 1
    t = at_w * w + at_wc * w.conj()
    v = t[:, 2]
    # N0 = V* V^T and M0 = U V^T from one product
    nm = _leibniz(_mm, t[:, :2].reshape(2, 4, 3, 1, phis.size), v.swapaxes(1, 2))
    n, m = nm[:, :2], nm[:, 2:]
    tr = (n[:, 0, 0] + n[:, 1, 1]).real
    ee = np.empty((2, 2, 2, phis.size))  # e(N), e(G); e(N) = eta tr N0 + eta^2 det N0
    ee[:, 0] = e_tr * tr + e_det * (0.5 * _forms(nm, nm, _DET)[:, 0].real)
    p_vac = _q(ee[:, 0])
    # G = N - m^dag (I + N_o*)^-1 m are the moments of arm X given vacuum on
    # the other arm o, with N = eta N0 and m = U_o V^T = sqrt(eta eta_o) M0. The
    # commutators give U_o U_o^dag = eta_o I + N_o*, so with lam = 1 - eta_o,
    # G = lam V* (lam I + U_o^dag U_o)^-1 V^T. U^dag U is 3x3 of rank 2 with
    # adjugate w w^dag, w = u_0 x u_1 its rows' cross product, so G = P_o g,
    #   g = eta [(1 - eta_o^2) N0 + lam eta_o (tr N0 N0 - B) + eta_o^2 z* z^T]
    # with B = M0^dag M0 and z = V w*. At lam = 0 only the Gram form is left,
    # exactly 0 where G vanishes identically (the subtraction leaves roundoff).
    z = _forms(t, _forms(t, t, _CROSS).conj(), _Z)
    # B and M0^dag adj(N0*) from one product
    ma = np.empty((2, 2, 4, 1, phis.size), dtype=complex)
    ma[:, :, :2] = m
    adj = ma[:, :, 2:]
    np.conjugate(n[:, ::-1, ::-1].swapaxes(1, 2), out=adj)
    np.negative(adj, out=adj, where=_OFF_DIAGONAL)
    mm = _leibniz(_mm, m.conj().swapaxes(1, 2), ma)
    b = mm[:, :, :2]
    gd = np.empty((2, 2, 2, 2, 2, phis.size), dtype=complex)
    gd[:, 0] = g_n * n + g_b * (_leibniz(np.multiply, tr[:, None, None], n) - b)
    gd[:, 0] += g_z * _forms(z.conj(), z, _OUTER).reshape(2, 2, 2, 1, phis.size)
    # p11 = c(N_H) c(N_V) + P_H P_V (e(N_H) - e(G_H)) / (1 + e(G_H)), the
    # difference taken as e(D) + tr(adj(G) D) from D = N - G = P_o d >= 0,
    # d = m^dag adj(I + N_o*) m = eta eta_o (B + eta_o M0^dag adj(N0*) M0)
    # (adj(I + A) = I + adj A for 2x2 A): a form in V_H, like c(N_H) and p10
    gd[:, 1] = d_b * b + g_z * _leibniz(_mm, mm[:, :, 2:], m)
    # G = P_o g and D = P_o d, then 2 det G, 2 det D and tr(adj(G) D)
    scaled = _forms(p_vac[:, None, ::-1], gd, _SCALE)
    dets = _forms(scaled, scaled, _DETS)
    e_gd = (scaled[:, 0:5:4] + scaled[:, 3:8:4] + 0.5 * dets[:, :2]).real
    ee[:, 1] = e_gd[:, 0]
    qc = np.empty((2, len(_QC), 1, phis.size))
    q = _q(ee)
    qc[:, :4, 0] = q.reshape(2, 4, phis.size)
    qc[:, 4:8, 0] = _leibniz(np.multiply, ee, q).reshape(2, 4, phis.size)
    qc[:, 8, 0] = e_gd[:, 1, 0] + dets[:, 2, 0].real
    p = _forms(qc, qc, _ROWS)[:, :, 0]
    p[:, 3] += _leibniz(np.multiply, p[:, 4], p[:, 5])
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
    if not 0.0 < target <= 1.0:
        raise ValueError("target visibility must be in (0, 1]")
    lo, hi = _OVERLAP_MIN, 1.0
    ends = [fringe_visibility(cfg.with_updates(overlap=end)) for end in (lo, hi)]
    if not ends[0] <= target <= ends[1]:
        raise ValueError(f"target visibility {target} not reachable: {ends} at overlap {lo} and {hi}")
    return _bisect(lambda xi: fringe_visibility(cfg.with_updates(overlap=xi)) >= target, lo, hi, _OVERLAP_TOL)
