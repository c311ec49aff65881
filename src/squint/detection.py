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
# click core: the diagonal of a 2x2 block
_DIAGONAL = np.eye(2, dtype=bool)[:, :, None, None]
_OFF_DIAGONAL = ~_DIAGONAL
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


# A jet holds one quantity and, if asked for, its phase derivative on the
# leading axis, of length 1 or 2, so x[:1] is the value. The phase is the last
# axis and the arm (H, V) the one before it; small matrices, vectors or
# scalars sit between, so linear maps act on a jet as a whole.


def _leibniz(f, x, y):
    """Jet of f(x, y) for a bilinear f."""
    out = f(x[:1], y)
    if len(x) > 1:
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
    pattern of signs: the signs of the terms and, per order, the flat table
    indices of each term's a and b, shape (terms, jet pairs (0, 0) [, (0, 1),
    (1, 0)], outputs)."""
    terms = [[(x_names.index(a), y_names.index(b.lstrip("-"))) for a, b in sum_] for _, sum_ in forms]
    pairs = np.array(terms).T[..., None, :]
    return [b.startswith("-") for _, b in forms[0][1]], [
        tuple(jets[:, k, None] * len(names) + pairs[k] for k, names in enumerate((x_names, y_names)))
        for jets in (np.array([[0, 0]]), np.array([[0, 0], [0, 1], [1, 0]]))]


def _forms(x, y, stage):
    """Jets (J, outputs, ...) of a step: the value, then the derivative by the
    product rule, f(x0, y1) + f(x1, y0)."""
    negative, index = stage
    ix, iy = index[len(x) - 1]
    terms = x.reshape((-1,) + x.shape[-2:]).take(ix, 0) * y.reshape((-1,) + y.shape[-2:]).take(iy, 0)
    total = terms[0]
    for term, minus in zip(terms[1:], negative[1:]):
        (np.subtract if minus else np.add)(total, term, out=total)
    if len(x) > 1:
        total[1] += total[2]
    return total[:len(x)]


def _tr_adj(a, b):
    """tr(adj(A) B) = A11 B00 + A00 B11 - A01 B10 - A10 B01; 2 det A at B = A."""
    return [(f"{a}11", f"{b}00"), (f"{a}00", f"{b}11"), (f"{a}01", f"-{b}10"), (f"{a}10", f"-{b}01")]


# table entries (row and column last): V*, U_o and V; N and m; w*; P_o; the
# bracket g of G and d of D; G and D; then q = 1/(1 + e) and c = e q of N_H,
# N_V, G_H and G_V, and the gain P_H (e(N_H) - e(G_H))
_IJ = ("00", "01", "10", "11")
_T = [f"{name}{i}{c}" for name in ("vc", "uo", "v") for i in range(2) for c in range(3)]
_NM, _GD = [f"n{e}" for e in _IJ] + [f"m{e}" for e in _IJ], [f"g{e}" for e in _IJ] + [f"d{e}" for e in _IJ]
_QC = [f"{f}{a}{x}" for f in "qc" for a in "NG" for x in "HV"] + ["gain"]
_CROSS = _stage(_T, _T, [(c, [(f"uo0{(c + 1) % 3}", f"uo1{(c + 2) % 3}"), (f"uo0{(c + 2) % 3}", f"-uo1{(c + 1) % 3}")])
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
    """Coefficients of e^{it} and of e^{-it} in the jets of V*, U of the other
    arm and V, each (2, 3, 2, 3, 2, 1) for (jet, block, row, column, arm,
    phase), and the other arm's efficiency per arm."""
    (x_u, x_v), (y_u, y_v) = bogoliubov_factors(cfg)
    zero = np.zeros_like(x_v)
    # every moment is unchanged by U -> e^{is} U, V -> e^{-is} V, so the
    # derivative may drop that part: U' - iU = -2i U_-, V' + iV = 2i V_+,
    # which are exactly 0 when the phase cannot act (r1 = 0)
    at_w = np.array([[y_v.conj(), x_u[..., ::-1], x_v], [zero, zero, 2j * x_v]])[..., None]
    at_wc = np.array([[x_v.conj(), y_u[..., ::-1], y_v], [(2j * x_v).conj(), -2j * y_u[..., ::-1], zero]])[..., None]
    at_w.setflags(write=False)
    at_wc.setflags(write=False)
    return at_w, at_wc, np.array([[cfg.eta_v], [cfg.eta_h]])


def clicks(cfg: InterferometerConfig, phis, order: int = 0) -> list[np.ndarray]:
    """Click probabilities p (N, 4) of a config over an array of phases, then
    dp/dphi when ``order`` is 1, in chunks of _CHUNK phases."""
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    phis = np.asarray(phis, dtype=float).reshape(-1)
    if phis.size <= _CHUNK:
        p = _clicks(cfg, phis, order)
    else:
        p = np.concatenate([_clicks(cfg, phis[k: k + _CHUNK], order) for k in range(0, phis.size, _CHUNK)], axis=-1)
    return [_checked(p[0].T)] + [p[1].T for _ in range(order)]


def _clicks(cfg, phis, order):
    """(p, dp/dphi) of a chunk of phases as a jet of shape (order + 1, 4, N)."""
    jets, size = order + 1, phis.size
    w = np.exp(1j * (phis + cfg.phase_offset))
    at_w, at_wc, eta_o = _jet_factors(cfg)
    # V*, U_o and V of both arms at once, arms on the second axis from the end
    t = at_w[:jets] * w + at_wc[:jets] * w.conj()
    v = t[:, 2]
    # N = V* V^T and the coupling m = U_o V^T from one product
    nm = _leibniz(_mm, t[:, :2].reshape(jets, 4, 3, 2, size), v.swapaxes(1, 2))
    n, m = nm[:, :2], nm[:, 2:]
    n_o = n[..., ::-1, :]
    ee = np.empty((jets, 2, 2, size))  # e(N), e(G)
    ee[:, 0] = (n[:, 0, 0] + n[:, 1, 1] + 0.5 * _forms(nm, nm, _DET)[:, 0]).real
    p_vac = _q(ee[:, 0])
    # G = n - m^dag (I + n_o*)^-1 m, the moments n = v* v^T of an arm given
    # vacuum on the other arm o. The commutators of arm o give U_o U_o^dag =
    # eta_o I + n_o*, so with lam = 1 - eta_o, G = lam v* (lam I + U_o^dag
    # U_o)^-1 v^T. U_o^dag U_o is 3x3 of rank 2 with adjugate w w^dag, w = u_0 x
    # u_1 its rows' cross product, so G = P_o g, g = lam^2 n + lam ((2 eta_o +
    # tr n_o) n - m^dag m) + z* z^T with z = v w*. At lam = 0 only the Gram
    # form z* z^T is left, which is exactly 0 where G vanishes identically (the
    # subtraction leaves roundoff).
    lam = 1.0 - eta_o
    z = _forms(t, _forms(t, t, _CROSS).conj(), _Z)
    tr = n_o[:, 0, 0] + n_o[:, 1, 1]
    tr[:1] += 2.0 * eta_o
    # m^dag m and m^dag adj(I + n_o*) from one product
    ma = np.empty((jets, 2, 4, 2, size), dtype=complex)
    ma[:, :, :2] = m
    adj = ma[:, :, 2:]
    np.conjugate(n_o[:, ::-1, ::-1].swapaxes(1, 2), out=adj)
    np.negative(adj, out=adj, where=_OFF_DIAGONAL)
    np.add(adj[:1], 1.0, out=adj[:1], where=_DIAGONAL)
    mm = _leibniz(_mm, m.conj().swapaxes(1, 2), ma)
    gd = np.empty((jets, 2, 2, 2, 2, size), dtype=complex)
    np.add(lam * lam * n, lam * (_leibniz(np.multiply, tr[:, None, None], n) - mm[:, :, :2]), out=gd[:, 0])
    gd[:, 0] += _forms(z.conj(), z, _OUTER).reshape(jets, 2, 2, 2, size)
    # p11 = c(N_H) c(N_V) + P_H P_V (e(N_H) - e(G_H)) / (1 + e(G_H)), the
    # difference taken as e(D) + tr(adj(G) D) from D = N - G =
    # P_o m^dag adj(I + n_o*) m >= 0: a form in V_H, like c(N_H) and p10
    gd[:, 1] = _leibniz(_mm, mm[:, :, 2:], m)
    # G = P_o g and D = P_o d, then 2 det G, 2 det D and tr(adj(G) D)
    scaled = _forms(p_vac[:, None, ::-1], gd, _SCALE)
    dets = _forms(scaled, scaled, _DETS)
    e_gd = (scaled[:, 0:5:4] + scaled[:, 3:8:4] + 0.5 * dets[:, :2]).real
    ee[:, 1] = e_gd[:, 0]
    qc = np.empty((jets, len(_QC), 1, size))
    q = _q(ee)
    qc[:, :4, 0] = q.reshape(jets, 4, size)
    qc[:, 4:8, 0] = _leibniz(np.multiply, ee, q).reshape(jets, 4, size)
    qc[:, 8, 0] = e_gd[:, 1, 0] + dets[:, 2, 0].real
    p = _forms(qc, qc, _ROWS)[:, :, 0]
    p[:, 3] += _leibniz(np.multiply, p[:, 4], p[:, 5])
    return p[:, :4]


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
