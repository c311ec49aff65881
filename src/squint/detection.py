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
carried as jets. The complex steps are five batches of sums of products
(matrix, cross and outer products, tr(adj(X) Y)), each one gather, one
multiply and one add per term; the first three write into one workspace per
chunk, laid out so that each batch's output sits where the next batch reads
it. The real steps are jet products x y on one table of the P_X, c(X) and
the gain, from which one gather gives both factors of every outcome row.
"""

from __future__ import annotations

import math
import reprlib
from functools import lru_cache

import numpy as np

from .gaussian import InterferometerConfig, InvalidStateError, _is_number, _number, bogoliubov_factors

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
# Phases per batch: bounds the scratch memory of long phase arrays, about
# 0.6 MB traced a chunk.
_CHUNK = 128
# the outcome rows p00 = q(N_H) q(G_V), p01 = q(N_H) c(G_V), p10 = q(N_V) c(G_H),
# c(N_H) c(N_V), q(N_V) q(G_H) and q(N_H) gain, as entries of the table
# (q(N_H), q(N_V), q(G_H), q(G_V), c(N_H), c(N_V), c(G_H), c(G_V), gain): the
# six left factors, then the six right ones; _FACTORS are their rows in the
# table's jets (jet, entry), values first
_ROWS = np.array([[0, 3], [0, 7], [1, 6], [4, 5], [1, 2], [0, 8]]).T.ravel()
_FACTORS = np.concatenate([_ROWS, 9 + _ROWS])
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
    deviation = np.abs(total - 1.0)
    if not deviation[deviation.argmax()] <= _SUM_TOL:  # a NaN is the first maximum
        raise InvalidStateError(f"outcome probabilities sum to {total.min()}..{total.max()}, not 1")
    return p


# A jet holds one quantity and its phase derivative on the leading axis. The
# phase is the last axis and the arm (H, V) the one before it; small matrices,
# vectors or scalars sit between. Each product below is a jet: the value
# x0 y0, then the derivative x0 y1 + x1 y0 by the product rule.


def _mul(x, y, out):
    """Jet of the product x y, written to ``out``, one call per jet entry so
    that each acts on contiguous rows."""
    np.multiply(x[0], y[0], out[0])
    np.multiply(x[0], y[1], out[1])
    np.add(out[1], x[1] * y[0], out[1])
    return out


def _q(e, out):
    """Jet of 1/(1 + e), written to ``out``."""
    q = np.divide(1.0, 1.0 + e[0], out[0])
    np.multiply(-e[1] * q, q, out[1])
    return out


# A batch of jet sums of products sum_t x_t y_t: the value sums x_t^0 y_t^0
# and the derivative is the sum of x_t^0 y_t^1 plus that of x_t^1 y_t^0, each
# summed in term order (_PAIRS lists these jet entries (i, j) of x^i y^j).
# _rows lays a batch out once as integer rows of one source array (rows, N);
# _products then takes both operands as contiguous arrays, multiplies them
# once, adds or subtracts each later term's rows in place and gathers the
# first block pair by pair.
_PAIRS = np.array([[0, 0, 1], [0, 1, 0]])


def _ix(*shape, start=0):
    """Source rows start, start + 1, ... in the given shape."""
    return start + np.arange(math.prod(shape)).reshape(shape)


def _rows(*groups):
    """Lay out a batch for _products. Each group is (signs, terms): ``terms``
    lists (x, y), the source rows of x_t and y_t, jet first and then the
    group's items (they broadcast); ``signs`` is '+' or '-' for each term
    after the first. Groups come in order of falling term count, so the items
    of term t are the first ones of the batch. Returns the left rows, then the
    right ones, each term a block (item, pair), and the count of left rows;
    the runs (out rows, term rows, add or subtract) of the later terms; the
    first block's rows by pair, and its item count."""
    left, right, runs, start = [], [], [], 0
    for t in range(len(groups[0][1])):
        row = start
        for signs, terms in (group for group in groups if len(group[1]) > t):
            x, y = np.broadcast_arrays(*terms[t])
            left.append(x[_PAIRS[0]].reshape(3, -1).T.ravel())
            right.append(y[_PAIRS[1]].reshape(3, -1).T.ravel())
            op, size = np.subtract if signs[t - 1:t] == "-" else np.add, left[-1].size
            if t:  # into the first term's rows of the same items, one run per op
                dest = slice(row - start, row - start + size)
                if runs and runs[-1][2] is op and runs[-1][0].stop == dest.start:
                    dest = slice(runs.pop()[0].start, dest.stop)
                runs.append((dest, slice(dest.start + start, dest.stop + start), op))
            row += size
        if not t:
            items = row // 3
        start = row
    return np.concatenate(left + right), start, runs, _ix(items, 3).T.ravel(), items


def _products(src, rows):
    """The jets of the batch that _rows laid out, over the rows of ``src``
    (rows, N), as rows (jet, item)."""
    operands, half, runs, by_pair, items = rows
    # both operands in one block, the largest allocation of a chunk: glibc then
    # raises its mmap and trim thresholds above the chunk's peak, so a long
    # batch reuses its heap pages instead of faulting fresh ones
    pair = src.take(operands, axis=0)
    prod = np.multiply(pair[:half], pair[half:], pair[:half])
    for dest, term, op in runs:
        block = prod[dest]
        op(block, prod[term], block)
    out = prod.take(by_pair, axis=0)  # a copy, which frees the later terms
    derivative = out[items:2 * items]
    np.add(derivative, out[2 * items:], derivative)
    return out[:2 * items]


def _matmul(x, y):
    """Terms of the matrix product X Y, items (k, l), from the rows (jet, k, m) of X and (jet, m, l) of Y."""
    return [(x[:, :, m, None], y[:, None, m]) for m in range(x.shape[2])]


def _tr_adj(x, y):
    """Terms of tr(adj(X) Y) = X11 Y00 + X00 Y11 - X01 Y10 - X10 Y01 (signs '+--')
    from the rows (jet, row, column, items...) of X and Y; 2 det X at Y = X."""
    return [(x[:, 1, 1], y[:, 0, 0]), (x[:, 0, 0], y[:, 1, 1]), (x[:, 0, 1], y[:, 1, 0]), (x[:, 1, 0], y[:, 0, 1])]


# The first three batches share one workspace (82, N) per chunk, each reading
# a view of it: stage 1 reads rows 46:82, V*, U and V; it writes s1 to 26:48,
# then s1* follows at 48:70, so stage 2 reads 26:82 (s1, s1*, V); it writes s2
# to 0:22, then z* and tr N0 follow at 22:26 and 48:50, so stage 3 reads 0:50;
# it writes s3 to 48:72. Each step overwrites only rows that no later step
# reads. The arm weights then read N0, B and s3 there.
_WORKSPACE = 82
# Stage 1, from t (block V*|U|V, jet, row, column): N0 = V* V^T and M0 = U V^T
# (items (k, l), k over the rows of V* and then of U), and w = u_0 x u_1 of U's
# rows, (u_0 x u_1)_c = u_0,c+1 u_1,c+2 - u_0,c+2 u_1,c+1
_T = _ix(3, 2, 2, 3).swapaxes(0, 1)
_U, _C = _T[:, 1], np.arange(3)
_STAGE1 = _rows(("++", _matmul(_T[:, :2].reshape(2, 4, 3), _T[:, 2].swapaxes(1, 2))),
                ("-", [(_U[:, 0, (_C + 1) % 3], _U[:, 1, (_C + 2) % 3]), (_U[:, 0, (_C + 2) % 3], _U[:, 1, (_C + 1) % 3])]))
# Stage 2, from (stage 1, its conjugate, V): tr(adj(N0) N0) = 2 det N0,
# z = V w*, B = M0^dag M0 and M0^dag adj(N0*), adj(N0*) = [[n11*, -n01*],
# [-n10*, n00*]], column l as M0^dag_{k,l} N0*_{l'l'} - M0^dag_{k,l'} N0*_{l'l}
# with l' = 1 - l: a product with a negated factor is the negated product,
# and a + (-b) is a - b, so these are the bits of the matrix product
_S1, _S1C = _ix(2, 11), _ix(2, 11, start=22)
_N, _NC, _MCT = _S1[:, :4].reshape(2, 2, 2), _S1C[:, :4].reshape(2, 2, 2), _S1C[:, 4:8].reshape(2, 2, 2).swapaxes(1, 2)
_STAGE2 = _rows(("+--", _tr_adj(_N[..., None], _N[..., None])),
                ("++", _matmul(_ix(2, 2, 3, start=44), _S1C[:, 8:, None])),
                ("+", _matmul(_MCT, _S1[:, 4:8].reshape(2, 2, 2))),
                ("-", [(_MCT, _NC[:, None, [1, 0], [1, 0]]), (_MCT[:, :, ::-1], _NC[:, None, [1, 0], [0, 1]])]))
# Stage 3, from (stage 2, z*, stage 1, tr N0): (M0^dag adj(N0*)) M0, z* z^T and tr(N0) N0
_S2, _S1B = _ix(2, 11), _ix(2, 11, start=26)
_STAGE3 = _rows(("+", _matmul(_S2[:, 7:].reshape(2, 2, 2), _S1B[:, 4:8].reshape(2, 2, 2))),
                ("", _matmul(_ix(2, 2, 1, start=22), _S2[:, None, 1:3])),
                ("", [(_ix(2, 1, 1, start=48), _S1B[:, :4].reshape(2, 2, 2))]))
# the operands of the arm weights, rows (block, arm, jet, entry) of the
# workspace: N0, tr(N0) N0 - B and z* z^T for g, B and (M0^dag adj(N0*)) M0
# for d, each (jet, entry) from s1, s3 or s2
_S3 = _ix(2, 12, start=48)
_WEIGHED = np.stack([np.broadcast_to(x, (2, 2, 4)) for x in (_S1B[:, :4], _S3[:, 8:], _S3[:, 4:8], _S2[:, 3:7],
                                                               _S3[:, :4])]).ravel()
# Stage 5, from (G and D (block, arm, jet, entry), P_vac (jet, arm)): P_o G and
# P_o D, items (entry, block, arm), so that each diagonal entry of the four
# blocks is one run of rows
_STAGE5 = _rows(("", [(_ix(2, 2, start=32)[:, None, None, ::-1], _ix(2, 2, 2, 4).transpose(2, 3, 0, 1))]))
# Stage 6, from stage 5 (jet, row, column, block G|D, arm): tr(adj(X) Y) for
# (X, Y) = (G, G) and (D, D) on each arm, and (G_H, D_H)
_S5 = _ix(2, 2, 2, 2, 2).transpose(0, 3, 4, 1, 2)
_STAGE6 = _rows(("+--", _tr_adj(np.moveaxis(_S5[:, [0, 0, 1, 1, 0], [0, 1, 0, 1, 0]], 1, -1),
                                np.moveaxis(_S5[:, [0, 0, 1, 1, 1], [0, 1, 0, 1, 0]], 1, -1))))


@lru_cache(maxsize=64)
def _jet_factors(cfg: InterferometerConfig) -> tuple[np.ndarray, ...]:
    """Coefficients (36, 1) of e^{it} and of e^{-it} in the rows of t, the jets
    of V*, U and V of one arm before its loss (see _moments); the weights (2, 1)
    of tr N0 and det N0 in e(N); and the arm weights (80, 1) of the weighed
    rows, as complex numbers."""
    (x_u, x_v), (y_u, y_v) = bogoliubov_factors(cfg)
    zero = np.zeros_like(x_v)
    # every moment is unchanged by U -> e^{is} U, V -> e^{-is} V, so the
    # derivative may drop that part: U' - iU = -2i U_-, V' + iV = 2i V_+,
    # which are exactly 0 when the phase cannot act (r1 = 0)
    at_w = np.array([[y_v.conj(), zero], [x_u, zero], [x_v, 2j * x_v]]).reshape(36, 1)
    at_wc = np.array([[x_v.conj(), (2j * x_v).conj()], [y_u, -2j * y_u], [y_v, zero]]).reshape(36, 1)
    eta, eta_o = np.array([[cfg.eta_h, cfg.eta_v], [cfg.eta_v, cfg.eta_h]])[..., None]
    lam = 1.0 - eta_o
    g_n, g_b, g_z, d_b = eta * lam * (1 + eta_o), eta * lam * eta_o, eta * eta_o * eta_o, eta * eta_o
    arms = np.broadcast_to(np.array([g_n, g_b, g_z, d_b, g_z])[..., None], (5, 2, 2, 4)).reshape(80, 1)
    factors = at_w, at_wc, eta, eta * eta, arms.astype(complex)
    for array in factors:
        array.setflags(write=False)
    return factors


def _phases(phis) -> np.ndarray:
    """Any array-like of phases as a flat float array; refuses a non-finite
    one, and anything but numbers: an array by its dtype (integer or float),
    any other input entry by entry (``gaussian._is_number``), so a bool or a
    string is never a phase."""
    if isinstance(phis, np.ndarray):
        numbers = phis.dtype.kind in "iuf"
    else:
        numbers = all(map(_is_number, np.asarray(phis, dtype=object).reshape(-1)))
    if not numbers:
        raise ValueError(f"phases must be numbers, got {reprlib.repr(phis)}")
    phis = np.asarray(phis, dtype=float).reshape(-1)
    lo, hi = _extremes(phis)  # a NaN fails both tests
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError("phases must be finite")
    return phis


def clicks(cfg: InterferometerConfig, phis) -> tuple[np.ndarray, np.ndarray]:
    """Click probabilities p (N, 4) of a config over an array of phases and
    their derivatives dp/dphi (N, 4), in chunks of _CHUNK phases."""
    phis = _phases(phis)
    if not phis.size:
        return np.zeros((0, 4)), np.zeros((0, 4))
    # joined after the last chunk, so that the joined array can reuse the
    # memory of the chunks' scratch; one chunk needs no join
    parts = [_clicks(cfg, phis[k: k + _CHUNK]) for k in range(0, phis.size, _CHUNK)]
    p = np.concatenate(parts, axis=-1) if len(parts) > 1 else parts[0]
    return _checked(p[0].T), p[1].T


# _moments, _arm_moments and _clicks are separate functions so that each one's
# arrays are freed before the next one's batches run, which keeps a chunk's
# peak memory low.
def _moments(t, at_w, at_wc, e_tr, e_det):
    """At the phases t = phi + phase_offset: the workspace (see _WORKSPACE),
    and the jets (jet, N|G, arm, phase) of e(N) and, still to fill, e(G)."""
    w = np.exp(1j * t)
    ws = np.empty((_WORKSPACE, t.size), dtype=complex)
    # V*, U and V of one arm before its loss, rows (block, jet, row, column);
    # the arm axis comes in with the arm weights
    src = np.multiply(at_w, w, ws[46:])
    np.add(src, at_wc * w.conj(), src)
    ws[26:48] = _products(src, _STAGE1)
    np.conjugate(ws[26:48], ws[48:70])
    ws[:22] = _products(ws[26:], _STAGE2)
    s1, s2 = ws[26:48].reshape(2, 11, -1), ws[:22].reshape(2, 11, -1)
    np.conjugate(s2[:, 1:3], ws[22:26].reshape(2, 2, -1))  # z*
    tr = np.add(s1[:, 0], s1[:, 3], ws[48:50])
    tr.imag = 0.0  # tr N0 is real: its roundoff imaginary part is dropped
    ee = np.empty((2, 2, 2, t.size))  # e(N), e(G); e(N) = eta tr N0 + eta^2 det N0
    np.add(e_tr * tr.real[:, None], e_det * (0.5 * s2[:, :1].real), ee[:, 0])
    # G = N - m^dag (I + N_o*)^-1 m are the moments of arm X given vacuum on
    # the other arm o, with N = eta N0 and m = U_o V^T = sqrt(eta eta_o) M0. The
    # commutators give U_o U_o^dag = eta_o I + N_o*, so with lam = 1 - eta_o,
    # G = lam V* (lam I + U_o^dag U_o)^-1 V^T. U^dag U is 3x3 of rank 2 with
    # adjugate w w^dag, w = u_0 x u_1 its rows' cross product, so G = P_o g,
    #   g = eta [(1 - eta_o^2) N0 + lam eta_o (tr N0 N0 - B) + eta_o^2 z* z^T]
    # with B = M0^dag M0 and z = V w*. At lam = 0 only the Gram form is left,
    # exactly 0 where G vanishes identically (the subtraction leaves roundoff).
    # p11 = c(N_H) c(N_V) + P_H P_V (e(N_H) - e(G_H)) / (1 + e(G_H)), the
    # difference taken as e(D) + tr(adj(G) D) from D = N - G = P_o d >= 0,
    # d = m^dag adj(I + N_o*) m = eta eta_o (B + eta_o M0^dag adj(N0*) M0)
    # (adj(I + A) = I + adj A for 2x2 A): a form in V_H, like c(N_H) and p10
    ws[48:72] = _products(ws[:50], _STAGE3)
    s3 = ws[48:72].reshape(2, 12, -1)
    np.subtract(s3[:, 8:], s2[:, 3:7], s3[:, 8:])  # tr(N0) N0 - B
    return ws, ee


def _arm_moments(cfg, phis, table):
    """The rows (G, D, P_vac) of the arm moments' jets, G = P_o g and D = P_o d
    over (block, arm, jet, entry) and P_vac over (jet, arm), and e (see
    _moments); P_vac = q(N) also goes to its rows of ``table`` (see _clicks)."""
    at_w, at_wc, e_tr, e_det, arms = _jet_factors(cfg)
    ws, ee = _moments(phis + cfg.phase_offset, at_w, at_wc, e_tr, e_det)
    terms = ws.take(_WEIGHED, axis=0)
    terms = np.multiply(arms, terms, terms).reshape(5, 16, -1)  # g's three, then d's two
    gdp = np.empty((36, phis.size), dtype=complex)
    g = np.add(terms[0], terms[1], gdp[:16])
    np.add(g, terms[2], g)
    np.add(terms[3], terms[4], gdp[16:32])
    gdp[32:].reshape(2, 2, -1)[...] = _q(ee[:, 0], table[:, :2])
    return gdp, ee


def _clicks(cfg, phis):
    """(p, dp/dphi) of a chunk of phases as a jet of shape (2, 4, N)."""
    table = np.empty((2, 9, phis.size))  # the jets of the entries of _ROWS
    gdp, ee = _arm_moments(cfg, phis, table)
    # G = P_o g and D = P_o d, then tr(adj(X) Y) for X, Y in {G, D}: 2 det G,
    # 2 det D and tr(adj(G_H) D_H)
    scaled = _products(gdp, _STAGE5)
    dets = _products(scaled, _STAGE6).reshape(2, 5, -1)
    diagonal = scaled.reshape(2, 4, 4, -1)  # (jet, entry, block and arm)
    e_gd = (diagonal[:, 0] + diagonal[:, 3] + 0.5 * dets[:, :4]).real  # e(G_H), e(G_V), e(D_H), e(D_V)
    ee[:, 1] = e_gd[:, :2]
    _q(ee[:, 1], table[:, 2:4])
    _mul(ee.reshape(2, 4, -1), table[:, :4], table[:, 4:8])  # c = e q for N and G on both arms
    np.add(e_gd[:, 2], dets[:, 4].real, table[:, 8])  # e(N_H) - e(G_H) = e(D_H) + tr(adj(G_H) D_H)
    left, right = table.reshape(18, -1).take(_FACTORS, axis=0).reshape(2, 2, 6, -1).swapaxes(0, 1)
    p = _mul(left, right, np.empty((2, 6, phis.size)))
    np.add(p[:, 3], _mul(p[:, 4], p[:, 5], np.empty((2, phis.size))), p[:, 3])
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
