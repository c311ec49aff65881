"""Reference values and output checks computed apart from squint.

Nothing here imports squint: the references are the closed forms of the
lossless scheme, the NOON baselines, the loss threshold and the Fock cutoff,
plus properties every click table must have. Each ``check_*`` function takes
parsed rows and returns a list of problems, empty when the output passes, so
the caller can tell a wrong table from one that shows a known fault.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Tolerances. Central differences with step 1e-4 leave a relative error of
# about 1e-7 in the Fisher information, and the CSV tables keep 12
# significant digits.
FISHER_RTOL = 1e-6
FISHER_ATOL = 1e-9
# max_fisher keeps the best value it saw; near the fringe zero p11 is a
# difference of numbers near 1, so its roundoff biases that maximum up by a
# few 1e-7 relative.
FISHER_MAX_RTOL = 1e-5
PROB_ATOL = 1e-9
THRESHOLD_ATOL = 1e-3  # the bisection tolerance plus max_fisher's, as in the acceptance suite
VISIBILITY_ATOL = 1e-4
FIG3_VISIBILITY = 0.966


def read_table(path) -> np.ndarray:
    """Rows of a CSV table as floats, header skipped; 'inf' and 'nan' parse as floats."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        width = len(next(reader))
        rows = [[float(x) for x in row] for row in reader]
    return np.array(rows, dtype=float).reshape(len(rows), width)


# ---------------------------------------------------------------- references


def ideal_p00(r: float, phi) -> np.ndarray:
    """Lossless p00 = 1/|cosh^2 r + e^{2i phi} sinh^2 r|^2; p01 = p10 = 0."""
    c2, s2 = math.cosh(r) ** 2, math.sinh(r) ** 2
    return 1.0 / np.abs(c2 + np.exp(2j * np.asarray(phi)) * s2) ** 2


def ideal_fisher(r: float, phi) -> np.ndarray:
    """Lossless F = p00'^2/(p00(1 - p00)) = 16 c^2 s^2 sin^2(phi) / D^2.

    D = |cosh^2 r + e^{2i phi} sinh^2 r|^2; the form has no 0/0 at the fringe
    zero phi = pi/2, where it equals 4 sinh^2(2r).
    """
    c2, s2 = math.cosh(r) ** 2, math.sinh(r) ** 2
    phi = np.asarray(phi, dtype=float)
    d = c2 * c2 + s2 * s2 + 2.0 * c2 * s2 * np.cos(2.0 * phi)
    return 16.0 * c2 * s2 * np.sin(phi) ** 2 / d**2


def fisher_max(r: float) -> float:
    """Lossless maximum 4 sinh^2(2r), reached at phi = pi/2."""
    return 4.0 * math.sinh(2.0 * r) ** 2


def photons_through_sample(r: float) -> float:
    return 2.0 * math.sinh(r) ** 2


def threshold_closed(n_bar: float) -> float:
    return 1.0 - math.sqrt(1.0 - 1.0 / (2.0 * (n_bar + 2.0)))


def fock_cutoff(r_total: float, budget: float) -> int:
    """Smallest n_max with tanh(r_total)^(2(n_max + 1)) <= budget."""
    t = math.tanh(r_total)
    return max(1, math.ceil(math.log(budget) / (2.0 * math.log(t)) - 1.0 - 1e-12))


def fisher_from_curves(phi_tab: np.ndarray, curves: np.ndarray) -> np.ndarray:
    """Four-outcome Fisher information of tabulated curves by finite differences."""
    dp = np.gradient(curves, phi_tab, axis=0, edge_order=2)
    return np.sum(dp * dp / np.maximum(curves, 1e-300), axis=1)


def at_fringe_zero(phi) -> np.ndarray:
    return np.abs(np.asarray(phi) - math.pi / 2.0) < 1e-9


# ---------------------------------------------------------------- figures


def check_sweep(rows: np.ndarray, visibility: float = FIG3_VISIBILITY) -> list[str]:
    """Rows (phi, p00, p01, p10, p11) on a grid symmetric about pi/2."""
    problems = []
    phi, p = rows[:, 0], rows[:, 1:5]
    if np.any(p < 0.0) or np.any(p > 1.0):
        problems.append("a probability lies outside [0, 1]")
    worst = float(np.abs(p.sum(axis=1) - 1.0).max())
    if worst > PROB_ATOL:
        problems.append(f"rows sum to 1 only within {worst:.2e}")
    if not np.allclose(phi + phi[::-1], math.pi, atol=1e-9):
        problems.append("phase grid is not symmetric about pi/2")
    else:
        mirror = float(np.abs(p - p[::-1]).max())
        if mirror > PROB_ATOL:
            problems.append(f"p(phi) != p(pi - phi) by {mirror:.2e}")
    p11 = p[:, 3]
    vis = (p11.max() - p11.min()) / (p11.max() + p11.min())
    if abs(vis - visibility) > VISIBILITY_ATOL:
        problems.append(f"p11 visibility {vis:.6f}, expected {visibility}")
    return problems


def fisher_row_problems(rows: np.ndarray, r: float) -> tuple[list[str], np.ndarray]:
    """Compare a lossless fisher.csv table with the closed form, row by row.

    Returns the problems and a boolean mask of the rows that disagree, so a
    caller can tell a fault confined to the fringe zero from a wrong table.
    """
    phi, f = rows[:, 0], rows[:, 1]
    ref = ideal_fisher(r, phi)
    bad = np.abs(f - ref) > FISHER_RTOL * ref + FISHER_ATOL
    problems = [
        f"phi={phi[i]:.6f}: F={f[i]:.9g}, closed form {ref[i]:.9g}" for i in np.flatnonzero(bad)
    ]
    n = photons_through_sample(r)
    if not np.allclose(rows[:, 2], n, rtol=1e-10):
        problems.append("mean_photons_through_sample differs from 2 sinh^2 r")
    if not np.allclose(rows[:, 3], f / n, rtol=1e-10, atol=1e-300):
        problems.append("fisher_per_photon differs from fisher_per_trial / photons")
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(rows[:, 3] / rows[:, 4])
    if not np.allclose(rows[:, 5], db, rtol=1e-9, atol=1e-9, equal_nan=False):
        problems.append("enhancement_db differs from 10 log10(F per photon / SNL)")
    return problems, bad


def check_fisher_bound(rows: np.ndarray, r: float) -> list[str]:
    """A lossy table: 0 <= F <= 4 sinh^2(2r), and F(phi) = F(pi - phi)."""
    problems = []
    f = rows[:, 1]
    bound = fisher_max(r)
    if np.any(f < 0.0):
        problems.append("negative Fisher information")
    if np.any(f > bound * (1.0 + FISHER_MAX_RTOL)):
        problems.append(f"Fisher {f.max():.9g} exceeds the lossless bound {bound:.9g}")
    if np.allclose(rows[:, 0] + rows[::-1, 0], math.pi, atol=1e-9):
        if not np.allclose(f, f[::-1], rtol=FISHER_RTOL, atol=FISHER_ATOL):
            problems.append("F(phi) != F(pi - phi)")
    return problems


def check_fig3c(rows: np.ndarray, noon_n: int = 5) -> list[str]:
    """Rows (r, photons, max F per trial, max F per photon) of the lossless scheme."""
    problems = []
    r = rows[:, 0]
    ref = np.array([fisher_max(x) for x in r])
    bad = np.abs(rows[:, 2] - ref) > FISHER_MAX_RTOL * ref
    problems += [f"r={r[i]}: max F {rows[i, 2]:.9g}, 4 sinh^2(2r) = {ref[i]:.9g}" for i in np.flatnonzero(bad)]
    n = np.array([photons_through_sample(x) for x in r])
    if not np.allclose(rows[:, 1], n, rtol=1e-10):
        problems.append("photons column differs from 2 sinh^2 r")
    if not np.allclose(rows[:, 3], rows[:, 2] / n, rtol=1e-10):
        problems.append("per-photon column differs from per-trial / photons")
    if not rows[-1, 3] > 2.0 * noon_n:
        problems.append(f"largest-r per-photon maximum {rows[-1, 3]:.4f} does not beat {noon_n}-NOON")
    return problems


def check_thresholds(tm_rows: np.ndarray, noon_rows: np.ndarray) -> list[str]:
    """Rows (n_bar, closed, numeric) and (N, (1/N)^(1/N), 2N)."""
    problems = []
    for n_bar, closed, numeric in tm_rows:
        ref = threshold_closed(n_bar)
        if abs(closed - ref) > 1e-10:
            problems.append(f"n_bar={n_bar}: closed-form column {closed} != {ref}")
        if not abs(numeric - ref) < THRESHOLD_ATOL:
            problems.append(f"n_bar={n_bar}: numeric threshold {numeric} vs {ref:.6f}")
    for n, eta, fpp in noon_rows:
        if abs(eta - (1.0 / n) ** (1.0 / n)) > 1e-10 or abs(fpp - 2.0 * n) > 1e-10:
            problems.append(f"NOON row N={int(n)} is wrong")
    return problems


# ---------------------------------------------------------------- oracle


def check_validate(rows: np.ndarray, cases, budget: float, tol: float) -> list[str]:
    """Rows (r, eta, n_max, max |delta p|): one per case, within tolerance."""
    problems = []
    got = [(float(r), float(eta)) for r, eta, _, _ in rows]
    if got != [tuple(map(float, c)) for c in cases]:
        return [f"validate cases {got}, expected {list(cases)}"]
    for r, eta, n_max, dev in rows:
        want = fock_cutoff(2.0 * r, budget)
        if int(n_max) != want:
            problems.append(f"r={r}: cutoff {int(n_max)}, expected {want}")
        if not dev <= tol:
            problems.append(f"r={r} eta={eta}: max |delta p| {dev:.3e} > {tol:.1e}")
    return problems


# ---------------------------------------------------------------- tracking

# The tolerances of the calibration round trip in the estimation tests. The
# click statistics are swap-symmetric in (r1, r2), so only their mean is
# pinned tightly.
CALIBRATION_TOLERANCES = {
    "r_mean": 0.01,
    "r1": 0.05,
    "r2": 0.05,
    "eta_h": 0.02,
    "eta_v": 0.02,
    "overlap": 0.005,
    "phase_offset": 0.01,
}


def check_calibration(fit: dict, truth: dict, degraded: bool) -> list[str]:
    problems = ["calibration is degraded"] if degraded else []
    values = dict(fit, r_mean=0.5 * (fit["r1"] + fit["r2"]))
    target = dict(truth, r_mean=0.5 * (truth["r1"] + truth["r2"]))
    for name, tol in CALIBRATION_TOLERANCES.items():
        if not abs(values[name] - target[name]) <= tol:
            problems.append(f"fitted {name} {values[name]:.6f} vs true {target[name]:.6f} (tol {tol})")
    return problems


def check_tracking(phi_set: np.ndarray, phi_est: np.ndarray, crlb_ref: dict, ratio_band=(0.75, 1.3)) -> list[str]:
    """Per set phase: mean within 3 std of the set point, std/CRLB within the band.

    ``crlb_ref`` maps each set phase to the bound computed from the
    calibration curves with ``fisher_from_curves``.
    """
    problems = []
    if not np.all(np.isfinite(phi_est)):
        problems.append(f"{int(np.sum(~np.isfinite(phi_est)))} windows have no estimate")
        return problems
    for p in np.unique(phi_set):
        ests = phi_est[phi_set == p]
        mean, std = float(ests.mean()), float(ests.std(ddof=1))
        if not abs(mean - p) < 3.0 * std:
            problems.append(f"phase {p}: mean {mean:.6f} is not within 3 std ({std:.2e})")
        ratio = std / crlb_ref[float(p)]
        if not ratio_band[0] <= ratio <= ratio_band[1]:
            problems.append(f"phase {p}: std/CRLB = {ratio:.3f} outside {ratio_band}")
    return problems


def check_bootstrap(sigmas, phase_std: dict, rtol: float = 0.35) -> list[str]:
    """Bootstrap sigma of single windows, as (set phase, sigma) pairs, against the
    across-repeat std of their phase."""
    return [
        f"window at phase {p}: bootstrap {s:.3e} vs across-repeat std {phase_std[p]:.3e}"
        for p, s in sigmas
        if not abs(s - phase_std[p]) <= rtol * phase_std[p]
    ]
