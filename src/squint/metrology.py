"""Fisher information of the four-outcome measurement and loss thresholds.

The per-trial Fisher information is F(phi) = sum_ij (d p_ij/d phi)^2 / p_ij,
computed from the analytic phase derivatives of the click core. Both p and dp
keep their relative accuracy next to a fringe zero, so the plain sum is exact
there; an outcome with p = 0 adds 0. ``fisher`` and the Cramer-Rao bound
``crlb`` take an array of phases and return one value per phase, and
``fisher_sweep`` returns the columns of ``fisher.csv`` by name. Per-photon
quantities divide by the mean photon number that passes through the sample,
2 sinh^2(r1) per trial under the default single-pass accounting, so they need
r1 > 0.

Closed forms for the ideal scheme and for the NOON-state baselines live here
alongside their numeric rediscovery (threshold_tm_numeric), which bisects the
full lossy pipeline against the shot-noise baseline.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .detection import _bisect, clicks
from .gaussian import InterferometerConfig

__all__ = [
    "BracketError",
    "ACCOUNTINGS",
    "SNL_PER_PHOTON",
    "fisher",
    "crlb",
    "fisher_max_ideal",
    "heisenberg_sensitivity",
    "threshold_tm",
    "threshold_tm_numeric",
    "threshold_noon",
    "noon_fisher_per_photon",
    "photons_through_sample",
    "max_fisher",
    "fisher_sweep",
]

ACCOUNTINGS = ("single-pass", "double-pass")

# shot-noise-limit Fisher information per photon through the sample, rad^-2
SNL_PER_PHOTON = 2.0
# max_fisher coarse grid over [0, pi] and refinement grid; threshold_tm_numeric bisection width
_COARSE_POINTS = 721
_REFINE_POINTS = 65
_THRESHOLD_TOL = 1e-4


class BracketError(RuntimeError):
    """A root search found no sign change over the allowed bracket."""


def fisher(cfg: InterferometerConfig, phis) -> np.ndarray:
    """Per-trial Fisher information at each phase, from analytic derivatives;
    an outcome with p = 0 adds 0."""
    p, dp = clicks(cfg, phis)
    return np.divide(dp * dp, p, out=np.zeros_like(p), where=p > 0.0).sum(axis=-1)


def crlb(cfg: InterferometerConfig, phis, trials: int) -> np.ndarray:
    """Cramer-Rao bound 1/sqrt(trials * F) at each phase; inf where F = 0."""
    if not 1 <= trials < math.inf:
        raise ValueError(f"trials must be finite and >= 1, got {trials}")
    with np.errstate(divide="ignore"):
        return 1.0 / np.sqrt(trials * fisher(cfg, phis))


def fisher_max_ideal(r: float) -> float:
    """Optimal per-trial Fisher information of the lossless scheme: 4 sinh^2(2r)."""
    if not 0 <= r < math.inf:
        raise ValueError(f"squeezing parameter must be finite and >= 0, got {r}")
    return 4.0 * math.sinh(2.0 * r) ** 2


def heisenberg_sensitivity(n_bar: float) -> float:
    """Optimal phase uncertainty per trial, 1/(2 sqrt(nbar(nbar+2)))."""
    if not 0 < n_bar < math.inf:
        raise ValueError(f"mean photon number must be finite and > 0, got {n_bar}")
    return 1.0 / (2.0 * math.sqrt(n_bar * (n_bar + 2.0)))


def threshold_tm(n_bar: float) -> float:
    """Detection efficiency above which the scheme beats the shot-noise limit."""
    if not 0 <= n_bar < math.inf:
        raise ValueError(f"mean photon number must be finite and >= 0, got {n_bar}")
    return 1.0 - math.sqrt(1.0 - 1.0 / (2.0 * (n_bar + 2.0)))


def threshold_noon(n_photons: int) -> float:
    """NOON-state efficiency threshold (1/N)^(1/N); tends to 1 as N grows."""
    if not 1 <= n_photons < math.inf:
        raise ValueError(f"photon number must be finite and >= 1, got {n_photons}")
    return (1.0 / n_photons) ** (1.0 / n_photons)


def noon_fisher_per_photon(n_photons: int, eta: float) -> float:
    """2N eta^N: ideal NOON fringe F = N^2 eta^N per state over N/2 photons."""
    if not 1 <= n_photons < math.inf:
        raise ValueError(f"photon number must be finite and >= 1, got {n_photons}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must be in [0, 1], got {eta}")
    return 2.0 * n_photons * eta**n_photons


def photons_through_sample(cfg: InterferometerConfig, accounting: str = "single-pass") -> float:
    """Mean photons crossing the sample per trial: the first-pass squeezed
    state carries 2 sinh^2(r1); double-pass accounting counts it twice."""
    if accounting not in ACCOUNTINGS:
        raise ValueError(f"accounting must be one of {ACCOUNTINGS}, got {accounting!r}")
    n_bar = 2.0 * math.sinh(cfg.r1) ** 2
    return 2.0 * n_bar if accounting == "double-pass" else n_bar


def max_fisher(cfg: InterferometerConfig, tol: float = 1e-6) -> tuple[float, float]:
    """(phi*, F*) maximizing the per-trial Fisher information on [0, pi].

    One batched coarse grid, then batched grids over one spacing either side
    of the best point, each 32 times finer, until the spacing is below
    ``tol``; returns the best point seen.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    grid = np.linspace(0.0, math.pi, _COARSE_POINTS)
    best_x, best_f, spacing = 0.0, -math.inf, grid[1]
    while True:
        vals = fisher(cfg, grid)
        i = int(np.argmax(vals))
        if vals[i] > best_f:
            best_x, best_f = float(grid[i]), float(vals[i])
        if spacing < tol:
            return best_x, best_f
        grid = np.clip(best_x + np.linspace(-spacing, spacing, _REFINE_POINTS), 0.0, math.pi)
        spacing /= (_REFINE_POINTS - 1) / 2


def threshold_tm_numeric(n_bar: float) -> float:
    """Rediscover the loss threshold by bisecting the full pipeline.

    Builds the symmetric lossless config at the squeezing giving ``n_bar``,
    then finds the arm efficiency where max_phi Fisher-per-photon crosses the
    shot-noise baseline ``SNL_PER_PHOTON``.
    """
    if not 0 < n_bar < math.inf:
        raise ValueError(f"mean photon number must be finite and > 0, got {n_bar}")
    r = math.asinh(math.sqrt(n_bar / 2.0))

    def excess(eta: float) -> float:
        cfg = InterferometerConfig(r1=r, r2=r, eta_h=eta, eta_v=eta)
        return max_fisher(cfg, tol=_THRESHOLD_TOL)[1] / n_bar - SNL_PER_PHOTON

    lo, hi = 1e-6, 1.0 - 1e-9
    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo > 0 or f_hi < 0:
        raise BracketError(
            f"no threshold bracket in (0, 1): excess({lo})={f_lo:.3g}, excess(1)={f_hi:.3g}"
        )
    return _bisect(lambda eta: excess(eta) > 0, lo, hi, _THRESHOLD_TOL)


def fisher_sweep(
    cfg: InterferometerConfig,
    phi_grid: Iterable[float],
    accounting: str = "single-pass",
) -> dict[str, np.ndarray]:
    """The columns of ``fisher.csv`` by name, in file order, over a phase grid
    in [0, pi]: phi, fisher_per_trial, mean_photons_through_sample,
    fisher_per_photon, snl_per_photon and enhancement_db (10 log10 of the
    per-photon ratio to the SNL, -inf where F = 0)."""
    phis = np.array([float(p) for p in phi_grid])
    if np.any((phis < 0.0) | (phis > math.pi + 1e-12)):
        raise ValueError("phase grid must lie within [0, pi]")
    n_through = photons_through_sample(cfg, accounting)
    if n_through == 0.0:
        raise ValueError("Fisher information per photon needs r1 > 0: at r1 = 0 no photons pass the sample")
    f_trial = fisher(cfg, phis)
    f_photon = f_trial / n_through
    # math.log10 per value: np.log10 can differ from it in the last place
    db = [10.0 * math.log10(f / SNL_PER_PHOTON) if f > 0.0 else -math.inf for f in f_photon.tolist()]
    return {
        "phi": phis,
        "fisher_per_trial": f_trial,
        "mean_photons_through_sample": np.full(phis.size, n_through),
        "fisher_per_photon": f_photon,
        "snl_per_photon": np.full(phis.size, SNL_PER_PHOTON),
        "enhancement_db": np.array(db),
    }
