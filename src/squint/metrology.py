"""Fisher information of the four-outcome measurement and loss thresholds.

The per-trial Fisher information is F(phi) = sum_ij (d p_ij/d phi)^2 / p_ij,
computed from the analytic phase derivatives of the batched click core. Where
an outcome's probability vanishes (a fringe zero) its term takes the limit
2 d^2p_ij/dphi^2, so F stays exact there. Per-photon quantities divide by
the mean photon number that passes through the sample, 2 sinh^2(r1) per trial
under the default single-pass accounting.

Closed forms for the ideal scheme and for the NOON-state baselines live here
alongside their numeric rediscovery (threshold_tm_numeric), which bisects the
full lossy pipeline against the shot-noise baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .detection import clicks
from .gaussian import InterferometerConfig, PhaseFactors, interferometer_factors

__all__ = [
    "FisherReport",
    "NoonBaseline",
    "BracketError",
    "ACCOUNTINGS",
    "fisher_per_trial",
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

# Outcomes at or below this probability contribute their limit 2 p'' instead
# of (dp)^2 / p: near a zero p ~ p'' dphi^2 / 2 and dp ~ p'' dphi.
_P_GUARD = 1e-12
# max_fisher coarse grid over [0, pi]; threshold_tm_numeric bisection width
_COARSE_POINTS = 721
_THRESHOLD_TOL = 1e-4


class BracketError(RuntimeError):
    """A root search found no sign change over the allowed bracket."""


@dataclass(frozen=True)
class FisherReport:
    """Per-phase Fisher information with the per-photon normalization."""

    phi: float
    fisher_per_trial: float
    mean_photons_through_sample: float
    fisher_per_photon: float
    snl_per_photon: float
    enhancement_db: float


@dataclass(frozen=True)
class NoonBaseline:
    """Ideal N-photon NOON-state benchmark under the N/2 photon accounting."""

    n_photons: int
    eta: float
    fisher_per_photon: float
    threshold: float

    @classmethod
    def build(cls, n_photons: int, eta: float) -> "NoonBaseline":
        return cls(
            n_photons=n_photons,
            eta=eta,
            fisher_per_photon=noon_fisher_per_photon(n_photons, eta),
            threshold=threshold_noon(n_photons),
        )


def _fisher(factors: PhaseFactors, phis) -> np.ndarray:
    """Per-trial Fisher information at each phase, from analytic derivatives."""
    p, dp, d2p = clicks(factors, phis, order=2)
    terms = np.where(p > _P_GUARD, dp * dp / np.maximum(p, _P_GUARD), 2.0 * d2p)
    return np.maximum(terms.sum(axis=-1), 0.0)


def fisher_per_trial(cfg: InterferometerConfig, phi: float) -> float:
    """Four-outcome Fisher information per trial at probe phase ``phi``."""
    return float(_fisher(interferometer_factors(cfg), [phi])[0])


def fisher_max_ideal(r: float) -> float:
    """Optimal per-trial Fisher information of the lossless scheme: 4 sinh^2(2r)."""
    if r < 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    return 4.0 * math.sinh(2.0 * r) ** 2


def heisenberg_sensitivity(n_bar: float) -> float:
    """Optimal phase uncertainty per trial, 1/(2 sqrt(nbar(nbar+2)))."""
    if n_bar <= 0:
        raise ValueError(f"mean photon number must be > 0, got {n_bar}")
    return 1.0 / (2.0 * math.sqrt(n_bar * (n_bar + 2.0)))


def threshold_tm(n_bar: float) -> float:
    """Detection efficiency above which the scheme beats the shot-noise limit."""
    if n_bar < 0:
        raise ValueError(f"mean photon number must be >= 0, got {n_bar}")
    return 1.0 - math.sqrt(1.0 - 1.0 / (2.0 * (n_bar + 2.0)))


def threshold_noon(n_photons: int) -> float:
    """NOON-state efficiency threshold (1/N)^(1/N); tends to 1 as N grows."""
    if n_photons < 1:
        raise ValueError(f"photon number must be >= 1, got {n_photons}")
    return (1.0 / n_photons) ** (1.0 / n_photons)


def noon_fisher_per_photon(n_photons: int, eta: float) -> float:
    """2N eta^N: ideal NOON fringe F = N^2 eta^N per state over N/2 photons."""
    if n_photons < 1:
        raise ValueError(f"photon number must be >= 1, got {n_photons}")
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


def _golden_min(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> tuple[float, float]:
    """(x, f(x)) of the smallest value golden-section search sees on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    while b - a > tol:
        if fc > fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        if fc < best_f:
            best_x, best_f = c, fc
        if fd < best_f:
            best_x, best_f = d, fd
    return best_x, best_f


def max_fisher(cfg: InterferometerConfig, tol: float = 1e-6) -> tuple[float, float]:
    """(phi*, F*) maximizing the per-trial Fisher information on [0, pi].

    One batched coarse grid, then golden-section refinement on the same
    pipeline factors to width ``tol``; returns the best point seen.
    """
    factors = interferometer_factors(cfg)
    grid = np.linspace(0.0, math.pi, _COARSE_POINTS)
    vals = _fisher(factors, grid)
    i = int(np.argmax(vals))
    a = grid[max(0, i - 1)]
    b = grid[min(_COARSE_POINTS - 1, i + 1)]
    x, neg_fx = _golden_min(lambda p: -float(_fisher(factors, [p])[0]), a, b, tol)
    if vals[i] >= -neg_fx:
        return float(grid[i]), float(vals[i])
    return float(x), -neg_fx


def threshold_tm_numeric(cfg: InterferometerConfig, n_bar: float) -> float:
    """Rediscover the loss threshold by bisecting the full pipeline.

    Builds the symmetric lossless config at the squeezing giving ``n_bar``,
    then finds the arm efficiency where max_phi Fisher-per-photon crosses the
    shot-noise baseline carried by ``cfg``.
    """
    if n_bar < 0:
        raise ValueError(f"mean photon number must be >= 0, got {n_bar}")
    snl = cfg.snl_per_photon
    if snl <= 0.0:
        return 0.0
    r = math.asinh(math.sqrt(n_bar / 2.0))
    base = cfg.with_updates(r1=r, r2=r, eta_internal=1.0, overlap=1.0)

    def excess(eta: float) -> float:
        _, fmax = max_fisher(base.with_updates(eta_h=eta, eta_v=eta), tol=_THRESHOLD_TOL)
        return fmax / n_bar - snl

    lo, hi = 1e-6, 1.0 - 1e-9
    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo > 0 or f_hi < 0:
        raise BracketError(
            f"no threshold bracket in (0, 1): excess({lo})={f_lo:.3g}, excess(1)={f_hi:.3g}"
        )
    while hi - lo > _THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def fisher_sweep(
    cfg: InterferometerConfig,
    phi_grid: Iterable[float],
    accounting: str = "single-pass",
) -> list[FisherReport]:
    """Per-phase Fisher reports over a grid in [0, pi]."""
    phis = [float(p) for p in phi_grid]
    if any(p < 0.0 or p > math.pi + 1e-12 for p in phis):
        raise ValueError("phase grid must lie within [0, pi]")
    n_through = photons_through_sample(cfg, accounting)
    reports = []
    for p, f_trial in zip(phis, _fisher(interferometer_factors(cfg), phis).tolist()):
        f_photon = f_trial / n_through
        db = 10.0 * math.log10(f_photon / cfg.snl_per_photon) if f_photon > 0.0 else -math.inf
        reports.append(FisherReport(p, f_trial, n_through, f_photon, cfg.snl_per_photon, db))
    return reports
