"""Bundled configurations reproducing the reference experiment's figures.

The experiment measured two parameter sets, each at 96.6% p11 fringe
visibility: the r = 0.59 fringe set and the r = 0.43 tracking set. Each
preset is a constant whose overlap is the literal that
``overlap_for_visibility`` finds for FRINGE_VISIBILITY, so the simulated
visibility matches the measured one; a test recomputes both.
"""

from __future__ import annotations

import numpy as np

from .gaussian import InterferometerConfig
from .metrology import heisenberg_sensitivity
from .simkit import TrackingScenario

__all__ = [
    "FRINGE_VISIBILITY",
    "fringe_config",
    "tracking_config",
    "fig4_scenario",
]

FRINGE_VISIBILITY = 0.966

# Eleven staircase phases, 0.35 to 1.35 rad, one 0.2 s window each per repeat.
# The tracking preset's F peaks at 1.320 rad (1.822 mirrored), 4.82 dB per photon
# beyond the SNL; 1.35 rad reads 4.78 dB, the paper's quoted 0.58 rad -2.77 dB.
FIG4_PHASES = tuple(round(0.35 + 0.1 * k, 2) for k in range(11))


def fringe_config() -> InterferometerConfig:
    """Fringe-measurement parameters: r = 0.59, arm efficiencies 0.744/0.751."""
    return InterferometerConfig(r1=0.59, r2=0.59, eta_h=0.744, eta_v=0.751, overlap=0.9887022972106934)


def tracking_config() -> InterferometerConfig:
    """Real-time tracking parameters: r = 0.43, symmetric 75% efficiencies."""
    return InterferometerConfig(r1=0.43, r2=0.43, eta_h=0.75, eta_v=0.75, overlap=0.9859747886657715)


def fig4_scenario(seed: int = 0) -> TrackingScenario:
    """Staircase of eleven phases, 0.2 s windows, 200 repeats for the statistics."""
    return TrackingScenario(
        phase_schedule=tuple((p, 0.2) for p in FIG4_PHASES),
        window=0.2,
        repeats=200,
        seed=seed,
    )


def fig1b_table() -> dict[str, np.ndarray]:
    """Columns n_bar, dphi_tm, dphi_noon and dphi_snl: per-trial sensitivities
    at 100 mean photon numbers from 0.05 to 5."""
    n_bar = np.linspace(0.05, 5.0, 100)
    return {
        "n_bar": n_bar,
        "dphi_tm": np.array([heisenberg_sensitivity(n) for n in n_bar.tolist()]),
        "dphi_noon": 1.0 / (2.0 * n_bar),
        "dphi_snl": 1.0 / np.sqrt(2.0 * n_bar),
    }
