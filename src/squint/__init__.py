"""squint: click statistics, Fisher information, and phase estimation for a
stimulated two-mode-squeezing interferometer with threshold detectors."""

from .detection import clicks, fringe, fringe_visibility, overlap_for_visibility
from .estimation import (
    CalibrationModel,
    PhaseEstimate,
    UnidentifiableError,
    bootstrap_sigma,
    calibrate,
    estimate_phase,
    estimate_phases,
)
from .fock import (
    TruncationError,
    required_n_max,
    simulate_fock,
    truncation_error_bound,
)
from .gaussian import InterferometerConfig, InvalidStateError
from .metrology import (
    BracketError,
    crlb,
    fisher,
    fisher_max_ideal,
    fisher_sweep,
    heisenberg_sensitivity,
    max_fisher,
    noon_fisher_per_photon,
    photons_through_sample,
    threshold_noon,
    threshold_tm,
    threshold_tm_numeric,
)
from .simkit import (
    SensitivityReport,
    TrackingRun,
    TrackingScenario,
    run_tracking,
    sensitivity_report,
)

__version__ = "0.1.0"
