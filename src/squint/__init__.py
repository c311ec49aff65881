"""squint: click statistics, Fisher information, and phase estimation for a
stimulated two-mode-squeezing interferometer with threshold detectors."""

from .detection import (
    ArmAssignment,
    ClickDistribution,
    click_distribution,
    clicks,
    fringe,
    fringe_visibility,
    interferometer_arms,
    interferometer_clicks,
    overlap_for_visibility,
    vacuum_probability,
)
from .estimation import (
    CalibrationModel,
    PhaseEstimate,
    UnidentifiableError,
    bootstrap_sigma,
    calibrate,
    crlb,
    estimate_phase,
    estimate_phases,
)
from .fock import (
    FockState,
    TruncationError,
    required_n_max,
    simulate_fock,
    squeezer_unitary,
    tmss_amplitudes,
    truncation_error_bound,
)
from .gaussian import (
    GaussianState,
    InterferometerConfig,
    InvalidStateError,
    apply_loss,
    apply_phase,
    apply_two_mode_squeezer,
    build_interferometer,
    interferometer_factors,
    mean_photon,
    vacuum,
)
from .metrology import (
    BracketError,
    FisherReport,
    NoonBaseline,
    fisher_max_ideal,
    fisher_per_trial,
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
    PhaseAggregate,
    SensitivityReport,
    TrackingRun,
    TrackingScenario,
    WindowRecord,
    run_tracking,
    sample_clicks,
    sensitivity_report,
)

__version__ = "0.1.0"
