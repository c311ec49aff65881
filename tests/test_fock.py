import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squint.detection import fringe, interferometer_clicks
from squint.fock import (
    FockState,
    TruncationError,
    evolve_fock,
    required_n_max,
    simulate_fock,
    squeezer_unitary,
    tmss_amplitudes,
    truncation_error_bound,
)
from squint.gaussian import InterferometerConfig


class TestTmssAmplitudes:
    def test_zero_squeezing(self):
        amps = tmss_amplitudes(0.0, 5)
        assert amps == pytest.approx([1, 0, 0, 0, 0, 0], abs=1e-15)

    def test_leading_amplitude(self):
        amps = tmss_amplitudes(0.59, 10)
        assert amps[0] == pytest.approx(1.0 / math.cosh(0.59), abs=1e-15)

    def test_sign_convention(self):
        # (-tanh r)^n: odd amplitudes negative under this squeezer convention
        amps = tmss_amplitudes(0.4, 6)
        assert amps[1] < 0 < amps[2]

    def test_norm_geometric_tail(self):
        for r, n_max in [(0.3, 6), (0.59, 11), (1.18, 20)]:
            total = float(np.sum(tmss_amplitudes(r, n_max) ** 2))
            assert total == pytest.approx(1.0 - math.tanh(r) ** (2 * (n_max + 1)), abs=1e-14)


class TestTruncationBound:
    def test_zero_squeezing(self):
        assert truncation_error_bound(0.0, 7) == 0.0

    def test_formula_values(self):
        assert truncation_error_bound(1.18, 20) == pytest.approx(math.tanh(1.18) ** 42, abs=0)
        assert truncation_error_bound(0.86, 30) == pytest.approx(math.tanh(0.86) ** 62, abs=0)

    def test_monotone_in_cutoff(self):
        bounds = [truncation_error_bound(1.18, n) for n in range(5, 60, 5)]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_required_n_max(self):
        n = required_n_max(1.18, 1e-8)
        assert truncation_error_bound(1.18, n) < 1e-8
        assert truncation_error_bound(1.18, n - 1) >= 1e-8


class TestSqueezerUnitary:
    def test_identity_at_zero(self):
        u = squeezer_unitary(0.0, 4)
        assert np.abs(u - np.eye(25)).max() < 1e-12

    def test_unitarity(self):
        u = squeezer_unitary(0.59, 20)
        assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= 1e-8

    def test_column_zero_is_tmss(self):
        n_max = 40
        u = squeezer_unitary(0.59, n_max)
        col = u[:, 0].reshape(n_max + 1, n_max + 1)
        amps = tmss_amplitudes(0.59, n_max)
        assert np.abs(np.diagonal(col).real - amps).max() < 1e-8
        off_diag = col - np.diag(np.diagonal(col))
        assert np.abs(off_diag).max() < 1e-10

    def test_su11_composition(self):
        n_max = 40
        u = squeezer_unitary(0.3, n_max)
        col = (u @ u[:, 0]).reshape(n_max + 1, n_max + 1)
        amps = tmss_amplitudes(0.6, n_max)
        assert np.abs(np.diagonal(col).real - amps).max() < 1e-8

    def test_budget_enforced(self):
        with pytest.raises(TruncationError):
            squeezer_unitary(1.18, 10, budget=1e-8)


class TestSimulateFock:
    def test_ideal_quarter_period(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59)
        n_max = required_n_max(1.18, 1e-8)
        d = simulate_fock(cfg, math.pi / 2, n_max)
        assert d.as_array() == pytest.approx([1, 0, 0, 0], abs=1e-8)

    def test_ideal_zero_phase_closed_form(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59)
        n_max = required_n_max(1.18, 1e-8)
        d = simulate_fock(cfg, 0.0, n_max)
        assert d.p11 == pytest.approx(1.0 - 1.0 / math.cosh(1.18) ** 2, abs=1e-8)

    def test_parity_selection_exact(self):
        # no loss, full overlap: support only on |n,n>, so no single-sided clicks
        cfg = InterferometerConfig(r1=0.45, r2=0.45)
        d = simulate_fock(cfg, 0.83, required_n_max(0.9, 1e-8))
        assert abs(d.p01) < 1e-14
        assert abs(d.p10) < 1e-14

    def test_lossy_matches_gaussian(self):
        cfg = InterferometerConfig(r1=0.3, r2=0.3, eta_h=0.75, eta_v=0.6)
        n_max = required_n_max(0.6, 1e-8)
        for phi in (0.0, 0.4, 1.1, 2.0):
            fock = simulate_fock(cfg, phi, n_max).as_array()
            gauss = interferometer_clicks(cfg, phi).as_array()
            assert np.abs(fock - gauss).max() < 1e-6

    def test_internal_loss_matches_gaussian(self):
        cfg = InterferometerConfig(r1=0.3, r2=0.3, eta_internal=0.85, eta_h=0.9, eta_v=0.9)
        n_max = required_n_max(0.6, 1e-8)
        for phi in (0.3, 1.3):
            fock = simulate_fock(cfg, phi, n_max).as_array()
            gauss = interferometer_clicks(cfg, phi).as_array()
            assert np.abs(fock - gauss).max() < 1e-6

    def test_asymmetric_gain_matches_gaussian(self):
        cfg = InterferometerConfig(r1=0.25, r2=0.45, eta_h=0.8, eta_v=0.8)
        n_max = required_n_max(0.7, 1e-8)
        fock = simulate_fock(cfg, 0.9, n_max).as_array()
        gauss = interferometer_clicks(cfg, 0.9).as_array()
        assert np.abs(fock - gauss).max() < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(0.0, 0.35),
        st.floats(0.0, 0.35),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(-math.pi, math.pi),
        st.floats(0.0, math.pi),
    )
    def test_random_lossy_configs_match_gaussian(self, r1, r2, eta_h, eta_v, eta_int, offset, phi):
        cfg = InterferometerConfig(
            r1=r1, r2=r2, eta_h=eta_h, eta_v=eta_v, eta_internal=eta_int, phase_offset=offset
        )
        fock = simulate_fock(cfg, phi, required_n_max(r1 + r2, 1e-8), budget=1e-8).as_array()
        assert np.abs(fock - fringe(cfg, [phi])[0]).max() <= 1e-6

    def test_budget_exceeded_raises(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59)
        with pytest.raises(TruncationError):
            simulate_fock(cfg, 0.1, 12)


class TestMismatchTier:
    # four-mode oracle runs at reduced cutoff and the documented looser 1e-4 budget

    def test_lossless_mismatch_matches_gaussian(self):
        cfg = InterferometerConfig(r1=0.3, r2=0.3, overlap=0.98)
        n_max = 8
        assert truncation_error_bound(0.6, n_max) < 1e-4
        for phi in (0.0, 0.9, math.pi / 2):
            fock = simulate_fock(cfg, phi, n_max, budget=1e-4).as_array()
            gauss = interferometer_clicks(cfg, phi).as_array()
            assert np.abs(fock - gauss).max() < 1e-4

    def test_lossy_mismatch_matches_gaussian(self):
        cfg = InterferometerConfig(r1=0.25, r2=0.25, eta_h=0.8, eta_v=0.8, overlap=0.95)
        n_max = 6
        assert truncation_error_bound(0.5, n_max) < 1e-4
        fock = simulate_fock(cfg, 0.7, n_max, budget=1e-4).as_array()
        gauss = interferometer_clicks(cfg, 0.7).as_array()
        assert np.abs(fock - gauss).max() < 1e-4

    def test_internal_loss_mismatch_asymmetric_matches_gaussian(self):
        # six modes: a, b, a', b' and one environment mode per sample mode
        cfg = InterferometerConfig(
            r1=0.2, r2=0.3, eta_internal=0.9, eta_h=0.85, eta_v=0.7, overlap=0.96, phase_offset=0.3
        )
        n_max = 6
        assert truncation_error_bound(0.5, n_max) < 1e-4
        for phi in (0.2, 1.0):
            fock = simulate_fock(cfg, phi, n_max, budget=1e-4).as_array()
            gauss = interferometer_clicks(cfg, phi).as_array()
            assert np.abs(fock - gauss).max() < 1e-4


class TestFockStateInvariants:
    def test_pure_norm_within_truncation_tail(self):
        cfg = InterferometerConfig(r1=0.4, r2=0.4)
        n_max = 14
        state = evolve_fock(cfg, 0.6, n_max)
        tail = truncation_error_bound(0.8, n_max)
        assert abs(state.norm() - 1.0) <= 4 * tail

    def test_trace_preserved_by_loss(self):
        # internal loss moves photons into environment modes of the state;
        # external loss is a weight at detection and leaves the state alone
        cfg = InterferometerConfig(r1=0.4, r2=0.4)
        pure = evolve_fock(cfg, 0.6, 14)
        lossy = evolve_fock(cfg.with_updates(eta_internal=0.7), 0.6, 14)
        assert lossy.num_modes == pure.num_modes + 2
        assert abs(lossy.norm() - pure.norm()) < 1e-10

    def test_state_shape_validation(self):
        with pytest.raises(ValueError):
            FockState(2, 4, np.zeros((5, 4), dtype=complex))
