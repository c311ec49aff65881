import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fock_reference import tmss_amplitudes
from reference_chain import (
    GaussianState,
    apply_beamsplitter,
    apply_loss,
    apply_phase,
    apply_two_mode_squeezer,
    mean_photon,
    op_by_op_state,
    vacuum,
)
from squint.detection import fringe
from squint.gaussian import InterferometerConfig, InvalidStateError, bogoliubov_factors
from strategies import random_configs


def tmss(r, num_modes=2):
    return apply_two_mode_squeezer(vacuum(num_modes), 0, 1, r)


class TestVacuum:
    def test_two_modes(self):
        assert np.array_equal(vacuum(2).covariance, np.eye(4) / 2)

    def test_four_modes(self):
        assert np.array_equal(vacuum(4).covariance, np.eye(8) / 2)

    def test_zero_photons(self):
        assert mean_photon(vacuum(2)) == 0.0

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            vacuum(0)


class TestTwoModeSqueezer:
    def test_identity_at_zero(self):
        out = tmss(0.0)
        assert np.allclose(out.covariance, np.eye(4) / 2, atol=1e-15)

    def test_mean_photon_at_059(self):
        # closed form: 2 sinh^2(r); 0.78083 at the headline squeezing
        expected = 2 * math.sinh(0.59) ** 2
        assert mean_photon(tmss(0.59)) == pytest.approx(expected, abs=1e-12)
        assert mean_photon(tmss(0.59)) == pytest.approx(0.7808264707454009, abs=1e-12)

    def test_composition_doubles_r(self):
        twice = apply_two_mode_squeezer(tmss(0.59), 0, 1, 0.59)
        assert np.abs(twice.covariance - tmss(1.18).covariance).max() < 1e-12

    def test_composition_matches_fock_amplitudes(self):
        # |c_0|^2 of TMSS(2r) equals the no-click probability of S(r)S(r)|0>
        c0 = tmss_amplitudes(0.6, 10)[0]
        assert fringe(InterferometerConfig(r1=0.3, r2=0.3), [0.0])[0, 0] == pytest.approx(c0**2, abs=1e-12)

    def test_rejects_same_mode(self):
        with pytest.raises(ValueError):
            apply_two_mode_squeezer(vacuum(2), 1, 1, 0.3)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            apply_two_mode_squeezer(vacuum(2), 0, 1, math.inf)

    def test_purity_preserved(self):
        assert tmss(0.8).purity() == pytest.approx(1.0, abs=1e-9)


class TestPhase:
    def test_identity_at_zero(self):
        s = tmss(0.4)
        assert np.abs(apply_phase(s, [0, 1], 0.0).covariance - s.covariance).max() < 1e-15

    def test_periodicity(self):
        s = tmss(0.4)
        out = apply_phase(s, [0, 1], 2 * math.pi)
        assert np.abs(out.covariance - s.covariance).max() < 1e-12

    def test_photon_number_invariant(self):
        s = tmss(0.7)
        out = apply_phase(s, [0, 1], 1.234)
        assert mean_photon(out) == pytest.approx(mean_photon(s), abs=1e-12)

    def test_squeezers_cancel_at_quarter_period(self):
        # U(pi/2) S(r) U(pi/2)^dag = S(-r), so the pipeline returns to vacuum
        s = apply_two_mode_squeezer(apply_phase(tmss(0.59), [0, 1], math.pi / 2), 0, 1, 0.59)
        assert np.abs(s.covariance - np.eye(4) / 2).max() < 1e-12

    def test_rejects_empty_modes(self):
        with pytest.raises(ValueError):
            apply_phase(vacuum(2), [], 0.1)


class TestLoss:
    def test_identity_at_eta_one(self):
        s = tmss(0.5)
        assert np.abs(apply_loss(s, 0, 1.0).covariance - s.covariance).max() < 1e-15

    def test_complete_loss_gives_vacuum_marginal(self):
        out = apply_loss(tmss(0.5), 0, 0.0)
        assert np.allclose(out.covariance[:2, :2], np.eye(2) / 2, atol=1e-15)

    def test_energy_bookkeeping(self):
        s = tmss(0.59)
        out = apply_loss(apply_loss(s, 0, 0.75), 1, 0.75)
        assert mean_photon(out) == pytest.approx(0.75 * mean_photon(s), abs=1e-12)
        per_mode = apply_loss(s, 0, 0.6)
        assert mean_photon(per_mode, [0]) == pytest.approx(0.6 * mean_photon(s, [0]), abs=1e-12)

    def test_rejects_eta_outside_range(self):
        with pytest.raises(ValueError):
            apply_loss(vacuum(2), 0, 1.2)
        with pytest.raises(ValueError):
            apply_loss(vacuum(2), 0, -0.1)


class TestMeanPhoton:
    def test_closed_form_at_tracking_squeezing(self):
        assert mean_photon(tmss(0.43)) == pytest.approx(2 * math.sinh(0.43) ** 2, abs=1e-12)

    def test_headline_value(self):
        # inside the quoted 0.78(1)
        n_bar = mean_photon(tmss(0.59))
        assert 0.77 <= n_bar <= 0.79


class TestBuildInterferometer:
    def test_vacuum_at_quarter_period(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59)
        out = op_by_op_state(cfg, math.pi / 2)
        assert np.abs(out.covariance - np.eye(8) / 2).max() < 1e-12

    def test_tmss_of_double_r_at_zero_phase(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59)
        out = op_by_op_state(cfg, 0.0)
        assert np.abs(out.covariance[:4, :4] - tmss(1.18).covariance).max() < 1e-12

    def test_asymmetric_gains_supported(self):
        cfg = InterferometerConfig(r1=0.5, r2=0.7)
        out = op_by_op_state(cfg, 0.0)
        assert mean_photon(out, [0, 1]) == pytest.approx(2 * math.sinh(1.2) ** 2, abs=1e-10)

    def test_phase_covariance_period_pi(self, tracking_cfg):
        for phi in (0.0, 0.37, 1.1, 2.5):
            a = op_by_op_state(tracking_cfg, phi)
            b = op_by_op_state(tracking_cfg, phi + math.pi)
            assert np.abs(a.covariance - b.covariance).max() < 1e-12

    def test_internal_loss_applied_between_squeezers(self):
        cfg = InterferometerConfig(r1=0.4, r2=0.4, eta_internal=0.8)
        out = op_by_op_state(cfg, math.pi / 2)
        # internal loss breaks the perfect cancellation
        assert mean_photon(out) > 1e-3


class TestConfigValidation:
    def test_rejects_negative_squeezing(self):
        with pytest.raises(ValueError):
            InterferometerConfig(r1=-0.1, r2=0.3)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            InterferometerConfig(r1=0.1, r2=0.1, eta_h=1.3)
        with pytest.raises(ValueError):
            InterferometerConfig(r1=0.1, r2=0.1, overlap=-0.2)


@st.composite
def op_sequences(draw):
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("sq"), st.floats(0.0, 0.8)),
                st.tuples(st.just("ph"), st.floats(0.0, 2 * math.pi)),
                st.tuples(st.just("bs"), st.floats(0.0, math.pi / 2)),
                st.tuples(st.just("loss"), st.floats(0.0, 1.0)),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return ops


class TestStateInvariants:
    @settings(max_examples=40, deadline=None)
    @given(op_sequences())
    def test_symplectic_validity_under_any_pipeline(self, ops):
        state = vacuum(3)
        for name, value in ops:
            if name == "sq":
                state = apply_two_mode_squeezer(state, 0, 1, value)
            elif name == "ph":
                state = apply_phase(state, [0, 1, 2], value)
            elif name == "bs":
                state = apply_beamsplitter(state, 0, 2, value)
            else:
                state = apply_loss(state, 1, value)
        assert state.is_physical(atol=1e-9)
        assert state.symplectic_eigenvalues().min() >= 0.5 - 1e-9
        assert mean_photon(state) >= -1e-9

    @settings(max_examples=25, deadline=None)
    @given(op_sequences())
    def test_purity_without_loss(self, ops):
        state = vacuum(3)
        for name, value in ops:
            if name == "sq":
                state = apply_two_mode_squeezer(state, 0, 1, value)
            elif name == "ph":
                state = apply_phase(state, [0, 1, 2], value)
            elif name == "bs":
                state = apply_beamsplitter(state, 0, 2, value)
        # det(2 sigma) = 1 for pure states
        sign, logdet = np.linalg.slogdet(2 * state.covariance)
        assert sign > 0
        assert abs(logdet) < 1e-9

    def test_asymmetric_covariance_rejected(self):
        bad = np.eye(4) / 2
        bad[0, 1] = 1e-3
        with pytest.raises(InvalidStateError):
            GaussianState(2, bad)


def arm_matrices(cfg, phi):
    """U and V of each arm at one phase, (2, 3) each: sqrt(eta) times the one
    arm map of bogoliubov_factors."""
    x, y = bogoliubov_factors(cfg)
    w = np.exp(1j * (phi + cfg.phase_offset))
    u, v = x * w + y * np.conj(w)
    scale_h, scale_v = math.sqrt(cfg.eta_h), math.sqrt(cfg.eta_v)
    return scale_h * u, scale_v * u, scale_h * v, scale_v * v


class TestBogoliubovFactors:
    @settings(max_examples=40, deadline=None)
    @given(random_configs, st.floats(-math.pi, math.pi))
    def test_commutators_per_arm(self, cfg, phi):
        # [b_k, b_l^dag] = delta_kl before the arm loss: U U^dag - V V^dag = eta I
        u_h, u_v, v_h, v_v = arm_matrices(cfg, phi)
        for u, v, eta in ((u_h, v_h, cfg.eta_h), (u_v, v_v, cfg.eta_v)):
            assert np.abs(u @ u.conj().T - v @ v.conj().T - eta * np.eye(2)).max() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(random_configs, st.floats(-math.pi, math.pi))
    def test_arm_photon_numbers_match_op_by_op_chain(self, cfg, phi):
        # tr N = tr(V* V^T) is the mean photon number of the arm's two modes
        u_h, u_v, v_h, v_v = arm_matrices(cfg, phi)
        state = op_by_op_state(cfg, phi)
        for v, modes in ((v_h, [0, 2]), (v_v, [1, 3])):
            assert np.sum(np.abs(v) ** 2) == pytest.approx(mean_photon(state, modes), abs=1e-12)

    def test_one_arm_map(self):
        cfg = InterferometerConfig(r1=0.43, r2=0.5, eta_h=0.75, eta_v=0.6, eta_internal=0.9, overlap=0.97)
        factors = bogoliubov_factors(cfg)
        assert factors.shape == (2, 2, 2, 3)
        assert np.array_equal(factors, bogoliubov_factors(cfg.with_updates(eta_h=1.0, eta_v=0.1)))
