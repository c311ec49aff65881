import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strategies import phase_lists, random_configs
from squint.detection import _checked, _fringe_rows, clicks, fringe, fringe_visibility, overlap_for_visibility
from squint.gaussian import InterferometerConfig, InvalidStateError


def lossy_tmss_clicks(r, eta, phi):
    """Independent closed-form oracle for the symmetric lossless-mismatch case.

    The ideal output is photon-correlated with per-mode occupation
    n1 = sinh^2(2r) cos^2(phi); under symmetric external loss eta the vacuum
    overlaps follow from thermal-marginal algebra:
        p(vac both) = 1/(1 + eta(2-eta) n1),   p(vac one arm) = 1/(1 + eta n1).
    """
    n1 = math.sinh(2 * r) ** 2 * math.cos(phi) ** 2
    kappa = eta * (2.0 - eta)
    p00 = 1.0 / (1.0 + kappa * n1)
    p_single = 1.0 / (1.0 + eta * n1)
    p01 = p_single - p00
    return np.array([p00, p01, p01, 1.0 - 2.0 * p_single + p00])


class TestVacuumProbability:
    def test_vacuum_gives_one(self):
        table = fringe(InterferometerConfig(r1=0.0, r2=0.0), np.linspace(0.0, math.pi, 5))
        assert np.array_equal(table, np.tile([1.0, 0.0, 0.0, 0.0], (5, 1)))

    def test_tmss_both_modes(self):
        # at phi = 0 the two passes add up to a two-mode squeezed vacuum of 2r
        expected = 1.0 / math.cosh(1.18) ** 2
        p00 = fringe(InterferometerConfig(r1=0.59, r2=0.59), [0.0])[0, 0]
        assert p00 == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.3153238314399897, abs=1e-12)

    def test_tmss_single_mode_is_thermal(self):
        # at phi = 0 the output is a two-mode squeezed vacuum of 1.18 on (a, b):
        # arm H alone is thermal with n = sinh^2(1.18), and photon-number
        # correlation makes vacuum on H (p00 + p01) equal to vacuum on both arms
        p = clicks(InterferometerConfig(r1=0.59, r2=0.59), [0.0])[0][0]
        n_thermal = math.sinh(1.18) ** 2
        assert p[0] + p[1] == pytest.approx(1.0 / (1.0 + n_thermal), abs=1e-12)
        assert p[1] == pytest.approx(0.0, abs=1e-12)

    def test_invalid_state_rejected(self):
        # squeezing this large overflows the moments: rejected, never returned as NaN
        with np.errstate(all="ignore"), pytest.raises(InvalidStateError):
            clicks(InterferometerConfig(r1=400.0, r2=400.0), [0.0])


class TestClickDistribution:
    """The four outcome probabilities (p00, p01, p10, p11) at given phases."""

    def test_ideal_quarter_period_is_silent(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59)
        assert fringe(cfg, [math.pi / 2])[0] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)

    def test_ideal_zero_phase(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59)
        p00, p01, p10, p11 = fringe(cfg, [0.0])[0]
        closed = 1.0 / math.cosh(1.18) ** 2
        assert p00 == pytest.approx(closed, abs=1e-12)
        assert p01 == pytest.approx(0.0, abs=1e-12)
        assert p10 == pytest.approx(0.0, abs=1e-12)
        assert p11 == pytest.approx(1.0 - closed, abs=1e-12)

    def test_lossy_singles_appear_symmetrically(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59, eta_h=0.75, eta_v=0.75)
        _, p01, p10, _ = fringe(cfg, [0.0])[0]
        assert p01 > 0.01
        assert p01 == pytest.approx(p10, abs=1e-10)

    def test_matches_closed_form_lossy_oracle(self):
        phis = np.linspace(0.0, math.pi, 13)
        for r, eta in [(0.3, 0.9), (0.59, 0.75), (0.5, 0.5)]:
            got = fringe(InterferometerConfig(r1=r, r2=r, eta_h=eta, eta_v=eta), phis)
            for phi, row in zip(phis, got):
                assert row == pytest.approx(lossy_tmss_clicks(r, eta, phi), abs=1e-12)

    def test_normalization_across_configs(self, tracking_cfg):
        for cfg in (
            tracking_cfg,
            InterferometerConfig(r1=0.6, r2=0.4, eta_h=0.3, eta_v=0.9, eta_internal=0.8),
        ):
            totals = fringe(cfg, np.linspace(0, math.pi, 17)).sum(axis=1)
            assert np.abs(totals - 1.0).max() < 1e-10

    def test_monotone_loss_raises_p00(self):
        phi = 0.7
        last = 0.0
        for loss in np.linspace(0.0, 1.0, 11):
            cfg = InterferometerConfig(r1=0.5, r2=0.5, eta_h=1 - loss, eta_v=1 - loss)
            p00 = fringe(cfg, [phi])[0, 0]
            assert p00 >= last - 1e-12
            last = p00

    def test_clamping_policy(self):
        p = _checked(np.array([[1.0 + 5e-13, 0.0, -5e-13, 0.0]]))[0]
        assert p[0] == 1.0
        assert p[2] == 0.0
        with pytest.raises(InvalidStateError):
            _checked(np.array([[1.0 + 1e-6, 0.0, 0.0, 0.0]]))
        with pytest.raises(InvalidStateError):
            _checked(np.array([[0.6, 0.3, 0.2, 0.1]]))


class TestBatchInvariance:
    @settings(max_examples=60, deadline=None)
    @given(random_configs, st.floats(-2 * math.pi, 2 * math.pi), st.integers(0, 599))
    def test_one_phase_equals_its_row_of_a_long_batch(self, cfg, phi, k):
        # one click path for every batch size: a one-phase call is bit for bit
        # its row of a batch that spans five chunks
        phis = np.linspace(-math.pi, math.pi, 600)
        phis[k] = phi
        p, dp = clicks(cfg, phis)
        one_p, one_dp = clicks(cfg, [phi])
        assert np.array_equal(one_p[0], p[k]) and np.array_equal(one_dp[0], dp[k])
        assert np.array_equal(fringe(cfg, [phi])[0], fringe(cfg, phis)[k])

    @pytest.mark.parametrize("n_configs, n_phases", [(1, 1), (2, 8), (3, 43), (10, 16)])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_stacked_config_rows_equal_each_fringe(self, n_configs, n_phases, data):
        # 1, 16, 129 and 160 stacked rows, across _CHUNK = 128, of configs with
        # distinct offsets and efficiencies: one pass gives each fringe bit for bit
        cfgs = data.draw(st.lists(random_configs, min_size=n_configs, max_size=n_configs,
                                  unique_by=(lambda c: c.phase_offset, lambda c: c.eta_h, lambda c: c.eta_v)))
        phis = data.draw(st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=n_phases, max_size=n_phases))
        stacked = _fringe_rows(cfgs, phis)
        assert stacked.shape == (n_configs, n_phases, 4)
        assert stacked.tobytes() == np.stack([fringe(cfg, phis) for cfg in cfgs]).tobytes()


class TestArmSymmetry:
    @settings(max_examples=200, deadline=None)
    @given(random_configs, phase_lists)
    def test_swapping_arm_efficiencies_swaps_single_clicks(self, cfg, phis):
        # the arms differ only in their efficiencies, so swapping eta_h and
        # eta_v swaps p01 and p10 and leaves p00 and p11
        p, dp = clicks(cfg, phis)
        q, dq = clicks(cfg.with_updates(eta_h=cfg.eta_v, eta_v=cfg.eta_h), phis)
        swap = [0, 2, 1, 3]
        assert np.abs(q[:, swap] - p).max() <= 1e-15
        assert np.abs(dq[:, swap] - dp).max() <= 1e-15


class TestPhaseSymmetry:
    # the phase enters only as t = phi + phase_offset, and the click
    # statistics are even in t with period pi. The bounds are roundoff: over
    # 20 000 random configs x 5 phases the largest deviations were 2.0e-15
    # in p and 5.2e-15 in dp/dphi, part of them from rounding phi + pi
    @settings(max_examples=200, deadline=None)
    @given(random_configs, phase_lists)
    def test_period_is_pi(self, cfg, phis):
        p, dp = clicks(cfg, phis)
        q, dq = clicks(cfg, np.add(phis, math.pi))
        assert np.abs(q - p).max() <= 4e-15
        assert np.abs(dq - dp).max() <= 1e-14

    @settings(max_examples=200, deadline=None)
    @given(random_configs, phase_lists)
    def test_even_about_the_offset(self, cfg, phis):
        p, dp = clicks(cfg, phis)
        q, dq = clicks(cfg, -np.asarray(phis) - 2 * cfg.phase_offset)
        assert np.abs(q - p).max() <= 4e-15
        assert np.abs(dq + dp).max() <= 1e-14


class TestLayout:
    def test_each_detector_sees_both_modes_of_its_arm(self):
        # arm V fully lost: V never clicks, while H clicks on its matched and
        # mismatched modes everywhere except at the dark fringe pi/2
        cfg = InterferometerConfig(r1=0.59, r2=0.59, eta_v=0.0, overlap=0.97)
        phis = np.linspace(0.0, math.pi, 37)
        table = fringe(cfg, phis)
        assert np.all(table[:, 1] == 0.0)
        assert np.all(table[:, 3] == 0.0)
        away = np.abs(phis - math.pi / 2) > 0.1
        assert np.all(table[away, 2] > 0.0)


class TestVisibility:
    def test_ideal_visibility_is_one(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59)
        assert fringe_visibility(cfg) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("offset", [math.pi / 1440, 0.001, 0.3])
    def test_visibility_does_not_depend_on_the_offset(self, offset):
        # the dark fringe is read where it is, not at the nearest grid node
        ideal = InterferometerConfig(r1=0.59, r2=0.59, phase_offset=offset)
        assert fringe_visibility(ideal) == 1.0
        base = InterferometerConfig(r1=0.59, r2=0.59, eta_h=0.75, eta_v=0.75)
        xi = overlap_for_visibility(base, 0.966)
        assert overlap_for_visibility(base.with_updates(phase_offset=offset), 0.966) == xi

    @settings(max_examples=200, deadline=None)
    @given(random_configs)
    # subnormal p11, where one ulp exceeds 1e-14 of the value
    @example(InterferometerConfig(r1=1.4701612090391845e-160, r2=0.0))
    @example(InterferometerConfig(r1=0.5, r2=1.0, eta_v=5e-324, overlap=0.5))
    def test_p11_extremes_at_the_symmetry_points(self, cfg):
        # fringe_visibility reads p11 at t = phi + offset = 0 and pi/2 only:
        # p11 over a whole period stays between those two values
        ends = fringe(cfg, np.array([0.0, 0.5 * math.pi]) - cfg.phase_offset)[:, 3]
        p11 = fringe(cfg, np.linspace(0.0, math.pi, 257))[:, 3]
        slack = max(1e-14 * ends.max(), 2 * np.spacing(ends.max()))
        assert ends.min() - slack <= p11.min() and p11.max() <= ends.max() + slack

    def test_mismatch_reduces_visibility(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59, eta_h=0.75, eta_v=0.75, overlap=0.97)
        assert fringe_visibility(cfg) < 0.95

    def test_overlap_calibration_round_trip(self):
        base = InterferometerConfig(r1=0.59, r2=0.59, eta_h=0.75, eta_v=0.75)
        xi = overlap_for_visibility(base, 0.966)
        vis = fringe_visibility(base.with_updates(overlap=xi))
        assert vis == pytest.approx(0.966, abs=1e-4)

    def test_unreachable_target_rejected(self):
        base = InterferometerConfig(r1=0.59, r2=0.59)
        # visibility at the lower bracket overlap=0.5 is ~0.154; smaller
        # targets are outside the searched range
        with pytest.raises(ValueError):
            overlap_for_visibility(base, 0.1)
        with pytest.raises(ValueError):
            overlap_for_visibility(base, 1.5)

    def test_target_above_full_overlap_rejected(self):
        # r1 != r2: the fringe is not dark even at overlap 1, so its
        # visibility tops out below 1
        base = InterferometerConfig(r1=0.3, r2=0.5)
        top = fringe_visibility(base)
        assert top == pytest.approx(0.8376, abs=1e-4)
        with pytest.raises(ValueError, match="not reachable"):
            overlap_for_visibility(base, 0.999)
        xi = overlap_for_visibility(base, 0.8)
        assert fringe_visibility(base.with_updates(overlap=xi)) == pytest.approx(0.8, abs=1e-4)

    def test_no_fringe_has_zero_visibility(self):
        # at r = 0 nothing clicks: p11 = 0 at every phase
        assert fringe_visibility(InterferometerConfig(r1=0.0, r2=0.0)) == 0.0

    def test_fringe_shape(self, fringe_cfg):
        grid = np.linspace(0, math.pi, 9)
        table = fringe(fringe_cfg, grid)
        assert table.shape == (9, 4)
        assert np.all(table >= 0) and np.all(table <= 1)
