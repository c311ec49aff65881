import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fock_reference import squeezer_unitary, state_clicks, tmss_amplitudes
from strategies import phase_lists
from squint.detection import fringe
from squint.fock import (
    _apply_pair_unitary,
    _beamsplitter_unitary,
    _squeezer_unitary,
    TruncationError,
    evolve_fock,
    required_n_max,
    simulate_fock,
    truncation_error_bound,
)
from squint.gaussian import InterferometerConfig


def norm(vec):
    """Squared norm of a state's amplitudes; 1 up to the truncation tail."""
    return float(np.vdot(vec, vec).real)


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

    @pytest.mark.parametrize("r_total", [math.nan, math.inf, -math.inf])
    def test_total_squeezing_must_be_finite(self, r_total):
        # NaN gave cutoff 1 and a NaN bound; inf ran to n_max 400 and a TruncationError
        with pytest.raises(ValueError, match="total squeezing must be finite"):
            truncation_error_bound(r_total, 3)
        with pytest.raises(ValueError, match="total squeezing must be finite"):
            required_n_max(r_total)

    @pytest.mark.parametrize("n_max", [-5, 2.5, True])
    def test_cutoff_must_be_an_integer_at_least_0(self, n_max):
        # -5 gave a tail-weight "bound" of 480, 2.5 a TypeError in evolve_fock, and True ran as 1
        with pytest.raises(ValueError, match="n_max must be"):
            truncation_error_bound(1.18, n_max)
        with pytest.raises(ValueError, match="n_max must be"):
            next(evolve_fock(InterferometerConfig(r1=0.3, r2=0.3), [0.3], n_max))

    @pytest.mark.parametrize("budget", [math.nan, math.inf, 0.0, -1e-8, True])
    def test_budget_must_be_finite_and_positive(self, budget):
        # the rule of squint validate; a NaN or infinite budget gave n_max = 1
        with pytest.raises(ValueError, match="budget"):
            required_n_max(1.18, budget)
        with pytest.raises(ValueError, match="budget"):
            simulate_fock(InterferometerConfig(r1=0.59, r2=0.59), [0.3], budget=budget)


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


class TestSectorBlocks:
    def test_blocks_match_dense_unitary(self):
        n_max = 6
        rng = np.random.default_rng(7)
        vec = rng.normal(size=(n_max + 1) ** 2) + 1j * rng.normal(size=(n_max + 1) ** 2)
        blocks = _squeezer_unitary(0.37, n_max)
        applied = _apply_pair_unitary(vec.reshape(n_max + 1, n_max + 1), blocks, 0, 1)
        dense = squeezer_unitary(0.37, n_max) @ vec
        assert np.abs(applied.ravel() - dense).max() <= 1e-14

    def test_charge_is_conserved(self):
        # modes a, b, a', b', e_a, e_b: arm H carries charge +1, arm V charge -1
        cfg = InterferometerConfig(
            r1=0.3, r2=0.45, eta_internal=0.8, eta_h=0.9, eta_v=0.7, overlap=0.9, phase_offset=0.4
        )
        (vec,) = evolve_fock(cfg, [0.7], 5)
        n = np.indices(vec.shape)
        charge = n[0] + n[2] + n[4] - n[1] - n[3] - n[5]
        assert vec.ndim == 6
        assert np.sum(np.abs(vec[charge != 0]) ** 2) == 0.0

    def test_mismatch_rotation_commutes_with_the_phase(self):
        # a', b' are empty before the rotation, so the phase on a, b ahead of
        # it gives the state that the phase on all four sample modes gives after it
        cfg = InterferometerConfig(r1=0.3, r2=0.2, eta_internal=0.8, overlap=0.9, phase_offset=0.4)
        n_max, t = 6, 0.7
        d = n_max + 1
        ref = np.zeros((d,) * 6, dtype=complex)
        ref[(0,) * 6] = 1.0
        ref = _apply_pair_unitary(ref, _squeezer_unitary(cfg.r1, n_max), 0, 1)
        loss = _beamsplitter_unitary(math.acos(math.sqrt(cfg.eta_internal)), n_max)
        ref = _apply_pair_unitary(_apply_pair_unitary(ref, loss, 0, 4), loss, 1, 5)
        n = np.arange(d)
        ref = ref * np.exp(1j * (t + cfg.phase_offset) * (n[:, None] + n[None, :]))[..., None, None, None, None]
        rotation = _beamsplitter_unitary(math.acos(cfg.overlap), n_max)
        ref = _apply_pair_unitary(_apply_pair_unitary(ref, rotation, 0, 2), rotation, 1, 3)
        ref = _apply_pair_unitary(ref, _squeezer_unitary(cfg.r2, n_max), 0, 1)
        (vec,) = evolve_fock(cfg, [t], n_max)
        assert np.abs(vec - ref).max() <= 1e-14

    def test_cold_oracle_builds_no_dense_unitary(self):
        # a dense 2401-square unitary alone would take 92 MB
        _squeezer_unitary.cache_clear()
        _beamsplitter_unitary.cache_clear()
        cfg = InterferometerConfig(r1=0.59, r2=0.59, eta_h=0.75, eta_v=0.75)
        tracemalloc.start()
        try:
            simulate_fock(cfg, 0.4)  # n_max 48
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6


class TestSimulateFock:
    def test_ideal_quarter_period(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59)
        assert simulate_fock(cfg, [math.pi / 2])[0] == pytest.approx([1, 0, 0, 0], abs=1e-8)

    def test_ideal_zero_phase_closed_form(self):
        cfg = InterferometerConfig(r1=0.59, r2=0.59)
        p11 = simulate_fock(cfg, [0.0])[0, 3]
        assert p11 == pytest.approx(1.0 - 1.0 / math.cosh(1.18) ** 2, abs=1e-8)

    def test_parity_selection_exact(self):
        # no loss, full overlap: support only on |n,n>, so no single-sided clicks
        cfg = InterferometerConfig(r1=0.45, r2=0.45)
        _, p01, p10, _ = simulate_fock(cfg, [0.83])[0]
        assert abs(p01) < 1e-14
        assert abs(p10) < 1e-14

    def test_lossy_matches_gaussian(self):
        cfg = InterferometerConfig(r1=0.3, r2=0.3, eta_h=0.75, eta_v=0.6)
        phis = (0.0, 0.4, 1.1, 2.0)
        assert np.abs(simulate_fock(cfg, phis) - fringe(cfg, phis)).max() < 1e-6

    def test_internal_loss_matches_gaussian(self):
        cfg = InterferometerConfig(r1=0.3, r2=0.3, eta_internal=0.85, eta_h=0.9, eta_v=0.9)
        phis = (0.3, 1.3)
        assert np.abs(simulate_fock(cfg, phis) - fringe(cfg, phis)).max() < 1e-6

    def test_asymmetric_gain_matches_gaussian(self):
        cfg = InterferometerConfig(r1=0.25, r2=0.45, eta_h=0.8, eta_v=0.8)
        assert np.abs(simulate_fock(cfg, [0.9]) - fringe(cfg, [0.9])).max() < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(0.0, 0.35),
        st.floats(0.0, 0.35),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(-math.pi, math.pi),
        phase_lists,
    )
    def test_random_lossy_configs_match_gaussian(self, r1, r2, eta_h, eta_v, eta_int, offset, phis):
        cfg = InterferometerConfig(
            r1=r1, r2=r2, eta_h=eta_h, eta_v=eta_v, eta_internal=eta_int, phase_offset=offset
        )
        fock = simulate_fock(cfg, phis, budget=1e-8)
        assert np.abs(fock - fringe(cfg, phis)).max() <= 1e-6

    @settings(max_examples=8, deadline=None)
    @given(
        st.floats(0.0, 0.25),
        st.floats(0.0, 0.25),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.one_of(st.just(1.0), st.floats(0.5, 1.0, exclude_max=True)),  # internal loss in half
        st.floats(0.8, 1.0, exclude_max=True),
        st.floats(-math.pi, math.pi),
        st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=1, max_size=2),
    )
    def test_random_mismatched_configs_match_gaussian(self, r1, r2, eta_h, eta_v, eta_int, overlap, offset, phis):
        # four modes, or six under internal loss: the mismatch rotation acts once, before the phase
        cfg = InterferometerConfig(r1=r1, r2=r2, eta_h=eta_h, eta_v=eta_v, eta_internal=eta_int,
                                   overlap=overlap, phase_offset=offset)
        fock = simulate_fock(cfg, phis, budget=1e-8)
        assert np.abs(fock - fringe(cfg, phis)).max() <= 1e-6

    @settings(max_examples=15, deadline=None)
    @given(
        st.floats(0.0, 0.2),
        st.floats(0.0, 0.2),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.one_of(st.just(1.0), st.floats(0.5, 1.0, exclude_max=True)),
        st.one_of(st.just(1.0), st.floats(0.8, 1.0, exclude_max=True)),
        st.floats(-math.pi, math.pi),
        st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=1, max_size=2),
    )
    def test_contraction_equals_weighted_products(self, r1, r2, eta_h, eta_v, eta_int, overlap, offset, phis):
        # two, four (internal loss or mismatch) or six modes
        cfg = InterferometerConfig(r1=r1, r2=r2, eta_h=eta_h, eta_v=eta_v, eta_internal=eta_int,
                                   overlap=overlap, phase_offset=offset)
        n_max = required_n_max(r1 + r2, 1e-6)  # the cutoff simulate_fock derives
        ref = [state_clicks(cfg, vec) for vec in evolve_fock(cfg, phis, n_max)]
        assert np.abs(simulate_fock(cfg, phis, budget=1e-6) - ref).max() <= 1e-14

    @pytest.mark.parametrize(
        "cfg",
        [
            InterferometerConfig(r1=0.3, r2=0.4, eta_h=0.8, eta_v=0.6, phase_offset=0.2),
            InterferometerConfig(r1=0.2, r2=0.3, eta_internal=0.9, eta_h=0.85, overlap=0.96),
        ],
        ids=["two-mode", "six-mode"],
    )
    def test_batch_rows_equal_one_phase_calls(self, cfg):
        phis = np.array([[0.0, 0.4, 1.1], [2.0, -0.7, 5.3]])
        batch = simulate_fock(cfg, phis, budget=1e-6)
        assert batch.shape == (6, 4)
        for phi, row in zip(phis.ravel(), batch):
            assert np.array_equal(simulate_fock(cfg, [phi], budget=1e-6)[0], row)

    def test_budget_exceeded_raises(self):
        # tanh(1.18)^(2(n_max + 1)) reaches 1e-300 only past n_max = 1800
        cfg = InterferometerConfig(r1=0.59, r2=0.59)
        with pytest.raises(TruncationError):
            simulate_fock(cfg, [0.1], budget=1e-300)


class TestMismatchTier:
    # four- and six-mode oracle at the full 1e-8 budget

    @staticmethod
    def assert_matches_gaussian(cfg, phis):
        assert np.abs(simulate_fock(cfg, phis) - fringe(cfg, phis)).max() < 1e-6

    def test_lossless_mismatch_matches_gaussian(self):
        cfg = InterferometerConfig(r1=0.3, r2=0.3, overlap=0.98)
        self.assert_matches_gaussian(cfg, (0.0, 0.9, math.pi / 2))

    def test_lossy_mismatch_matches_gaussian(self):
        cfg = InterferometerConfig(r1=0.25, r2=0.25, eta_h=0.8, eta_v=0.8, overlap=0.95)
        self.assert_matches_gaussian(cfg, (0.7,))

    def test_internal_loss_mismatch_asymmetric_matches_gaussian(self):
        # six modes: a, b, a', b' and one environment mode per sample mode
        cfg = InterferometerConfig(
            r1=0.2, r2=0.3, eta_internal=0.9, eta_h=0.85, eta_v=0.7, overlap=0.96, phase_offset=0.3
        )
        self.assert_matches_gaussian(cfg, (0.2, 1.0))

    def test_tracking_preset_matches_gaussian(self, tracking_cfg):
        self.assert_matches_gaussian(tracking_cfg, (0.58, 1.2))


class TestFockStateInvariants:
    def test_pure_norm_within_truncation_tail(self):
        cfg = InterferometerConfig(r1=0.4, r2=0.4)
        n_max = 14
        (vec,) = evolve_fock(cfg, [0.6], n_max)
        tail = truncation_error_bound(0.8, n_max)
        assert abs(norm(vec) - 1.0) <= 4 * tail

    def test_trace_preserved_by_loss(self):
        # internal loss moves photons into environment modes of the state;
        # external loss is a weight at detection and leaves the state alone
        cfg = InterferometerConfig(r1=0.4, r2=0.4)
        (pure,) = evolve_fock(cfg, [0.6], 14)
        (lossy,) = evolve_fock(cfg.with_updates(eta_internal=0.7), [0.6], 14)
        assert lossy.ndim == pure.ndim + 2
        assert abs(norm(lossy) - norm(pure)) < 1e-10
