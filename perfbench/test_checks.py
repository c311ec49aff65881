"""Self-test of the benchmark's checkers: each passes a correct table and
rejects a perturbed one. Needs only numpy; takes well under a second.

    python3 perfbench/test_checks.py        # or: python3 -m pytest perfbench
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np

import refcheck as R
import run

R_IDEAL = 0.59
GRID = np.linspace(0.0, math.pi, 361)
CASES = run.ORACLE_CASES


def ideal_fisher_table(r=R_IDEAL):
    f = R.ideal_fisher(r, GRID)
    n = R.photons_through_sample(r)
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(f / n / 2.0)
    return np.column_stack([GRID, f, np.full_like(GRID, n), f / n, np.full_like(GRID, 2.0), db])


def sweep_table(visibility=R.FIG3_VISIBILITY):
    p11 = 0.3 * (1.0 + visibility * np.cos(2.0 * GRID))
    p01 = p10 = np.full_like(GRID, 0.1)
    return np.column_stack([GRID, 1.0 - p01 - p10 - p11, p01, p10, p11])


def test_ideal_fisher_matches_p00_derivative():
    h = 1e-5
    phi = GRID[(np.abs(GRID - math.pi / 2) > 0.05) & (GRID > 0.05) & (GRID < math.pi - 0.05)]
    p = R.ideal_p00(R_IDEAL, phi)
    dp = (R.ideal_p00(R_IDEAL, phi + h) - R.ideal_p00(R_IDEAL, phi - h)) / (2 * h)
    assert np.allclose(R.ideal_fisher(R_IDEAL, phi), dp**2 / (p * (1 - p)), rtol=1e-6)
    assert math.isclose(R.ideal_fisher(R_IDEAL, math.pi / 2), R.fisher_max(R_IDEAL), rel_tol=1e-14)
    assert math.isclose(R.fisher_max(R_IDEAL), 8.6854, abs_tol=1e-4)


def test_fisher_from_curves_matches_closed_form():
    phi = np.linspace(0.0, math.pi, 2049)
    p00 = R.ideal_p00(R_IDEAL, phi)
    curves = np.column_stack([p00, 0 * p00, 0 * p00, 1 - p00])
    inner = (phi > 0.1) & (np.abs(phi - math.pi / 2) > 0.1) & (phi < math.pi - 0.1)
    assert np.allclose(R.fisher_from_curves(phi, curves)[inner], R.ideal_fisher(R_IDEAL, phi[inner]), rtol=1e-4)


def test_sweep_check():
    assert R.check_sweep(sweep_table()) == []
    assert R.check_sweep(sweep_table(0.95))
    asym = sweep_table()
    asym[10, 1] -= 1e-6
    asym[10, 4] += 1e-6
    assert R.check_sweep(asym)
    unnormalized = sweep_table()
    unnormalized[5, 2] += 1e-6
    assert R.check_sweep(unnormalized)


def test_fisher_rows_tell_the_fringe_zero_fault_apart():
    table = ideal_fisher_table()
    problems, bad = R.fisher_row_problems(table, R_IDEAL)
    assert problems == [] and not bad.any()
    zero = table.copy()
    zero[180, [1, 3, 5]] = [0.0, 0.0, -math.inf]
    problems, bad = R.fisher_row_problems(zero, R_IDEAL)
    assert len(problems) == 1 and R.at_fringe_zero(zero[bad, 0]).all()
    off = table.copy()
    off[90, 1] *= 1 + 1e-5
    problems, bad = R.fisher_row_problems(off, R_IDEAL)
    assert problems and not R.at_fringe_zero(off[bad, 0]).any()


def test_fisher_default_operation_verdict():
    peak = R.fisher_max(R_IDEAL) / R.photons_through_sample(R_IDEAL)
    stdout = f"max Fisher per photon: {peak:.4f} rad^-2 at phi = 1.5708\n"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)

        def verdict(table):
            np.savetxt(out / "fisher.csv", table, delimiter=",", fmt="%.12g",
                       header="phi,f,n,fpp,snl,db", comments="")
            return run.check_fisher_default(out, stdout)

        assert verdict(ideal_fisher_table()) == ([], False)
        assert run.check_fisher_default(out, stdout.replace(f"{peak:.4f}", "9.0000"))[0]
        zero = ideal_fisher_table()
        zero[180, [1, 3, 5]] = [0.0, 0.0, -math.inf]
        problems, fault = verdict(zero)
        assert problems and fault
        zero[90, 1] *= 1.01
        problems, fault = verdict(zero)
        assert problems and not fault


def test_fisher_bound_check():
    table = ideal_fisher_table()
    lossy = table.copy()
    lossy[:, 1] *= 0.5
    assert R.check_fisher_bound(lossy, R_IDEAL) == []
    over = lossy.copy()
    over[100, 1] = 1.01 * R.fisher_max(R_IDEAL)
    assert R.check_fisher_bound(over, R_IDEAL)


def fig3c_table():
    r = np.round(np.arange(0.11, 0.5901, 0.04), 4)
    n = np.array([R.photons_through_sample(x) for x in r])
    f = np.array([R.fisher_max(x) for x in r])
    return np.column_stack([r, n, f, f / n])


def test_fig3c_check():
    assert R.check_fig3c(fig3c_table()) == []
    off = fig3c_table()
    off[3, 2] *= 1 + 1e-4
    off[3, 3] = off[3, 2] / off[3, 1]
    assert R.check_fig3c(off)


def test_threshold_check():
    noon = np.array([[n, (1 / n) ** (1 / n), 2 * n] for n in range(1, 21)], dtype=float)
    closed = R.threshold_closed(0.78)
    assert math.isclose(closed, 0.09438204253, rel_tol=1e-9)
    assert R.check_thresholds(np.array([[0.78, closed, closed + 1e-5]]), noon) == []
    assert R.check_thresholds(np.array([[0.78, closed, closed + 2e-3]]), noon)
    bad_noon = noon.copy()
    bad_noon[4, 2] = 9.0
    assert R.check_thresholds(np.array([[0.78, closed, closed]]), bad_noon)


def test_validate_check():
    def brute(r_total, budget):
        n = 1
        while math.tanh(r_total) ** (2 * (n + 1)) > budget:
            n += 1
        return n

    rows = np.array([[r, eta, brute(2 * r, 1e-8), 1e-15] for r, eta in CASES])
    assert [R.fock_cutoff(2 * r, 1e-8) for r, _ in CASES] == [14, 14, 48, 48]
    assert R.check_validate(rows, CASES, 1e-8, 1e-6) == []
    deviating = rows.copy()
    deviating[3, 3] = 2e-6
    assert R.check_validate(deviating, CASES, 1e-8, 1e-6)
    cut = rows.copy()
    cut[2, 2] = 40
    assert R.check_validate(cut, CASES, 1e-8, 1e-6)
    assert R.check_validate(rows[:3], CASES, 1e-8, 1e-6)


def test_calibration_check():
    truth = {"r1": 0.43, "r2": 0.43, "eta_h": 0.75, "eta_v": 0.75, "overlap": 0.986, "phase_offset": 0.0}
    fit = dict(truth, r1=0.448, r2=0.412)
    assert R.check_calibration(fit, truth, False) == []
    assert R.check_calibration(fit, truth, True)
    assert R.check_calibration(dict(fit, eta_h=0.78), truth, False)
    assert R.check_calibration(dict(fit, r2=0.43), truth, False) == []  # mean r off by 0.009
    assert R.check_calibration(dict(fit, r2=0.44), truth, False)  # mean r off by 0.014 fails


def test_tracking_and_bootstrap_checks():
    rng = np.random.default_rng(0)
    phases = np.repeat([0.5, 0.9], 200)
    crlb = {0.5: 4e-4, 0.9: 2.5e-4}
    sd = np.array([crlb[p] for p in phases])
    est = phases + sd * rng.standard_normal(phases.size)
    assert R.check_tracking(phases, est, crlb) == []
    assert R.check_tracking(phases, est + 5 * sd, crlb)  # biased
    assert R.check_tracking(phases, phases + (est - phases) * 2, crlb)  # twice the bound
    assert R.check_tracking(phases, np.where(phases == 0.5, np.nan, est), crlb)
    std = {0.5: 4e-4}
    assert R.check_bootstrap([(0.5, 4.4e-4)], std) == []
    assert R.check_bootstrap([(0.5, 6e-4)], std)


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for fn in tests:
        fn()
    print(f"{len(tests)} checker self-tests passed")
