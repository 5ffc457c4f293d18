"""Acceptance gate: one test per verification criterion, at full depth.

Each test runs the corresponding built-in check against the shared reference
context (alpha = 0.6, gamma = 0.5, d = 2, q = 3 on a 64-point box of length
40, whose ground state is localized) and prints a single pass/fail line with
the measured numbers.  The tolerances live inside the checks themselves; a
failure message carries the check's own diagnostic detail.
"""

from fhnlse.verify import (
    check_conservation,
    check_euler_lagrange,
    check_gradient_pairing,
    check_groundstate_convergence,
    check_hartree_oracle,
    check_radial_symmetry,
    check_rearrangement_suite,
    check_reproducibility,
    check_scaling_slope,
    check_stability_sweep,
    check_standing_wave,
    check_subadditivity,
)


def _gate(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_01_hartree_oracle_equivalence(verify_ctx):
    _gate(check_hartree_oracle(verify_ctx, "full"))


def test_criterion_02_gradient_pairing(verify_ctx):
    _gate(check_gradient_pairing(verify_ctx, "full"))


def test_criterion_03_groundstate_convergence(verify_ctx):
    _gate(check_groundstate_convergence(verify_ctx))


def test_criterion_04_euler_lagrange_residual(verify_ctx):
    _gate(check_euler_lagrange(verify_ctx))


def test_criterion_05_radial_symmetry(verify_ctx):
    _gate(check_radial_symmetry(verify_ctx))


def test_criterion_06_mass_scaling_slope(verify_ctx):
    _gate(check_scaling_slope(verify_ctx))


def test_criterion_07_subadditivity(verify_ctx):
    _gate(check_subadditivity(verify_ctx))


def test_criterion_08_rearrangement_suite(verify_ctx):
    _gate(check_rearrangement_suite(verify_ctx, "full"))


def test_criterion_09_conservation(verify_ctx):
    _gate(check_conservation(verify_ctx, "full"))


def test_criterion_10_standing_wave_orbit(verify_ctx):
    _gate(check_standing_wave(verify_ctx))


def test_criterion_11_stability_sweep(verify_ctx):
    _gate(check_stability_sweep(verify_ctx))


def test_criterion_12_reproducibility(verify_ctx):
    _gate(check_reproducibility(verify_ctx))
