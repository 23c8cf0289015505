from __future__ import annotations

import numpy as np
import pytest

from vanvleck import (
    MidpointOffPath,
    action_hessian_jacobi,
    free_particle,
    fresnel_det_inv_sqrt,
    fresnel_prefactor,
    harmonic_oscillator,
    magnetic_field,
    solve_bvp,
    state_at,
    verify_composition,
    verify_jacobian_identity,
)

from conftest import make_quartic


def _split(model, x_a, x_b, t_a, t_b, t_mid, n_steps=1000):
    full = solve_bvp(model, x_a, x_b, t_a, t_b, n_steps=n_steps)
    x_mid, v_mid = state_at(full, t_mid)
    left = solve_bvp(model, x_a, x_mid, t_a, t_mid,
                     v0_guess=full.v_a, n_steps=n_steps)
    right = solve_bvp(model, x_mid, x_b, t_mid, t_b,
                      v0_guess=v_mid, n_steps=n_steps)
    return full, left, right


def test_free_particle_composition_exact():
    model = free_particle(mass=1.0, dim=1)
    report = verify_composition(
        solve_bvp(model, [0.0], [1.0], 0.0, 2.0), 1.0)
    # dd(A_L + A_R)/dx^2 = 4 M / T = 2 at the junction
    assert report.diagnostic["junction_determinant"] == pytest.approx(2.0,
                                                                      abs=1e-9)
    assert report.factor_residual < 1e-12
    assert report.momentum_mismatch < 1e-10
    assert report.action_additivity_residual < 1e-12
    assert report.jacobian_identity_residual < 1e-12
    assert report.passed


def test_harmonic_composition_tight():
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    report = verify_composition(
        solve_bvp(model, [0.0], [1.0], 0.0, 1.0), 0.3)
    assert report.factor_residual <= 1e-8
    assert report.passed


def test_quartic_composition(quartic):
    report = verify_composition(
        solve_bvp(quartic, [0.0], [1.0], 0.0, 0.5), 0.2)
    assert report.factor_residual <= 1e-6
    assert report.momentum_mismatch <= 1e-8
    assert report.passed


def test_momentum_matching_free():
    model = free_particle(mass=1.0, dim=1)
    report = verify_composition(
        solve_bvp(model, [0.0], [1.0], 0.0, 2.0, n_steps=200), 0.7)
    assert report.momentum_mismatch < 1e-10


def test_momentum_matching_harmonic():
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    report = verify_composition(solve_bvp(model, [0.0], [1.0], 0.0, 1.0), 0.5)
    assert report.momentum_mismatch <= 1e-8


def test_momentum_mismatch_negative_control():
    # junction displaced off the saddle: mismatch responds linearly
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    report = verify_composition(solve_bvp(model, [0.0], [1.0], 0.0, 1.0), 0.5,
                                midpoint_offset=[1e-2])
    assert report.momentum_mismatch > 1e-4


def test_action_additivity_check_raises_when_off():
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    report = verify_composition(solve_bvp(model, [0.0], [1.0], 0.0, 1.0), 0.5,
                                midpoint_offset=[5e-2])
    assert (report.action_additivity_residual
            > report.thresholds["action_additivity_residual"])
    assert not report.passed


def test_jacobian_identity_free_exact():
    model = free_particle(mass=1.0, dim=1)
    full, left, right = _split(model, [0.0], [1.0], 0.0, 2.0, 1.0,
                               n_steps=200)
    res = verify_jacobian_identity(action_hessian_jacobi(full),
                                   action_hessian_jacobi(left),
                                   action_hessian_jacobi(right))
    assert res < 1e-12


def test_jacobian_identity_harmonic():
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    full, left, right = _split(model, [0.0], [1.0], 0.0, 1.0, 0.4)
    res = verify_jacobian_identity(action_hessian_jacobi(full),
                                   action_hessian_jacobi(left),
                                   action_hessian_jacobi(right))
    assert res <= 1e-9


def test_jacobian_identity_magnetic():
    model = magnetic_field(mass=1.0, omega=1.0, dim=2)
    full, left, right = _split(model, [0.0, 0.0], [1.0, 0.5], 0.0, 1.0, 0.5)
    res = verify_jacobian_identity(action_hessian_jacobi(full),
                                   action_hessian_jacobi(left),
                                   action_hessian_jacobi(right))
    assert res <= 1e-7


def test_saddle_sits_on_through_trajectory(quartic):
    # A_L(x) + A_R(x) is stationary at the through-path junction point
    t_mid, t_tot = 0.2, 0.5
    full = solve_bvp(quartic, [0.0], [1.0], 0.0, t_tot)
    x_mid, v_mid = state_at(full, t_mid)

    def summed(x):
        left = solve_bvp(quartic, [0.0], [x], 0.0, t_mid,
                         v0_guess=full.v_a)
        right = solve_bvp(quartic, [x], [1.0], t_mid, t_tot, v0_guess=v_mid)
        return left.action + right.action

    h = 1e-4
    slope = (summed(x_mid[0] + h) - summed(x_mid[0] - h)) / (2 * h)
    curve = (summed(x_mid[0] + h) - 2 * summed(x_mid[0])
             + summed(x_mid[0] - h)) / h ** 2
    # quadratic fit: stationary point displaced from x_mid by well under tol
    assert abs(slope / curve) < 1e-7


def test_mid_time_sweep_invariance(quartic):
    full = solve_bvp(quartic, [0.0], [1.0], 0.0, 0.5, n_steps=600)
    for t_mid in (0.05, 0.15, 0.25, 0.35, 0.45):
        report = verify_composition(full, t_mid)
        assert report.factor_residual <= 1e-6, t_mid


def test_off_path_junction_raises(quartic):
    # grid too coarse: the interpolated junction leaves the true trajectory
    with pytest.raises(MidpointOffPath):
        verify_composition(
            solve_bvp(quartic, [0.0], [1.0], 0.0, 0.5, n_steps=8), 0.2)


def test_midpoint_offset_is_diagnostic_negative_control(quartic):
    report = verify_composition(solve_bvp(quartic, [0.0], [1.0], 0.0, 0.5),
                                0.2, midpoint_offset=np.array([0.05]))
    assert report.diagnostic["midpoint_offset_applied"]
    assert report.momentum_mismatch > 1e-4
    assert not report.passed


def _mode_mixed_and_diag(tau, mass, omega):
    # -d2A/dx_a dx_b and d2A/dx_a^2 of one mode over a signed duration tau
    if omega == 0.0:
        return mass / tau, mass / tau
    s = np.sin(omega * tau)
    return mass * omega / s, mass * omega * np.cos(omega * tau) / s


def _mode_factor(tau, masses, omegas, hbar):
    value = fresnel_prefactor(len(omegas), hbar)
    for mass, omega in zip(masses, omegas):
        z, _ = _mode_mixed_and_diag(tau, mass, omega)
        value *= 1j * np.sqrt(-z) if z < 0.0 else np.sqrt(z)
    return value


def acausal_identity_residual(mass, omegas, t_a, t_b, t_mid, hbar=1.0):
    """Closed-form splitting residual of decoupled quadratic modes with
    the junction time outside the interval (frequency 0 means free).

    With t_mid > t_b the right leg runs backward in time; under principal
    roots each backward leg carries an extra factor i per mode, and
    ``fresnel_det_inv_sqrt``'s -i per negative junction eigenvalue must
    cancel it for the recombination identity to close.
    """
    masses = np.full(len(omegas), float(mass))
    legs = (t_b - t_a, t_mid - t_a, t_b - t_mid)
    f_full, f_left, f_right = (_mode_factor(tau, masses, omegas, hbar)
                               for tau in legs)
    junction = np.diag([_mode_mixed_and_diag(legs[1], m, w)[1]
                        + _mode_mixed_and_diag(legs[2], m, w)[1]
                        for m, w in zip(masses, omegas)])
    rhs = (f_left * f_right / fresnel_prefactor(len(omegas), hbar)
           * fresnel_det_inv_sqrt(junction))
    return abs(rhs - f_full) / abs(f_full)


def test_acausal_identity_free_and_harmonic():
    assert acausal_identity_residual(1.0, [0.0], 0.0, 0.1, 0.6) < 1e-12
    assert acausal_identity_residual(1.0, [1.3], 0.0, 0.1, 0.6) < 1e-12


def test_acausal_identity_multimode():
    # three modes, junction far beyond the shrunk forward interval
    res = acausal_identity_residual(2.0, [0.0, 1.0, 1.7], 0.0, 0.05, 0.9)
    assert res < 1e-6
