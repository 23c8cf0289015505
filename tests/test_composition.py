from __future__ import annotations

import numpy as np
import pytest

from vanvleck import (
    ActionHessian,
    action_hessian_jacobi,
    compose,
    free_particle,
    fresnel_prefactor,
    harmonic_oscillator,
    magnetic_field,
    solve_bvp,
    state_at,
    verify_composition,
    vvpm_factor,
)

from conftest import make_quartic


def _split(model, x_a, x_b, t_a, t_b, t_mid, n_steps=1000, offset=0.0):
    """Through path and its two halves, re-solved through the point the
    through path passes at t_mid, displaced by ``offset``."""
    full = solve_bvp(model, x_a, x_b, t_a, t_b, n_steps=n_steps)
    x_mid, v_mid = state_at(full, t_mid)
    x_mid = x_mid + offset
    left = solve_bvp(model, x_a, x_mid, t_a, t_mid,
                     v0_guess=full.v_a, n_steps=n_steps)
    right = solve_bvp(model, x_mid, x_b, t_mid, t_b,
                      v0_guess=v_mid, n_steps=n_steps)
    return full, left, right


def _compose_residuals(full, left, right):
    """Relative distance of the joined mixed block and factor from the
    through path's Jacobi block and VVPM factor."""
    hbar = full.model.hbar
    h_full, h_left, h_right = (action_hessian_jacobi(p)
                               for p in (full, left, right))
    mixed, value = compose(h_left, h_right, vvpm_factor(h_left, hbar).value,
                           vvpm_factor(h_right, hbar).value, hbar)
    through = vvpm_factor(h_full, hbar).value
    return (np.linalg.norm(mixed - h_full.mixed) / np.linalg.norm(h_full.mixed),
            abs(value - through) / abs(through))


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
    _, left, right = _split(model, [0.0], [1.0], 0.0, 1.0, 0.5, offset=1e-2)
    assert np.max(np.abs(left.p_b - right.p_a)) > 1e-4


def test_action_additivity_check_raises_when_off():
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    full, left, right = _split(model, [0.0], [1.0], 0.0, 1.0, 0.5,
                               offset=5e-2)
    # verify_composition's default tol = 1e-6, relative to 1 + |A|
    assert (abs(left.action + right.action - full.action)
            > 1e-6 * (1.0 + abs(full.action)))


def test_jacobian_identity_free_exact():
    model = free_particle(mass=1.0, dim=1)
    full, left, right = _split(model, [0.0], [1.0], 0.0, 2.0, 1.0,
                               n_steps=200)
    assert max(_compose_residuals(full, left, right)) < 1e-12


def test_jacobian_identity_harmonic():
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    full, left, right = _split(model, [0.0], [1.0], 0.0, 1.0, 0.4)
    assert max(_compose_residuals(full, left, right)) <= 1e-9


def test_jacobian_identity_magnetic():
    model = magnetic_field(mass=1.0, omega=1.0, dim=2)
    full, left, right = _split(model, [0.0, 0.0], [1.0, 0.5], 0.0, 1.0, 0.5)
    assert max(_compose_residuals(full, left, right)) <= 1e-7


@pytest.mark.parametrize("model, x_a, x_b", [
    (free_particle(mass=[[2.0, 0.3], [0.3, 1.0]]), [0.0, 0.1], [1.0, -0.4]),
    (harmonic_oscillator(mass=[[2.0, 0.3], [0.3, 1.0]],
                         stiffness=[[1.0, 0.2], [0.2, 3.0]]),
     [0.1, -0.2], [0.7, 0.4]),
    (magnetic_field(mass=1.2, omega=1.5, dim=2), [0.0, 0.0], [1.0, 0.5]),
    (magnetic_field(mass=0.8, omega=-0.9, dim=3), [0.0, 0.0, 0.1],
     [1.0, 0.5, -0.2]),
], ids=["free-2", "oscillator-2", "magnetic-2", "magnetic-3"])
def test_compose_joins_to_the_through_path(model, x_a, x_b):
    # the magnetic mixed blocks are not symmetric, so the order of the
    # product mixed_L J^-1 mixed_R matters
    full, left, right = _split(model, x_a, x_b, 0.0, 1.3, 0.45)
    mixed = action_hessian_jacobi(full).mixed
    assert np.allclose(mixed, mixed.T) == ("magnetic" not in model.label)
    mixed_residual, factor_residual = _compose_residuals(full, left, right)
    assert mixed_residual < 1e-11 and factor_residual < 1e-11


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


def test_off_path_junction_fails_its_split(quartic):
    # grid too coarse: the interpolated junction leaves the true trajectory,
    # so the re-solved halves meet it with a kink
    report = verify_composition(
        solve_bvp(quartic, [0.0], [1.0], 0.0, 0.5, n_steps=8), 0.2)
    assert (report.momentum_mismatch
            > report.thresholds["momentum_mismatch"])
    assert not report.passed


def test_midpoint_offset_is_diagnostic_negative_control(quartic):
    # a kinked junction fails both the momentum match and the factor
    full, left, right = _split(quartic, [0.0], [1.0], 0.0, 0.5, 0.2,
                               offset=0.05)
    assert np.max(np.abs(left.p_b - right.p_a)) > 1e-4
    # verify_composition's default factor tol
    assert _compose_residuals(full, left, right)[1] > 1e-6


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


def _mode_hessian(tau, masses, omegas):
    mixed, diag = np.array([_mode_mixed_and_diag(tau, m, w)
                            for m, w in zip(masses, omegas)]).T
    return ActionHessian(mixed=np.diag(mixed), aa=np.diag(diag),
                         bb=np.diag(diag))


def acausal_identity_residual(mass, omegas, t_a, t_b, t_mid, hbar=1.0):
    """Closed-form splitting residual of decoupled quadratic modes with
    the junction time outside the interval (frequency 0 means free).

    With t_mid > t_b the right leg runs backward in time; under principal
    roots each backward leg carries an extra factor i per mode, and
    ``compose``'s -i per negative junction eigenvalue must cancel it for
    the recombination identity to close.  The larger of the factor and
    mixed-block residuals is returned.
    """
    masses = np.full(len(omegas), float(mass))
    legs = (t_b - t_a, t_mid - t_a, t_b - t_mid)
    f_full, f_left, f_right = (_mode_factor(tau, masses, omegas, hbar)
                               for tau in legs)
    h_full, h_left, h_right = (_mode_hessian(tau, masses, omegas)
                               for tau in legs)
    mixed, rhs = compose(h_left, h_right, f_left, f_right, hbar)
    return max(abs(rhs - f_full) / abs(f_full),
               np.linalg.norm(mixed - h_full.mixed)
               / np.linalg.norm(h_full.mixed))


def test_acausal_identity_free_and_harmonic():
    assert acausal_identity_residual(1.0, [0.0], 0.0, 0.1, 0.6) < 1e-12
    assert acausal_identity_residual(1.0, [1.3], 0.0, 0.1, 0.6) < 1e-12


def test_acausal_identity_multimode():
    # three modes, junction far beyond the shrunk forward interval
    res = acausal_identity_residual(2.0, [0.0, 1.0, 1.7], 0.0, 0.05, 0.9)
    assert res < 1e-6
