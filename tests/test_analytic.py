from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from vanvleck import (
    FocalPoint,
    NonSPDMass,
    TurningPoint,
    free_particle,
    free_particle_factor,
    gy_fluctuation_factor,
    harmonic_constant_factor,
    harmonic_oscillator,
    magnetic_factor,
    magnetic_field,
    magnetic_orbit_center,
    one_dim_dalembert_factor,
    solve_B_direct,
    solve_bvp,
    action_hessian_jacobi,
    vvpm_factor,
)

from conftest import make_quartic, random_spd


def test_free_factor_scalar():
    res = free_particle_factor(1.0, 1.0, dim=1)
    assert abs(res.factor.value) == pytest.approx(0.3989422804014327,
                                                  abs=1e-15)
    assert np.angle(res.factor.value) == pytest.approx(-np.pi / 4, abs=1e-15)


def test_free_factor_matrix_mass():
    res = free_particle_factor(np.diag([1.0, 4.0]), 2.0)
    assert abs(res.factor.value) == pytest.approx(2.0 / (4 * np.pi), rel=1e-14)


def test_free_energy_hessian_in_aux():
    res = free_particle_factor(np.diag([1.0, 4.0]), 2.0)
    np.testing.assert_allclose(res.aux["energy_hessian"],
                               np.diag([0.25, 1.0]), atol=1e-14)


def test_free_action_closed_form():
    res = free_particle_factor(2.0, 4.0, dim=1, x_a=[0.0], x_b=[2.0])
    # A = M dx^2 / (2T)
    assert res.action == pytest.approx(1.0, abs=1e-14)


def test_free_rejects_non_spd_mass():
    with pytest.raises(NonSPDMass):
        free_particle_factor(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)


def test_harmonic_quarter_period_magnitude():
    res = harmonic_constant_factor(1.0, 1.0, np.pi / 2, dim=1)
    assert abs(res.factor.value) == pytest.approx(0.3989422804014327,
                                                  rel=1e-12)


def test_harmonic_small_frequency_limit():
    lo = harmonic_constant_factor(1.0, 1e-10, 2.0, dim=1)
    free = free_particle_factor(1.0, 2.0, dim=1)
    rel = abs(lo.factor.value - free.factor.value) / abs(free.factor.value)
    assert rel < 1e-10


def test_harmonic_two_modes_match_direct_solver():
    m = np.diag([1.0, 2.0])
    stiffness = np.diag([1.0, 8.0])  # omega_i = 1, 2
    omega2 = np.linalg.solve(m, stiffness)
    res = harmonic_constant_factor(m, omega2, 0.5)
    sol = solve_B_direct(omega2, 0.0, 0.5, n_steps=3000)
    gy = gy_fluctuation_factor(sol, mass_metric=m)
    assert abs(res.factor.value - gy.value) / abs(gy.value) < 1e-9
    np.testing.assert_allclose(sorted(res.aux["normal_mode_frequencies"]),
                               [1.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_harmonic_matrix_mass_modes_match_generalized_eigh(dim):
    rng = np.random.default_rng(40 + dim)
    for _ in range(20):
        m = random_spd(rng, dim)
        stiffness = random_spd(rng, dim)
        ref_w2 = scipy.linalg.eigh(stiffness, m, eigvals_only=True)
        omega2 = np.linalg.solve(m, stiffness)
        duration = 0.5 * np.pi / np.sqrt(ref_w2.max())
        res = harmonic_constant_factor(m, omega2, duration)
        np.testing.assert_allclose(res.aux["normal_mode_frequencies"],
                                   np.sqrt(ref_w2), rtol=1e-13)
        modes = res.aux["mode_matrix"]
        np.testing.assert_allclose(modes.T @ m @ modes, np.eye(dim),
                                   atol=1e-13)


def test_harmonic_focal_point():
    with pytest.raises(FocalPoint):
        harmonic_constant_factor(1.0, 1.0, np.pi, dim=1)


def test_harmonic_action_matches_bvp():
    w, t_tot = 1.3, 1.2
    model = harmonic_oscillator(mass=1.0, omega2=w * w, dim=1)
    path = solve_bvp(model, [0.4], [-0.2], 0.0, t_tot)
    res = harmonic_constant_factor(1.0, w * w, t_tot, dim=1,
                                   x_a=[0.4], x_b=[-0.2])
    assert res.action == pytest.approx(path.action, abs=1e-9)


def test_magnetic_multiplier():
    res = magnetic_factor(1.0, np.pi / 2, 2, 1.0)
    free = free_particle_factor(1.0, 1.0, dim=2)
    ratio = abs(res.factor.value) / abs(free.factor.value)
    assert ratio == pytest.approx(1.1107207345395915, rel=1e-12)


def test_magnetic_zero_frequency_reduces_to_free():
    res = magnetic_factor(1.0, 1e-9, 3, 2.0)
    free = free_particle_factor(1.0, 2.0, dim=3)
    rel = abs(res.factor.value - free.factor.value) / abs(free.factor.value)
    assert rel < 1e-10


def test_magnetic_focal_point():
    with pytest.raises(FocalPoint):
        magnetic_factor(1.0, 2 * np.pi, 2, 1.0)


def test_magnetic_energy_hessian_blocks():
    res = magnetic_factor(2.0, 1.0, 3, 1.5)
    half = 0.75
    inplane = 2.0 * 1.0 / (4 * np.sin(half) ** 2)
    expected = np.diag([inplane, inplane, 2.0 / 1.5 ** 2])
    np.testing.assert_allclose(res.aux["energy_hessian"], expected,
                               atol=1e-12)


def test_orbit_center_consistent_with_trajectory():
    # chord (0,0)->(1,0) over an eighth of a turn; motion turns left
    center = magnetic_orbit_center([0.0, 0.0], [1.0, 0.0], 1.0, np.pi / 2)
    np.testing.assert_allclose(center, [0.5, 0.5], atol=1e-14)
    model = magnetic_field(mass=1.0, omega=1.0, dim=2)
    path = solve_bvp(model, [0.0, 0.0], [1.0, 0.0], 0.0, np.pi / 2)
    radii = np.linalg.norm(path.positions - center, axis=1)
    np.testing.assert_allclose(radii, radii[0], atol=1e-9)


def test_magnetic_action_matches_bvp():
    model = magnetic_field(mass=1.0, omega=1.0, dim=2)
    path = solve_bvp(model, [0.0, 0.0], [1.0, 0.5], 0.0, 1.0)
    res = magnetic_factor(1.0, 1.0, 2, 1.0, x_a=[0.0, 0.0], x_b=[1.0, 0.5])
    assert res.action == pytest.approx(path.action, abs=1e-10)


def test_magnetic_matches_vvpm():
    model = magnetic_field(mass=1.0, omega=1.0, dim=2)
    path = solve_bvp(model, [0.0, 0.0], [1.0, 0.5], 0.0, 1.0)
    vv = vvpm_factor(action_hessian_jacobi(path))
    res = magnetic_factor(1.0, 1.0, 2, 1.0)
    assert abs(res.factor.value - vv.value) / abs(vv.value) < 1e-9


def test_dalembert_free_particle():
    model = free_particle(mass=1.0, dim=1)
    path = solve_bvp(model, [0.0], [1.0], 0.0, 2.0, n_steps=200)
    res = one_dim_dalembert_factor(path)
    assert abs(res.factor.value) == pytest.approx(1.0 / np.sqrt(4 * np.pi),
                                                  rel=1e-10)


def test_dalembert_harmonic_arc():
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    path = solve_bvp(model, [0.0], [1.0], 0.0, np.pi / 4)
    res = one_dim_dalembert_factor(path)
    vv = vvpm_factor(action_hessian_jacobi(path))
    assert abs(res.factor.value - vv.value) / abs(vv.value) < 1e-7


def test_dalembert_keeps_the_mass():
    model = harmonic_oscillator(mass=2.0, omega2=1.0, dim=1)
    path = solve_bvp(model, [0.0], [1.0], 0.0, np.pi / 4)
    res = one_dim_dalembert_factor(path)
    exact = harmonic_constant_factor(2.0, 1.0, np.pi / 4).factor
    assert abs(res.factor.value - exact.value) / abs(exact.value) < 1e-7


def test_dalembert_quartic(quartic):
    path = solve_bvp(quartic, [0.0], [1.0], 0.0, 0.3)
    res = one_dim_dalembert_factor(path)
    vv = vvpm_factor(action_hessian_jacobi(path))
    assert abs(res.factor.value - vv.value) / abs(vv.value) < 1e-6


def test_dalembert_turning_point():
    # velocity crosses zero at the top of the arc
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    path = solve_bvp(model, [0.5], [0.5], 0.0, 2.0)
    with pytest.raises(TurningPoint):
        one_dim_dalembert_factor(path)
