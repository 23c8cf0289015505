from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from vanvleck import (
    ConjugatePoint,
    LagrangianModel,
    NonConstantMetric,
    VectorPotentialPresent,
    action_hessian_jacobi,
    free_particle,
    free_particle_factor,
    frequency_matrix_along_path,
    harmonic_oscillator,
    magnetic_factor,
    magnetic_field,
    solve_bvp,
    state_at,
    vvpm_factor,
)
from vanvleck import hessian as hessian_module
from vanvleck.cli import build_model
from vanvleck.dynamics import _affine_sampler
from vanvleck.gelfand_yaglom import (_collocation, gy_fluctuation_factor,
                                     solve_B_direct)
from vanvleck.models import _constant, metric_solve, stacked

import conftest
from conftest import (AFFINE_CASES, AFFINE_IDS, action_hessian_fd,
                      make_curled_metric, make_polar_free_particle)


def test_free_particle_mixed_block_matrix_mass():
    model = free_particle(mass=np.diag([1.0, 2.0]))
    path = solve_bvp(model, [0.0, 0.0], [1.0, -1.0], 0.0, 2.0, n_steps=200)
    hess = action_hessian_jacobi(path)
    np.testing.assert_allclose(hess.mixed, np.diag([0.5, 1.0]), atol=1e-12)
    np.testing.assert_allclose(hess.aa, np.diag([0.5, 1.0]), atol=1e-12)
    np.testing.assert_allclose(hess.bb, np.diag([0.5, 1.0]), atol=1e-12)


def test_harmonic_mixed_block_quarter_period():
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    path = solve_bvp(model, [0.0], [1.0], 0.0, np.pi / 2)
    hess = action_hessian_jacobi(path)
    # M w / sin(wT) with wT = pi/2
    assert hess.mixed[0, 0] == pytest.approx(1.0, abs=1e-7)


def test_fd_free_particle_unit_values():
    # coarse exact grid: the stencil divides by 4h^2, so accumulated
    # trajectory roundoff at n_steps=1000 would sit right at 1e-8
    model = free_particle(mass=1.0, dim=1)
    hess = action_hessian_fd(
        solve_bvp(model, [0.0], [1.0], 0.0, 1.0, n_steps=64))
    assert hess.mixed[0, 0] == pytest.approx(1.0, abs=1e-8)


def test_fd_harmonic_closed_form():
    model = harmonic_oscillator(mass=1.0, omega2=4.0, dim=1)
    hess = action_hessian_fd(solve_bvp(model, [0.1], [0.8], 0.0, 0.3))
    assert hess.mixed[0, 0] == pytest.approx(2.0 / np.sin(0.6), abs=1e-5)


def test_jacobi_matches_fd_quartic(quartic):
    path = solve_bvp(quartic, [0.0], [1.0], 0.0, 0.5)
    jac = action_hessian_jacobi(path)
    fd = action_hessian_fd(path)
    for name in ("mixed", "aa", "bb"):
        a, b = getattr(jac, name), getattr(fd, name)
        assert np.max(np.abs(a - b)) <= 1e-5 * max(1.0, np.max(np.abs(b))), name


def test_magnetic_blocks_match_closed_form_and_fd(monkeypatch):
    model = magnetic_field(mass=1.0, omega=1.0, dim=2)
    path = solve_bvp(model, [0.0, 0.0], [1.0, 0.5], 0.0, 1.0, n_steps=400)
    jac = action_hessian_jacobi(path)
    aux = magnetic_factor(1.0, 1.0, 2, 1.0).aux
    for name in ("mixed", "aa", "bb"):
        np.testing.assert_allclose(getattr(jac, name), aux[name], atol=1e-9,
                                   err_msg=name)
    # off-diagonal part of mixed is antisymmetric for the in-plane block
    off = jac.mixed - np.diag(np.diag(jac.mixed))
    np.testing.assert_allclose(off, -off.T, atol=1e-10)
    solves = []

    def counted_solve(*args, **kwargs):
        solves.append(args)
        return solve_bvp(*args, **kwargs)

    monkeypatch.setattr(conftest, "solve_bvp", counted_solve)
    fd = action_hessian_fd(path)
    assert len(solves) == 8 * 2**2 + 1
    # aa and bb carry off-diagonal +-skew entries from the stacked stencil
    for name in ("mixed", "aa", "bb"):
        np.testing.assert_allclose(getattr(fd, name), getattr(jac, name),
                                   atol=1e-5, err_msg=name)


def test_curled_metric_blocks_match_fd():
    # the second derivatives of g and a enter only jx, which
    # action_hessian_fd never reads: it re-solves boundary problems
    path = solve_bvp(make_curled_metric(), [0.2, -0.1], [0.9, 0.4], 0.0, 0.7,
                     n_steps=64)
    jac = action_hessian_jacobi(path)
    fd = action_hessian_fd(path)
    for name in ("mixed", "aa", "bb"):
        np.testing.assert_allclose(getattr(fd, name), getattr(jac, name),
                                   atol=1e-5, err_msg=name)


def test_gauge_shift_moves_only_the_same_endpoint_blocks():
    # a' = a + grad chi with chi = x0^2 x1 + x1^3 / 3 keeps the motion and
    # adds chi(x_b) - chi(x_a) to the action: mixed and F stay the uniform
    # field's, aa loses Hess chi(x_a) and bb gains Hess chi(x_b)
    mass, omega, duration = 1.0, 1.0, 1.0
    base = magnetic_field(mass=mass, omega=omega, dim=2)

    def grad_chi(x):
        return np.array([2.0 * x[0] * x[1], x[0] ** 2 + x[1] ** 2])

    def hess_chi(x):
        return 2.0 * np.array([[x[1], x[0]], [x[0], x[1]]])

    model = LagrangianModel(
        dim=2, metric=base.metric, metric_grad=base.metric_grad,
        vector_potential=lambda x, t: base.vector_potential(x, t) + grad_chi(x),
        vector_potential_grad=lambda x, t: (base.vector_potential_grad(x, t)
                                            + hess_chi(x)),
        potential=base.potential, potential_grad=base.potential_grad,
        potential_hess=base.potential_hess, kinetic_gradients_constant=False,
        label="gauge_shifted_magnetic_field")
    x_a, x_b = np.array([0.3, -0.2]), np.array([1.0, 0.5])
    path = solve_bvp(model, x_a, x_b, 0.0, duration, n_steps=400)
    jac = action_hessian_jacobi(path)
    closed = magnetic_factor(mass, omega, 2, duration)
    np.testing.assert_allclose(jac.mixed, closed.aux["mixed"], atol=1e-8)
    np.testing.assert_allclose(jac.aa, closed.aux["aa"] - hess_chi(x_a),
                               atol=1e-8)
    np.testing.assert_allclose(jac.bb, closed.aux["bb"] + hess_chi(x_b),
                               atol=1e-8)
    value = vvpm_factor(jac).value
    assert abs(value - closed.factor.value) / abs(closed.factor.value) < 1e-8


def test_same_endpoint_blocks_symmetric(quartic):
    path = solve_bvp(quartic, [-0.3], [0.9], 0.0, 0.6)
    hess = action_hessian_jacobi(path)
    assert abs(hess.aa - hess.aa.T).max() < 1e-8
    assert abs(hess.bb - hess.bb.T).max() < 1e-8


def test_conjugate_point_detection():
    # resting path exists at any T, but dx_b/dv_a = sin(T) crosses zero
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    path = solve_bvp(model, [0.0], [0.0], 0.0, np.pi - 1e-13)
    with pytest.raises(ConjugatePoint):
        action_hessian_jacobi(path)


def test_frequency_matrix_examples(quartic):
    ho = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    path = solve_bvp(ho, [0.0], [1.0], 0.0, 1.0)
    for t in (0.0, 0.37, 1.0):
        assert frequency_matrix_along_path(path)(t)[0, 0] == pytest.approx(1.0)

    free = free_particle(mass=2.0, dim=1)
    fpath = solve_bvp(free, [0.0], [1.0], 0.0, 1.0)
    assert frequency_matrix_along_path(fpath)(0.5)[0, 0] == pytest.approx(0.0)

    qpath = solve_bvp(quartic, [0.0], [1.0], 0.0, 0.5)
    t_probe = 0.31
    x_probe, _ = state_at(qpath, t_probe)
    val = frequency_matrix_along_path(qpath)(t_probe)[0, 0]
    assert val == pytest.approx(3.0 * x_probe[0] ** 2, abs=1e-10)


def _interpolated_frequency(path, t):
    """Reference Omega^2(t): g^-1 Hess V by a metric solve at the path's
    interpolated point."""
    x, _ = state_at(path, t)
    return metric_solve(path.model, x, t,
                        np.asarray(path.model.potential_hess(x, t), float))


FREQUENCY_IDS = [name for name in AFFINE_IDS if name != "magnetic-3"]


@pytest.mark.parametrize(
    "model, x_a, x_b, t_b",
    [AFFINE_CASES[AFFINE_IDS.index(name)] for name in FREQUENCY_IDS],
    ids=FREQUENCY_IDS)
def test_affine_frequency_reads_no_state(monkeypatch, model, x_a, x_b, t_b):
    # times the Gelfand-Yaglom solvers sample: RK4 grid points and
    # midpoints (DirectODE) and Gauss-Legendre nodes (NeumannSeries)
    path = solve_bvp(model, x_a, x_b, 0.0, t_b)
    h = t_b / path.n_steps
    times = np.concatenate((path.times, path.times[:-1] + 0.5 * h,
                            _collocation(0.0, t_b, 64)[0]))
    reference = np.array([_interpolated_frequency(path, t) for t in times])
    d = model.dim
    sampled = -_affine_sampler(model, path.x_a, 0.0)(times)[:, d:2 * d, :d]

    def no_state(*args):
        raise AssertionError("state_at called on an affine_flow model")

    monkeypatch.setattr(hessian_module, "state_at", no_state)
    omega2 = frequency_matrix_along_path(path)
    values = np.array([omega2(t) for t in times])
    # the path's own RK4 runs step the same g^-1 Hess V, bit for bit; a
    # metric solve rounds differently on a non-diagonal mass, by an ulp
    np.testing.assert_array_equal(values, sampled)
    np.testing.assert_allclose(values, reference, rtol=0.0,
                               atol=1e-15 * np.max(np.abs(reference)))


def test_frequency_matrix_rejects_a_position_dependent_metric():
    # Omega^2 = g^-1 Hess V and the constant sqrt(det M) of the factor
    # assume a constant metric; on polar coordinates the route would
    # return a wrong factor
    model = make_polar_free_particle(mass=1.3)
    path = solve_bvp(model, [1.0, 0.2], [1.2, 0.9], 0.0, 1.1)
    with pytest.raises(NonConstantMetric):
        frequency_matrix_along_path(path)


def test_frequency_matrix_rejects_vector_potential():
    model = magnetic_field(mass=1.0, omega=1.0, dim=2)
    path = solve_bvp(model, [0.0, 0.0], [1.0, 0.0], 0.0, 1.0)
    with pytest.raises(VectorPotentialPresent):
        frequency_matrix_along_path(path)


def test_frequency_matrix_rejects_a_field_where_the_potential_vanishes():
    # a path resting at the origin sees a = 0 but the field of
    # magnetic_field: the free-particle frequency would be 4.1% off
    model = magnetic_field(mass=1.0, omega=1.0, dim=2)
    path = solve_bvp(model, [0.0, 0.0], [0.0, 0.0], 0.0, 1.0)
    assert not np.any(path.positions)
    with pytest.raises(VectorPotentialPresent, match="field"):
        frequency_matrix_along_path(path)


def test_frequency_matrix_accepts_a_pure_gauge():
    # a = grad(0.4 x0 x1) has no field, so the Jacobi equation is free and
    # the Gelfand-Yaglom factor is the vvpm one
    @stacked
    def gauge(x, t):
        return 0.4 * np.asarray(x, dtype=float)[..., ::-1]

    model = dataclasses.replace(
        free_particle(dim=2), vector_potential=gauge,
        vector_potential_grad=_constant(np.array([[0.0, 0.4], [0.4, 0.0]])))
    path = solve_bvp(model, [0.1, 0.2], [0.7, -0.4], 0.0, 1.0)
    assert np.max(np.abs(path.positions)) > 0.5
    gy = gy_fluctuation_factor(
        solve_B_direct(frequency_matrix_along_path(path), 0.0, 1.0), 1.0)
    assert gy.value == vvpm_factor(action_hessian_jacobi(path)).value


def split_block_residual(full, left, right):
    """Relative residual of the matrix chain identity under path splitting,

        mixed_full = mixed_left (bb_left + aa_right)^-1 mixed_right.
    """
    recomposed = left.mixed @ np.linalg.solve(left.bb + right.aa, right.mixed)
    return float(np.linalg.norm(recomposed - full.mixed)
                 / np.linalg.norm(full.mixed))


def test_split_block_identity_quartic(quartic):
    full = solve_bvp(quartic, [0.0], [1.0], 0.0, 0.5)
    x_mid, _ = state_at(full, 0.2)
    left = solve_bvp(quartic, [0.0], x_mid, 0.0, 0.2)
    right = solve_bvp(quartic, x_mid, [1.0], 0.2, 0.5)
    res = split_block_residual(action_hessian_jacobi(full),
                               action_hessian_jacobi(left),
                               action_hessian_jacobi(right))
    assert res <= 1e-6


def test_short_time_mixed_dominated_by_metric(quartic):
    # mixed -> g/T as T -> 0
    t_tot = 1e-3
    path = solve_bvp(quartic, [0.2], [0.21], 0.0, t_tot, n_steps=64)
    hess = action_hessian_jacobi(path)
    assert hess.mixed[0, 0] == pytest.approx(1.0 / t_tot, rel=1e-5)
    assert hess.mixed[0, 0] > 0


def test_polar_free_particle_matches_point_transformation():
    # A(q_a, q_b) = m |X(q_b) - X(q_a)|^2 / (2T) with X = r (cos phi, sin phi);
    # the Van Vleck matrix picks up det J = r at each end, so
    # F_polar = F_cart sqrt(r_a r_b) (DeWitt, Rev. Mod. Phys. 29, 377 (1957)).
    mass, duration = 2.0, 1.0
    q_a, q_b = np.array([1.0, 0.0]), np.array([1.2, 0.4])

    def cart(q):
        return q[0] * np.array([np.cos(q[1]), np.sin(q[1])])

    def jac(q):
        r, phi = q
        return np.array([[np.cos(phi), -r * np.sin(phi)],
                         [np.sin(phi), r * np.cos(phi)]])

    def curvature(q, w):
        # sum_k w_k d2 X_k / dq dq
        r, phi = q
        c, s = np.cos(phi), np.sin(phi)
        return (w[0] * np.array([[0.0, -s], [-s, -r * c]])
                + w[1] * np.array([[0.0, c], [c, -r * s]]))

    k = mass / duration
    chord = cart(q_b) - cart(q_a)
    path = solve_bvp(make_polar_free_particle(mass), q_a, q_b, 0.0, duration,
                     n_steps=60)
    hess = action_hessian_jacobi(path)
    assert path.action == pytest.approx(0.5 * k * chord @ chord, rel=1e-8)
    np.testing.assert_allclose(hess.mixed, k * jac(q_a).T @ jac(q_b),
                               rtol=0, atol=1e-8)
    np.testing.assert_allclose(
        hess.aa, k * (jac(q_a).T @ jac(q_a) - curvature(q_a, chord)),
        rtol=0, atol=1e-8)
    np.testing.assert_allclose(
        hess.bb, k * (jac(q_b).T @ jac(q_b) + curvature(q_b, chord)),
        rtol=0, atol=1e-8)
    expected = (free_particle_factor(mass, duration, dim=2).factor.value
                * np.sqrt(q_a[0] * q_b[0]))
    value = vvpm_factor(hess).value
    assert abs(value - expected) / abs(expected) < 1e-8


@pytest.mark.parametrize("model", [
    harmonic_oscillator(omega2=1.3), build_model({
        "tag": "one_dim_potential",
        "params": {"potential": "0.3*x^2 + 0.25*x^4*(1 + t)"}}, 1.0)[0],
], ids=["affine", "expression-quartic"])
def test_frequency_on_an_array_of_times_is_the_pointwise_values(model):
    path = solve_bvp(model, [0.1], [0.9], 0.0, 0.8, n_steps=100)
    times = np.concatenate((path.times, _collocation(0.0, 0.8, 16)[0]))
    x, v = state_at(path, times)
    points = [state_at(path, t) for t in times]
    for got, want in ((x, [p[0] for p in points]), (v, [p[1] for p in points])):
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=4e-16 * np.max(np.abs(want)))
    omega2 = frequency_matrix_along_path(path)
    values = omega2(times)
    assert values.shape == (len(times), 1, 1)
    np.testing.assert_array_max_ulp(
        values, np.array([omega2(t) for t in times]), maxulp=4)
