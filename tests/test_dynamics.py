from __future__ import annotations

import collections
import dataclasses
import itertools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from vanvleck import (
    LagrangianModel,
    NoConvergence,
    SingularMetric,
    SingularShootingJacobian,
    compile_potential,
    free_particle,
    frequency_matrix_along_path,
    harmonic_oscillator,
    integrate_ivp,
    magnetic_field,
    one_dim_potential,
    solve_B_direct,
    solve_bvp,
    state_at,
)
from vanvleck import dynamics, expressions
from vanvleck.cli import MAX_N_STEPS, build_model
from vanvleck.dynamics import Trajectory, _rk4_run, simpson_action
from vanvleck.models import evaluate_hamiltonian, legendre_momentum, stacked

from conftest import (AFFINE_CASES, AFFINE_IDS, _expression_model,
                      combined_rk4_run, loop_force, loop_linearization,
                      loop_solve, make_curled_metric,
                      make_polar_free_particle, make_quartic,
                      make_skewed_metric, random_spd, step_through)


def test_free_ivp_is_exact():
    model = free_particle(mass=1.0, dim=1)
    traj = integrate_ivp(model, [0.0], [1.0], 0.0, 1.0, n_steps=100)
    assert traj.positions[-1, 0] == pytest.approx(1.0, abs=1e-14)
    assert traj.velocities[-1, 0] == pytest.approx(1.0, abs=1e-14)


def test_harmonic_ivp_quarter_period():
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    traj = integrate_ivp(model, [1.0], [0.0], 0.0, np.pi / 2, n_steps=1000)
    assert abs(traj.positions[-1, 0]) < 1e-8
    assert traj.velocities[-1, 0] == pytest.approx(-1.0, abs=1e-8)


def test_cyclotron_orbit_closes():
    model = magnetic_field(mass=1.0, omega=1.0, dim=2)
    traj = integrate_ivp(model, [1.0, 0.0], [0.0, 1.0], 0.0, 2 * np.pi,
                         n_steps=4000)
    np.testing.assert_allclose(traj.positions[-1], [1.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(traj.velocities[-1], [0.0, 1.0], atol=1e-6)


def test_free_bvp_velocity_and_action():
    model = free_particle(mass=1.0, dim=1)
    path = solve_bvp(model, [0.0], [3.0], 0.0, 2.0)
    assert path.v_a[0] == pytest.approx(1.5, abs=1e-12)
    # A = M (x_b - x_a)^2 / (2 T)
    assert path.action == pytest.approx(2.25, abs=1e-10)
    assert path.bvp_residual < 1e-10


def test_harmonic_bvp_action_quarter_period():
    # x(t) = sin(t), so the kinetic and potential contributions cancel:
    # A = (w/2) [(x_a^2 + x_b^2) cos(wT) - 2 x_a x_b] / sin(wT) = 0.
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    path = solve_bvp(model, [0.0], [1.0], 0.0, np.pi / 2)
    assert path.v_a[0] == pytest.approx(1.0, abs=1e-9)
    assert abs(path.action) < 1e-10
    assert path.p_b[0] == pytest.approx(0.0, abs=1e-9)


def test_harmonic_bvp_generic_action_matches_closed_form():
    w, t_tot, xa, xb = 1.3, 1.1, 0.4, -0.2
    model = harmonic_oscillator(mass=1.0, omega2=w * w, dim=1)
    path = solve_bvp(model, [xa], [xb], 0.0, t_tot)
    s, c = np.sin(w * t_tot), np.cos(w * t_tot)
    expected = 0.5 * w * ((xa * xa + xb * xb) * c - 2 * xa * xb) / s
    assert path.action == pytest.approx(expected, abs=1e-10)


def test_harmonic_bvp_at_focal_time_raises():
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    with pytest.raises(SingularShootingJacobian):
        solve_bvp(model, [0.0], [1.0], 0.0, np.pi)


def path_energy(path, t: float) -> float:
    """Hamiltonian along the path, linear interpolation of (x, v) off grid."""
    times = path.times
    k = dynamics._bracket(times, t)
    s = (t - times[k]) / (times[k + 1] - times[k])
    x = (1 - s) * path.positions[k] + s * path.positions[k + 1]
    v = (1 - s) * path.velocities[k] + s * path.velocities[k + 1]
    p = legendre_momentum(path.model, x, v, t)
    return evaluate_hamiltonian(path.model, x, p, t)


def test_path_energy_free_is_constant():
    model = free_particle(mass=1.0, dim=1)
    path = solve_bvp(model, [0.0], [1.0], 0.0, 1.0)
    for t in (0.0, 0.25, 0.9):
        assert path_energy(path, t) == pytest.approx(0.5, abs=1e-10)


def test_path_energy_harmonic_conserved():
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    path = solve_bvp(model, [0.0], [1.0], 0.0, np.pi / 2)
    # E = v^2/2 + x^2/2 = 1/2 along sin(t); off-grid lookups interpolate
    # (x, v) linearly, so the tolerance is O(h^2) not machine precision
    samples = [path_energy(path, t) for t in np.linspace(0.0, np.pi / 2, 7)]
    np.testing.assert_allclose(samples, 0.5, atol=1e-6)


def test_energy_conservation_quartic(quartic):
    path = solve_bvp(quartic, [0.0], [1.0], 0.0, 0.5)
    e0 = path_energy(path, 0.0)
    drift = max(abs(path_energy(path, t) - e0)
                for t in np.linspace(0.0, 0.5, 11))
    assert drift < 1e-9 * (1.0 + abs(e0))


def test_state_at_interpolates_endpoints(quartic):
    path = solve_bvp(quartic, [0.0], [1.0], 0.0, 0.5)
    x0, v0 = state_at(path, 0.0)
    xb, vb = state_at(path, 0.5)
    assert x0[0] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(xb, [1.0], atol=1e-10)
    np.testing.assert_allclose(v0, path.v_a, atol=1e-12)


def test_rk4_fourth_order_convergence(quartic):
    # halving the step must shrink the endpoint error by about 2^4
    exact = integrate_ivp(quartic, [0.0], [1.0], 0.0, 1.0, n_steps=4096)
    errs = []
    for n in (64, 128):
        traj = integrate_ivp(quartic, [0.0], [1.0], 0.0, 1.0, n_steps=n)
        errs.append(abs(traj.positions[-1, 0] - exact.positions[-1, 0]))
    ratio = errs[0] / errs[1]
    assert 10.0 < ratio < 22.0, ratio


def test_action_stationarity_second_order(quartic, rng):
    # A[x + eps h] - A[x] scales as eps^2 for h vanishing at both ends
    path = solve_bvp(quartic, [0.0], [1.0], 0.0, 0.5, n_steps=400)
    bump = np.sin(np.pi * (path.times - path.times[0]) / 0.5)
    h = bump[:, None] * rng.normal(size=(1, 1))
    base = path.action
    deltas = []
    for eps in (1e-3, 1e-4):
        pos = path.positions + eps * h
        vel = path.velocities + eps * np.gradient(h[:, 0], path.times)[:, None]
        perturbed = Trajectory(times=path.times, positions=pos, velocities=vel)
        deltas.append(abs(simpson_action(quartic, perturbed) - base))
    ratio = deltas[0] / deltas[1]
    assert 50.0 < ratio < 200.0, ratio


def test_boundary_momenta_are_action_gradients(quartic):
    # p_b = dA/dx_b and p_a = -dA/dx_a via centered differences
    xa, xb, t_tot = 0.1, 1.0, 0.5
    h = 1e-5
    path = solve_bvp(quartic, [xa], [xb], 0.0, t_tot)

    def act(a, b):
        return solve_bvp(quartic, [a], [b], 0.0, t_tot).action

    dadb = (act(xa, xb + h) - act(xa, xb - h)) / (2 * h)
    dada = (act(xa + h, xb) - act(xa - h, xb)) / (2 * h)
    assert path.p_b[0] == pytest.approx(dadb, abs=1e-6)
    assert path.p_a[0] == pytest.approx(-dada, abs=1e-6)


@pytest.mark.parametrize("model, x_a, x_b", [
    (make_quartic(), [0.0], [1.0]),
    (make_polar_free_particle(mass=2.0), [1.0, 0.0], [1.2, 0.4]),
], ids=["quartic", "polar"])
def test_stored_flow_is_the_accepted_iterates(model, x_a, x_b):
    # both flows depend on the trajectory, so a flow kept from an earlier
    # Newton iterate would differ from the rerun at the accepted velocity
    n = 40
    path = solve_bvp(model, x_a, x_b, 0.0, 0.5, n_steps=n)
    identity = np.eye(2 * model.dim)
    _, _, tangents = _rk4_run(model, path.x_a, path.v_a, path.t_a, path.t_b,
                              n, True)
    assert path.flow.shape == identity.shape
    assert np.array_equal(path.flow, tangents[-1])
    _, _, tangents = _rk4_run(model, path.x_a, (path.x_b - path.x_a) / 0.5,
                              path.t_a, path.t_b, n, True)
    assert not np.array_equal(path.flow, tangents[-1])


def test_bvp_requires_even_step_count(quartic):
    with pytest.raises(ValueError):
        solve_bvp(quartic, [0.0], [1.0], 0.0, 0.5, n_steps=333)


def test_magnetic_bvp_circles_the_orbit_center():
    from vanvleck import magnetic_orbit_center

    model = magnetic_field(mass=1.0, omega=1.0, dim=2)
    path = solve_bvp(model, [0.0, 0.0], [1.0, 0.0], 0.0, np.pi / 2)
    center = magnetic_orbit_center([0.0, 0.0], [1.0, 0.0], 1.0, np.pi / 2)
    np.testing.assert_allclose(center, [0.5, 0.5], atol=1e-12)
    # every sample keeps the same distance from the center
    radii = np.linalg.norm(path.positions - center, axis=1)
    np.testing.assert_allclose(radii, np.sqrt(0.5), atol=1e-9)
    assert path.bvp_residual < 1e-10


def _expression_quartic(mass=1.0):
    v, dv, d2v = compile_potential("0.25 * x^4")
    return one_dim_potential(v, dv, d2v, mass=mass)


@pytest.mark.parametrize("model, x0, v0", [
    (_expression_quartic(), [0.0], [1.2]),
    (_expression_quartic(mass=1.7), [1.0], [1.2]),
    (harmonic_oscillator(omega2=lambda t: (1 + 0.2 * math.sin(t)) ** 2),
     [0.3], [0.7]),
], ids=["quartic-expression", "quartic-expression-mass",
        "time-dependent-omega2"])
def test_one_dim_rule_is_bit_identical_to_the_general_rule(model, x0, v0):
    # the unflagged copy runs the general rule, whose _solve is (-V') (1/g)
    # in D = 1 and whose central-difference columns are exactly zero for
    # these models; both copies drop affine_flow, which would step them
    # by maps instead.  A mass other than 1 makes 1/g inexact, so a
    # division in place of the reciprocal pivot would show
    model = dataclasses.replace(model, affine_flow=False)
    general = dataclasses.replace(model, kinetic_gradients_constant=False)
    _, fast, fast_flow = _rk4_run(model, x0, v0, 0.0, 1.3, 50, True)
    _, ref, ref_flow = _rk4_run(general, x0, v0, 0.0, 1.3, 50, True)
    np.testing.assert_array_equal(fast, ref)
    np.testing.assert_array_equal(fast_flow, ref_flow)


@pytest.mark.parametrize("model, x0, v0", [
    (harmonic_oscillator(mass=[[2.0, 0.3], [0.3, 1.0]],
                         stiffness=[[1.0, 0.2], [0.2, 3.0]]),
     [0.1, -0.2], [1.0, 0.5]),
    (magnetic_field(mass=1.5, omega=0.8, dim=3), [0.1, 0.0, -0.3],
     [1.0, -0.5, 0.2]),
], ids=["ho2-matrix-mass", "magnetic-3"])
def test_constant_metric_off_affine_flow_takes_the_general_rule(model, x0,
                                                                v0):
    # only D = 1 has a constant-metric stage rule: a D > 1 constant
    # metric run off affine_flow reads the general rule's four callbacks
    # once a stage
    model, calls = _counted_callbacks(
        dataclasses.replace(model, affine_flow=False))
    n = 40
    _rk4_run(model, x0, v0, 0.0, 1.3, n, False)
    assert calls == {name: 4 * n for name in (
        "metric", "metric_grad", "vector_potential_grad", "potential_grad")}


def test_bvp_stops_at_the_first_non_finite_miss(monkeypatch):
    base = harmonic_oscillator(omega2=1.0)
    model = dataclasses.replace(
        base, potential_grad=lambda x, t: np.full(1, np.nan))
    runs = []
    real_run = dynamics._rk4_run

    def counted(*args):
        runs.append(args)
        return real_run(*args)

    monkeypatch.setattr(dynamics, "_rk4_run", counted)
    with pytest.raises(NoConvergence) as info:
        solve_bvp(model, [0.0], [1.0], 0.0, 1.0, n_steps=20)
    assert len(runs) == 1
    assert info.value.iterations == 1


def _path_acceleration(model, x, v, t):
    """The path pass's acceleration rule at one point, as an ndarray."""
    stage, _ = dynamics._general_linearization(model)
    d = model.dim
    row = stage(np.concatenate((x, v)).tolist(), t)
    return np.array(row[2 * d + 1:3 * d + 1])


def _reference_acceleration(model, x, v, t):
    """Solve g vdot = F, F written out from the Euler-Lagrange equations.

    d/dt (g v + a) = dL/dx with dg[k, i, j] = d g_ij / d x_k and
    da[i, j] = d a_i / d x_j, solved by one dense linear solve.
    """
    dg = model.metric_grad(x, t)
    da = model.vector_potential_grad(x, t)
    force = (0.5 * np.einsum("ijk,j,k->i", dg, v, v)
             - np.einsum("kij,k,j->i", dg, v, v)
             + (da.T - da) @ v - model.potential_grad(x, t))
    return np.linalg.solve(model.metric(x, t), force)


@pytest.mark.parametrize("model", [make_polar_free_particle(mass=1.5),
                                   make_curled_metric()],
                         ids=["polar", "curled-metric"])
def test_linearization_matches_differenced_acceleration(model, rng):
    # jx carries the differenced second derivatives of g and a; both
    # blocks against central differences of the acceleration itself
    h = 1e-5
    steps = h * np.eye(model.dim)
    for _ in range(8):
        x = np.array([rng.uniform(0.7, 1.4), rng.uniform(-1.0, 1.0)])
        v = rng.normal(size=2)
        t = float(rng.uniform())
        acc = _path_acceleration(model, x, v, t)
        np.testing.assert_allclose(acc, _reference_acceleration(model, x, v, t),
                                   rtol=1e-12, atol=1e-14)
        jx, jv = dynamics.el_linearization(model, x, v, t, acc)
        num_x = np.column_stack([
            (_reference_acceleration(model, x + e, v, t)
             - _reference_acceleration(model, x - e, v, t)) / (2 * h)
            for e in steps])
        num_v = np.column_stack([
            (_reference_acceleration(model, x, v + e, t)
             - _reference_acceleration(model, x, v - e, t)) / (2 * h)
            for e in steps])
        np.testing.assert_allclose(jx, num_x, rtol=1e-6,
                                   atol=1e-6 * np.max(np.abs(num_x)))
        np.testing.assert_allclose(jv, num_v, rtol=1e-6,
                                   atol=1e-6 * np.max(np.abs(num_v)))


@pytest.mark.parametrize("model", [make_polar_free_particle(mass=1.5),
                                   make_curled_metric()],
                         ids=["polar", "curled-metric"])
def test_stacked_linearization_equals_the_point_calls(model, rng):
    # one (k, D) stack against k calls at one point each: jv and the jx
    # that carries the differenced columns, within 4 ulp
    k = 9
    x = np.column_stack([rng.uniform(0.7, 1.4, k), rng.uniform(-1.0, 1.0, k)])
    v = rng.normal(size=(k, 2))
    t = rng.uniform(size=k)
    acc = np.array([_path_acceleration(model, *row) for row in zip(x, v, t)])
    stack = dynamics.el_linearization(model, x, v, t, acc)
    points = [dynamics.el_linearization(model, *row)
              for row in zip(x, v, t, acc)]
    for got, want in zip(stack, zip(*points)):
        assert got.shape == (k,) + want[0].shape
        np.testing.assert_array_max_ulp(got, np.array(want), maxulp=4)


def _counted_callbacks(model, marked=False):
    """``model`` with every callback counted; ``marked`` makes each a
    stacked callback, which loops over a stack itself."""
    calls = collections.Counter()
    names = ("metric", "metric_grad", "vector_potential",
             "vector_potential_grad", "potential", "potential_grad",
             "potential_hess")

    def counted(name):
        callback = getattr(model, name)

        def wrapper(x, t):
            calls[name] += 1
            if np.ndim(t) == 0:
                return callback(x, t)
            return np.array([callback(*row) for row in zip(x, t)])

        return stacked(wrapper) if marked else wrapper

    return dataclasses.replace(
        model, **{name: counted(name) for name in names}), calls


def test_linearization_callback_counts():
    # metric_grad and vector_potential_grad at x and at the 2D stencil
    # stacks x +- h e_m; metric and potential_hess once; potential_grad,
    # whose work the given acceleration carries, and the values a and V
    # never: one call each per stack when marked, one per point through
    # models.along otherwise
    x, v, acc = np.array([1.1, 0.2]), np.array([0.3, -0.4]), np.ones(2)
    for marked in (True, False):
        for k in (None, 7):
            model, calls = _counted_callbacks(make_curled_metric(), marked)
            if k is None:
                dynamics.el_linearization(model, x, v, 0.0, acc)
            else:
                dynamics.el_linearization(model, np.tile(x, (k, 1)),
                                          np.tile(v, (k, 1)), np.zeros(k),
                                          np.tile(acc, (k, 1)))
            d = model.dim
            per = 1 if marked or k is None else k
            assert calls == {"metric": per, "metric_grad": (1 + 2 * d) * per,
                             "vector_potential_grad": (1 + 2 * d) * per,
                             "potential_hess": per}


def _count_runs(monkeypatch, fail_at=None, failure=None, flows=None):
    """Step counts of every _rk4_run call; a run on ``fail_at`` steps fails.

    ``failure`` None makes that run return NaN positions; otherwise it is
    the exception the run raises.  A ``flows`` list receives each run's
    ``flow`` flag.
    """
    steps = []
    real_run = dynamics._rk4_run

    def counted(model, x0, v0, t_a, t_b, n_steps, flow):
        steps.append(n_steps)
        if flows is not None:
            flows.append(flow)
        run = real_run(model, x0, v0, t_a, t_b, n_steps, flow)
        if n_steps == fail_at:
            if failure is not None:
                raise failure
            run[1][:, :model.dim] = np.nan
        return run

    monkeypatch.setattr(dynamics, "_rk4_run", counted)
    return steps


def _cold(model, x_a, x_b, t_b, n, tol=dynamics.DEFAULT_TOL):
    # a given seed skips the coarse grid: the single-grid Newton loop
    x_a, x_b = np.asarray(x_a, float), np.asarray(x_b, float)
    return solve_bvp(model, x_a, x_b, 0.0, t_b, v0_guess=(x_b - x_a) / t_b,
                     n_steps=n, tol=tol)


WARM_CASES = [
    (_expression_quartic(), [0.0], [1.0], 0.8, 256),
    (make_curled_metric(), [0.2, -0.1], [0.9, 0.4], 0.7, 256),
    (one_dim_potential(*compile_potential("0.25*x^4*(1 + 0.2*sin(t))")),
     [0.3], [-0.4], 1.3, 256),
    (make_polar_free_particle(mass=1.5), [1.0, 0.3], [1.2, 1.2], 1.1, 1000),
]
WARM_IDS = ["quartic-expression", "curled-metric", "time-dependent-quartic",
            "polar-n1000"]


@pytest.mark.parametrize("model, x_a, x_b, t_b, n", WARM_CASES, ids=WARM_IDS)
def test_coarse_warm_start_lands_on_the_cold_path(monkeypatch, model, x_a,
                                                  x_b, t_b, n):
    # the cold solve may stop anywhere below the default tolerance (the
    # polar one stops at 1.5e-11), so it is driven to roundoff here
    cold = _cold(model, x_a, x_b, t_b, n, tol=1e-13)
    flows = []
    steps = _count_runs(monkeypatch, flows=flows)
    warm = solve_bvp(model, x_a, x_b, 0.0, t_b, n_steps=n)
    coarse = n // dynamics.COARSE_FACTOR // 2 * 2
    assert set(steps) == {coarse, n}
    assert steps.index(n) == len(steps) - steps.count(n)   # coarse first
    assert steps.count(n) == 2   # the seeded run and one Newton step
    # the seeded run steps with the coarse flow, so it carries no tangents
    assert flows[-2:] == [False, True]
    _assert_lands_on(warm, cold)


def _assert_lands_on(warm, cold):
    assert warm.bvp_residual <= 1e-13
    assert warm.action == pytest.approx(cold.action, rel=1e-11)
    scale = np.max(np.abs(cold.positions))
    assert np.max(np.abs(warm.positions - cold.positions)) <= 1e-11 * scale
    assert (np.linalg.norm(warm.flow - cold.flow)
            <= 1e-11 * np.linalg.norm(cold.flow))


@pytest.mark.parametrize("model, x_a, x_b, t_b, n", WARM_CASES[:3],
                         ids=WARM_IDS[:3])
def test_poor_chord_step_falls_back_to_newton(monkeypatch, model, x_a, x_b,
                                              t_b, n):
    # a coarse flow with the sign of Pxv flipped takes a chord step the
    # wrong way, doubling the fine miss past tol; Newton on the fine grid
    # then takes over, each later iterate with its own tangent columns
    cold = _cold(model, x_a, x_b, t_b, n, tol=1e-13)
    real_newton = dynamics._newton
    d = model.dim

    def skewed(*args, must_step=None):
        if must_step is not None:
            must_step = must_step.copy()
            must_step[:d, d:] *= -1.0
        return real_newton(*args, must_step=must_step)

    monkeypatch.setattr(dynamics, "_newton", skewed)
    misses = []
    real_run = dynamics._rk4_run

    def recorded(model, x0, v0, t_a, t_b, n_steps, flow):
        run = real_run(model, x0, v0, t_a, t_b, n_steps, flow)
        if n_steps == n:
            misses.append((flow,
                           np.max(np.abs(run[1][-1, :d] - x_b))))
        return run

    monkeypatch.setattr(dynamics, "_rk4_run", recorded)
    warm = solve_bvp(model, x_a, x_b, 0.0, t_b, n_steps=n)
    assert misses[0][0] is False
    assert misses[1][1] > dynamics.DEFAULT_TOL   # the chord step missed
    assert len(misses) >= 3
    assert all(flow for flow, _ in misses[1:])
    _assert_lands_on(warm, cold)


def test_must_step_refines_an_accepted_seed(monkeypatch):
    model, x_a, x_b, t_b, n = WARM_CASES[3]
    x_a, x_b = np.asarray(x_a, float), np.asarray(x_b, float)
    path = _cold(model, x_a, x_b, t_b, n)
    assert 1e-13 < path.bvp_residual <= dynamics.DEFAULT_TOL
    flows = []
    steps = _count_runs(monkeypatch, flows=flows)
    args = (model, x_a, x_b, 0.0, t_b, path.v_a, n, dynamics.DEFAULT_TOL,
            dynamics.DEFAULT_MAX_ITER)
    _, _, res = dynamics._newton(*args)
    assert (steps, res) == ([n], path.bvp_residual)
    _, _, res = dynamics._newton(*args, must_step=path.flow)
    assert steps == [n, n, n]
    assert flows == [True, False, True]
    assert res <= 1e-13


def _assert_same_path(a, b):
    for name in ("positions", "velocities", "flow", "p_a", "p_b"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name),
                                      err_msg=name)
    assert (a.action, a.energy_a, a.bvp_residual) == (
        b.action, b.energy_a, b.bvp_residual)


@pytest.mark.parametrize("failure", [
    None,
    NoConvergence(1, 0.5),
    SingularShootingJacobian("coarse Jacobian"),
    SingularMetric("coarse metric"),
], ids=["nan-positions", "no-convergence", "singular-jacobian",
        "singular-metric"])
def test_failed_coarse_phase_falls_back_to_the_cold_solve(monkeypatch,
                                                          failure):
    model, x_a, x_b, t_b, n = WARM_CASES[0]
    cold = _cold(model, x_a, x_b, t_b, n)
    coarse = n // dynamics.COARSE_FACTOR // 2 * 2
    steps = _count_runs(monkeypatch, fail_at=coarse, failure=failure)
    warm = solve_bvp(model, x_a, x_b, 0.0, t_b, n_steps=n)
    assert steps[0] == coarse
    _assert_same_path(warm, cold)


def test_other_coarse_errors_propagate(monkeypatch):
    model, x_a, x_b, t_b, n = WARM_CASES[0]
    coarse = n // dynamics.COARSE_FACTOR // 2 * 2
    _count_runs(monkeypatch, fail_at=coarse, failure=RuntimeError("coarse"))
    with pytest.raises(RuntimeError):
        solve_bvp(model, x_a, x_b, 0.0, t_b, n_steps=n)


def test_unmoved_coarse_seed_keeps_the_cold_arithmetic(monkeypatch):
    # a resting path: the coarse grid accepts the straight-line seed as it
    # stands, and the fine grid then runs exactly the single-grid loop
    model = _expression_quartic()
    cold = _cold(model, [0.0], [0.0], 1.0, 400)
    steps = _count_runs(monkeypatch)
    warm = solve_bvp(model, [0.0], [0.0], 0.0, 1.0, n_steps=400)
    assert steps == [50, 400]
    _assert_same_path(warm, cold)


@pytest.mark.parametrize("n", [8, 254])
def test_small_grids_run_no_coarse_phase(monkeypatch, n):
    model, x_a, x_b, t_b, _ = WARM_CASES[0]
    cold = _cold(model, x_a, x_b, t_b, n)
    steps = _count_runs(monkeypatch)
    warm = solve_bvp(model, x_a, x_b, 0.0, t_b, n_steps=n)
    assert set(steps) == {n}
    _assert_same_path(warm, cold)


def test_given_seed_runs_no_coarse_phase(monkeypatch):
    model, x_a, x_b, t_b, n = WARM_CASES[1]
    steps = _count_runs(monkeypatch)
    solve_bvp(model, x_a, x_b, 0.0, t_b, v0_guess=[0.9, 0.7], n_steps=n)
    assert set(steps) == {n}


def _max_rel(actual, desired):
    return np.max(np.abs(actual - desired)) / np.max(np.abs(desired))


@pytest.mark.parametrize("model, x_a, x_b, t_b", AFFINE_CASES, ids=AFFINE_IDS)
@pytest.mark.parametrize("n", [40, 1000])
def test_affine_solve_makes_one_run(monkeypatch, model, x_a, x_b, t_b, n):
    assert model.affine_flow
    newton = solve_bvp(dataclasses.replace(model, affine_flow=False), x_a,
                       x_b, 0.0, t_b, n_steps=n)
    steps = _count_runs(monkeypatch)
    path = solve_bvp(model, x_a, x_b, 0.0, t_b, n_steps=n)
    assert steps == [n]
    # the step maps are the generic RK4 step of the same linear system,
    # so the flows differ only at roundoff
    assert _max_rel(path.flow, newton.flow) <= 1e-13
    scale = np.max(np.abs(newton.positions))
    assert np.max(np.abs(path.positions - newton.positions)) <= 1e-12 * scale
    assert path.action == pytest.approx(newton.action, rel=1e-12)
    assert path.bvp_residual <= dynamics.DEFAULT_TOL


@pytest.mark.parametrize("model, x_a, x_b, t_b", AFFINE_CASES, ids=AFFINE_IDS)
@pytest.mark.parametrize("n", [40, 1000])
def test_step_map_run_matches_the_generic_stepper(model, x_a, x_b, t_b, n):
    # one run from the same seed: states and tangent columns at every
    # grid time, against the combined rk4 stepper on the same model
    identity = np.eye(2 * model.dim)
    v0 = (np.asarray(x_b) - np.asarray(x_a)) / t_b
    _, states, tangents = _rk4_run(model, x_a, v0, 0.0, t_b, n, True)
    _, ref = combined_rk4_run(model, x_a, v0, 0.0, t_b, n, identity)
    assert _max_rel(states, ref[:, :, 0]) <= 1e-13
    assert _max_rel(tangents, ref[:, :, 1:]) <= 1e-13


@pytest.mark.parametrize("b", [1, 2, 3, 255, 256, 257])
def test_composed_maps_match_the_sequential_steps(rng, b):
    # random increments scaled like h M, of the side of a D = 2 affine
    # state: every prefix product and the block's total against one
    # product a step, applied to an (N, m) state as the runs apply them
    n = 5
    maps = rng.normal(size=(b, n, n)) / 256
    y = rng.normal(size=(n, 3))
    before = maps.copy()
    ref = step_through(maps, y)
    prefix = dynamics._compose(maps, prefix=True)
    assert prefix.shape == (b, n, n)
    assert _max_rel(y + prefix @ y, ref) <= 1e-14
    assert _max_rel(y + dynamics._compose(maps) @ y, ref[-1]) <= 1e-14
    np.testing.assert_array_equal(maps, before)


def test_long_affine_run_rounds_like_log_n():
    # the free particle's RK4 step is exact, so a run of MAX_N_STEPS
    # lands on x_a + v T with the flow [[1, T], [0, 1]] up to rounding;
    # composed as a tree per block, that rounding grows like log n.  One
    # product a step missed by 1.4e-12 and 1.8e-12
    model = free_particle(mass=1.0, dim=3)
    x_a, v = np.array([0.1, -0.2, 0.3]), np.array([1.1, 0.7, -0.9])
    duration = 1.3
    _, states, tangents = _rk4_run(model, x_a, v, 0.0, duration,
                                   MAX_N_STEPS, True)
    assert _max_rel(states[-1, :3], x_a + v * duration) <= 5e-14
    free_flow = np.block([[np.eye(3), duration * np.eye(3)],
                          [np.zeros((3, 3)), np.eye(3)]])
    assert _max_rel(tangents[-1], free_flow) <= 1e-13


TWO_PASS_CASES = [
    (make_quartic(), [0.0], [1.3]),
    (_expression_model("0.5 * x^2 + 0.3 * x^4"), [0.1], [1.2]),
    (make_polar_free_particle(mass=1.5), [1.0, 0.3], [0.4, 1.1]),
    (make_curled_metric(), [0.2, -0.1], [0.9, 0.4]),
    (dataclasses.replace(magnetic_field(mass=1.5, omega=0.8, dim=3),
                         affine_flow=False),
     [0.1, 0.0, -0.3], [1.0, -0.5, 0.2]),
    (make_skewed_metric(), [0.1, -0.2, 0.3], [0.5, 0.4, -0.6]),
]
TWO_PASS_IDS = ["quartic", "quartic-expression", "polar", "curled-metric",
                "magnetic-3", "skewed-metric-3"]


@pytest.mark.parametrize("model, x0, v0", TWO_PASS_CASES, ids=TWO_PASS_IDS)
@pytest.mark.parametrize("n", [40, 1000])
def test_two_pass_run_matches_the_combined_stepper(model, x0, v0, n):
    # the path pass takes the combined stepper's column-0 arithmetic, so
    # its states are the same bits; the flow pass sums the same stages
    # as step maps, in another order
    identity = np.eye(2 * model.dim)
    _, states, tangents = _rk4_run(model, x0, v0, 0.0, 1.1, n, True)
    _, ref = combined_rk4_run(model, x0, v0, 0.0, 1.1, n, identity)
    np.testing.assert_array_equal(states, ref[:, :, 0])
    assert tangents.shape == (1,) + identity.shape
    assert _max_rel(tangents[-1], ref[-1, :, 1:]) <= 1e-13


def test_two_pass_run_reads_the_jacobians_once_per_block(monkeypatch):
    # a stacked nonlinear model: the path pass reads potential_grad at
    # each stage, the flow pass potential_hess once per block of
    # STEP_MAP_BLOCK steps, and no stage calls el_linearization
    base = _expression_quartic()
    assert not base.affine_flow
    calls = collections.Counter()

    def counted(name, fn):
        def callback(x, t):
            calls[name, "stacked" if np.ndim(t) else "point"] += 1
            return fn(x, t)
        return stacked(callback)

    model = dataclasses.replace(base, **{
        name: counted(name, getattr(base, name))
        for name in ("potential_grad", "potential_hess")})
    linearizations = []
    real = dynamics.el_linearization

    def counted_linearization(*args, **kwargs):
        linearizations.append(np.shape(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "el_linearization", counted_linearization)
    recorded = []
    real_recorded = dynamics._linearization

    def counted_recorded(*args):
        recorded.append(np.shape(args[1]))
        return real_recorded(*args)

    monkeypatch.setattr(dynamics, "_linearization", counted_recorded)
    n = 1000
    blocks = -(-n // dynamics.STEP_MAP_BLOCK)
    _rk4_run(model, [0.2], [0.9], 0.0, 1.1, n, True)
    assert calls == {("potential_grad", "point"): 4 * n,
                     ("potential_hess", "stacked"): blocks}
    assert linearizations == [] and recorded == []
    # the same on a position-dependent metric: one linearization call per
    # block, on the block's 4b recorded stages, and none of
    # el_linearization, which would read the metric again
    polar = make_polar_free_particle()
    _rk4_run(polar, [1.0, 0.3], [0.4, 1.1], 0.0, 1.1, n, True)
    sizes = [4 * min(dynamics.STEP_MAP_BLOCK, n - k)
             for k in range(0, n, dynamics.STEP_MAP_BLOCK)]
    assert linearizations == []
    assert recorded == [(size, 2) for size in sizes]


def test_one_dim_path_pass_calls_the_scalar_dv():
    # a config one_dim_potential hands the D = 1 path pass its compiled
    # dV/dx body as potential_grad.scalar: each stage makes exactly one
    # call into the expression, that body, straight from the pass loop at
    # Python floats, and the model callback, which wraps that float in
    # arrays, is not called.  A potential_grad without the attribute is
    # read at a (1,) ndarray to the same bits
    base = _expression_model("0.5 * x^2 + 0.3 * x^4")
    assert not base.affine_flow
    grad = base.potential_grad
    body = grad.scalar.__code__
    entered = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in (
                body.co_filename, expressions.__file__):
            entered[frame.f_code is body, frame.f_back.f_code.co_name,
                    type(frame.f_locals.get("x")),
                    type(frame.f_locals.get("t"))] += 1

    n = 40
    sys.setprofile(profile)
    try:
        _rk4_run(base, [0.2], [0.9], 0.0, 1.1, n, False)
    finally:
        sys.setprofile(None)
    assert entered == {(True, "_one_dim_path_pass", float, float): 4 * n}
    calls = collections.Counter()

    def callback(x, t):
        calls["potential_grad", "stacked" if np.ndim(t) else "point"] += 1
        return grad(x, t)

    def scalar(x, t):
        calls["scalar", type(x).__name__] += 1
        return grad.scalar(x, t)

    callback.scalar = scalar
    model = dataclasses.replace(base, potential_grad=stacked(callback))
    _, states, tangents = _rk4_run(model, [0.2], [0.9], 0.0, 1.1, n, True)
    assert calls == {("scalar", "float"): 4 * n}
    wrapped = dataclasses.replace(
        base, potential_grad=stacked(lambda x, t: grad(x, t)))
    _, ref, ref_tangents = _rk4_run(wrapped, [0.2], [0.9], 0.0, 1.1, n,
                                    True)
    np.testing.assert_array_equal(states, ref)
    np.testing.assert_array_equal(tangents, ref_tangents)


def test_ivp_and_non_finite_paths_make_no_flow_pass(recwarn):
    # m = 0, or a path that ends non-finite, never reads potential_hess;
    # Newton then stops at its first run, with no numpy warning
    hess_calls = []
    base = make_quartic()

    def hess(x, t):
        hess_calls.append(t)
        return base.potential_hess(x, t)

    model = dataclasses.replace(base, potential_hess=hess)
    integrate_ivp(model, [0.0], [1.0], 0.0, 1.0, n_steps=40)
    assert hess_calls == []
    broken = dataclasses.replace(
        model, potential_grad=lambda x, t: np.full(1, np.nan))
    _, states, tangents = _rk4_run(broken, [0.0], [1.0], 0.0, 1.0, 40,
                                   True)
    assert np.isnan(states[-1]).all() and np.isnan(tangents).all()
    with pytest.raises(NoConvergence) as info:
        solve_bvp(broken, [0.0], [1.0], 0.0, 1.0, n_steps=40)
    assert info.value.iterations == 1
    assert hess_calls == []
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_path_that_overflows_partway_makes_no_flow_pass():
    # V = -x^10 / 10 pushes the path out to inf at t = 0.31 from (1, 2);
    # on 40 steps the state is first non-finite at step 14.  The force
    # overflows quietly under np.errstate, and the path pass steps on inf
    # and NaN with no numpy warning
    hess_calls = []
    base = make_quartic()

    def grad(x, t):
        with np.errstate(over="ignore"):
            return -np.asarray(x) ** 9

    def hess(x, t):
        hess_calls.append(t)
        return base.potential_hess(x, t)

    model = dataclasses.replace(base, potential_grad=grad,
                                potential_hess=hess)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, states, tangents = _rk4_run(model, [1.0], [2.0], 0.0, 1.0, 40,
                                       True)
        with pytest.raises(NoConvergence) as info:
            solve_bvp(model, [1.0], [3.0], 0.0, 1.0, n_steps=40)
    finite = np.isfinite(states).all(axis=1)
    assert finite[:10].all() and not finite[-1]
    assert np.isnan(tangents).all()
    assert info.value.iterations == 1
    assert hess_calls == []


def test_path_that_overflows_in_a_later_block_steps_the_flow_up_to_it():
    # the same path on 1000 steps is first non-finite at step 310, in the
    # second block of STEP_MAP_BLOCK steps: the flow steps the first
    # block, reading potential_hess at its 4 STEP_MAP_BLOCK stages, and
    # takes no step from the block where the path ends non-finite on
    hess_calls = []
    base = make_quartic()

    def grad(x, t):
        with np.errstate(over="ignore"):
            return -np.asarray(x) ** 9

    def hess(x, t):
        hess_calls.append(t)
        return base.potential_hess(x, t)

    model = dataclasses.replace(base, potential_grad=grad,
                                potential_hess=hess)
    n, block = 1000, dynamics.STEP_MAP_BLOCK
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        times, states, tangents = _rk4_run(model, [1.0], [2.0], 0.0, 1.0, n,
                                           True)
        first_block = list(hess_calls)
        with pytest.raises(NoConvergence) as info:
            solve_bvp(model, [1.0], [3.0], 0.0, 1.0, n_steps=n)
    finite = np.isfinite(states).all(axis=1)
    assert block < np.argmin(finite) < 2 * block
    assert np.isnan(tangents).all()
    assert len(first_block) == 4 * block
    assert max(first_block) == times[block]
    assert info.value.iterations == 1


def test_singular_metric_at_a_stage_raises():
    # r = 0 is the polar chart's coordinate singularity: the path pass
    # inverts the metric there at its first stage, and a stacked
    # linearization refuses a stack that holds it
    model = make_polar_free_particle()
    with pytest.raises(SingularMetric):
        _rk4_run(model, [0.0, 0.0], [1.0, 0.0], 0.0, 1.0, 40, True)
    points = np.array([[1.0, 0.2], [0.0, 0.3], [1.2, 0.1]])
    with pytest.raises(SingularMetric):
        dynamics.el_linearization(model, points, np.ones((3, 2)),
                                  np.zeros(3), np.zeros((3, 2)))


@pytest.mark.parametrize("model", [make_polar_free_particle(mass=1.5),
                                   make_curled_metric(), make_skewed_metric()],
                         ids=["polar", "curled-metric", "skewed-metric-3"])
def test_float_acceleration_matches_an_independent_solve(model, rng):
    # the path pass's float force and elimination against the written-out
    # force and np.linalg.solve
    d = model.dim
    for _ in range(8):
        x = rng.uniform(0.7, 1.4, d)
        v = rng.normal(size=d)
        t = float(rng.uniform())
        np.testing.assert_allclose(_path_acceleration(model, x, v, t),
                                   _reference_acceleration(model, x, v, t),
                                   rtol=1e-12, atol=1e-14)


def _constant_metric_model(g):
    """A D = 2 model on the constant metric ``g`` with a force, left
    unflagged so that its runs take the general acceleration rule."""
    zero2, zero22 = np.zeros(2), np.zeros((2, 2))
    return LagrangianModel(
        dim=2, metric=lambda x, t: np.array(g),
        metric_grad=lambda x, t: np.zeros((2, 2, 2)),
        vector_potential=lambda x, t: zero2,
        vector_potential_grad=lambda x, t: zero22,
        potential=lambda x, t: 0.5 * float(x @ x),
        potential_grad=lambda x, t: np.array(x, dtype=float),
        potential_hess=lambda x, t: np.eye(2))


def test_elimination_pivots_past_a_zero_corner_and_refuses_a_singular_metric(
        rng):
    # g = [[0, 1.5], [1.5, 0]] is invertible with a zero (0, 0) entry:
    # the pivot search swaps the rows.  [[1, 2], [2, 4]] eliminates to an
    # exactly zero second pivot, so a run raises at its first stage
    model = _constant_metric_model([[0.0, 1.5], [1.5, 0.0]])
    for _ in range(4):
        x, v = rng.normal(size=2), rng.normal(size=2)
        np.testing.assert_allclose(_path_acceleration(model, x, v, 0.0),
                                   _reference_acceleration(model, x, v, 0.0),
                                   rtol=1e-12, atol=1e-14)
    model, calls = _counted_callbacks(
        _constant_metric_model([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMetric):
        _rk4_run(model, [0.3, 0.1], [1.0, 0.0], 0.0, 1.0, 40, True)
    assert calls["metric"] == 1


def test_nearly_singular_metric_raises_on_every_route():
    # [[0.1, 0.3], [0.3, 0.9]] is singular in decimal; in binary its
    # elimination leaves a pivot of -5.6e-17, far inside the relative
    # bound, where a zero-pivot test accepted it.  diag(1, 1e-14) is
    # regular whatever its scales: the bound is relative to each row
    x, p = np.array([0.3, 0.1]), np.array([1.0, -0.5])
    points = np.array([[0.3, 0.1], [0.2, -0.4], [1.0, 0.5]])
    near = _constant_metric_model([[0.1, 0.3], [0.3, 0.9]])
    with pytest.raises(SingularMetric):
        _rk4_run(near, x, [1.0, 0.0], 0.0, 1.0, 40, False)
    with pytest.raises(SingularMetric):
        dynamics.el_linearization(near, points, np.ones((3, 2)),
                                  np.zeros(3), np.zeros((3, 2)))
    with pytest.raises(SingularMetric):
        evaluate_hamiltonian(near, x, p, 0.0)
    scaled = _constant_metric_model([[1.0, 0.0], [0.0, 1e-14]])
    _, states, _ = _rk4_run(scaled, [0.3, 0.0], [1.0, 0.0], 0.0, 1.0, 40,
                            False)
    assert np.isfinite(states).all()
    jx, _ = dynamics.el_linearization(scaled, points, np.ones((3, 2)),
                                      np.zeros(3), np.zeros((3, 2)))
    np.testing.assert_allclose(jx, np.broadcast_to(
        np.diag([-1.0, -1e14]), (3, 2, 2)), rtol=1e-15)
    assert evaluate_hamiltonian(scaled, x, p, 0.0) == pytest.approx(
        0.5 + 0.125e14 + 0.05, rel=1e-15)


def test_path_pass_on_a_metric_makes_no_linalg_call(monkeypatch):
    # the position-dependent metric rule solves g acc = F in floats: a
    # polar path pass calls neither numpy.linalg.inv nor solve, and reads
    # each of its four callbacks once a stage
    linalg = collections.Counter()
    for name in ("inv", "solve"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name),
                    **kwargs):
            linalg[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    model, calls = _counted_callbacks(make_polar_free_particle())
    n = 40
    _rk4_run(model, [1.0, 0.3], [0.4, 1.1], 0.0, 1.1, n, False)
    assert linalg == {}
    assert calls == {name: 4 * n for name in (
        "metric", "metric_grad", "vector_potential_grad", "potential_grad")}


def test_flow_run_reads_each_metric_value_once(monkeypatch):
    # the path pass records metric, metric_grad and vector_potential_grad
    # at each stage and the flow step reads them from the record: a polar
    # run with a flow reads the metric 4n times, where a flow step that
    # called el_linearization read it 8n times, potential_grad and
    # potential_hess 4n times each, and metric_grad and
    # vector_potential_grad 4n times plus at the 2D shifted stacks of
    # each stage
    model, calls = _counted_callbacks(make_polar_free_particle())
    n, d = 300, model.dim
    assert n > dynamics.STEP_MAP_BLOCK
    _rk4_run(model, [1.0, 0.3], [0.4, 1.1], 0.0, 1.1, n, True)
    assert calls == {"metric": 4 * n, "potential_grad": 4 * n,
                     "potential_hess": 4 * n,
                     "metric_grad": 4 * n + 2 * d * 4 * n,
                     "vector_potential_grad": 4 * n + 2 * d * 4 * n}


def _rule_outcome(d, g, dg, da, grad, v):
    """The emitted stage rule's acceleration as D floats, or the type of
    the exception it gives: SingularMetric for a None row."""
    y = [0.25 * i for i in range(d)] + list(v)
    try:
        row = dynamics._stage_rule(d)(0.5, y, g, dg, da, grad)
    except ArithmeticError as exc:
        return type(exc)
    if row is None:
        return SingularMetric
    flat = np.concatenate([np.ravel(a) for a in (g, dg, da)])
    assert row[:2 * d + 1] == [0.5, *y]
    assert np.array(row[3 * d + 1:]).tobytes() == flat.tobytes()
    return row[2 * d + 1:3 * d + 1]


def _loop_outcome(d, g, dg, da, grad, v):
    """``_rule_outcome`` of the loop rule, ``loop_force`` and
    ``loop_solve``, on copies of the inputs."""
    try:
        return loop_solve([list(row) for row in g],
                          loop_force(dg, da, grad, list(v)), None, 0.5)
    except (ArithmeticError, SingularMetric) as exc:
        return type(exc)


def _bits(outcome):
    return outcome if isinstance(outcome, type) else np.array(outcome).tobytes()


def _metric_cases(rng, d):
    """Metric values that take every branch of the elimination: random
    symmetric and unsymmetric ones, a diagonally dominant one with its
    rows in every order (each row swap of the pivot search), ties of the
    search, where the first of the largest rows pivots, exactly zero
    pivots, nearly singular and badly scaled values, NaN entries and an
    overflowing determinant."""
    cases = [random_spd(rng, d) for _ in range(40)]
    cases += [rng.normal(size=(d, d)) for _ in range(40)]
    for perm in itertools.permutations(range(d)):
        scaled = np.diag(rng.uniform(0.5, 2.0, d)) + 0.1 * rng.normal(size=(d, d))
        cases.append(scaled[list(perm)])
    for _ in range(8):
        tie = rng.normal(size=(d, d))
        tie[:, 0] = rng.choice([-1.0, 1.0], size=d)
        cases.append(tie)
    if d == 3:
        # no swap at the first step, then a tie of +-1 at the second
        cases += [np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 2.0],
                            [1.0, -1.0, 3.0]]),
                  np.array([[1.0, 0.5, 0.0], [-1.0, 0.5, 2.0],
                            [1.0, -1.5, 3.0]])]
    zero_pivot = np.ones((d, d))
    zero_pivot[:, 0] = np.arange(1.0, d + 1)
    cases += [np.zeros((d, d)), zero_pivot, np.eye(d)[::-1] * 1.5,
              np.diag([1.0] + [1e-14] * (d - 1)),
              np.full((d, d), np.nan), np.diag([1e200] * (d - 1) + [0.0])]
    if d == 2:
        cases += [np.array([[0.1, 0.3], [0.3, 0.9]]),
                  np.array([[1.0, 2.0], [2.0, 4.0]]),
                  np.array([[0.0, 1.5], [1.5, 0.0]])]
    for case in cases[:6]:
        nan = case.copy()
        nan[rng.integers(d), rng.integers(d)] = np.nan
        cases.append(nan)
    return cases


@pytest.mark.parametrize("d", [1, 2, 3])
def test_emitted_stage_rule_is_the_loop_rule(rng, d):
    # the straight-line body does the loops' IEEE operations in their
    # order: the same acceleration bits, or the same exception type, on
    # every metric case, each with random force inputs, at rest, and with
    # no force at all on a negative velocity, where the sums' zeros carry
    # a sign that only the same order of operations keeps
    outcomes = collections.Counter()
    for g in _metric_cases(rng, d):
        for scale, v in ((1.0, rng.normal(size=d)), (1.0, np.zeros(d)),
                         (0.0, -np.abs(rng.normal(size=d)))):
            inputs = (g.tolist(), (scale * rng.normal(size=(d, d, d))).tolist(),
                      (scale * rng.normal(size=(d, d))).tolist(),
                      (scale * rng.normal(size=d)).tolist(), v.tolist())
            got = _rule_outcome(d, *inputs)
            assert _bits(got) == _bits(_loop_outcome(d, *inputs)), inputs
            outcomes[got if isinstance(got, type) else "acc"] += 1
    assert outcomes["acc"] > 0 and outcomes[SingularMetric] > 0


@pytest.mark.parametrize("model, x0, v0", [
    (make_polar_free_particle(mass=1.5), [1.0, 0.3], [0.4, 1.1]),
    (make_curled_metric(), [0.2, -0.1], [0.9, 0.4]),
    (make_skewed_metric(), [0.1, -0.2, 0.3], [0.5, 0.4, -0.6]),
], ids=["polar", "curled-metric", "skewed-metric-3"])
def test_general_rule_run_is_the_loop_rule_run(monkeypatch, model, x0, v0):
    # a whole run with a flow, over two blocks, against one driven by the
    # loop rule that records nothing, so its flow step reads metric,
    # metric_grad and vector_potential_grad again: the same bits
    n = 300
    _, states, tangents = _rk4_run(model, x0, v0, 0.0, 1.1, n, True)
    monkeypatch.setattr(dynamics, "_general_linearization", loop_linearization)
    _, ref, ref_tangents = _rk4_run(model, x0, v0, 0.0, 1.1, n, True)
    assert np.array_equal(states, ref)
    assert np.array_equal(tangents, ref_tangents)


@pytest.mark.parametrize("model, x_a, x_b, t_b", AFFINE_CASES, ids=AFFINE_IDS)
def test_step_map_flow_does_not_depend_on_the_seed(model, x_a, x_b, t_b):
    # the flow does not depend on the trajectory, so two step-map runs
    # from different seed velocities carry the same tangent bits, which
    # is what lets _newton keep the seed run's flow
    v0 = (np.asarray(x_b) - np.asarray(x_a)) / t_b
    _, seed, seed_flow = _rk4_run(model, x_a, v0, 0.0, t_b, 300, True)
    _, other, other_flow = _rk4_run(model, x_a, v0 + 0.7, 0.0, t_b, 300,
                                    True)
    assert not np.array_equal(seed, other)
    np.testing.assert_array_equal(seed_flow, other_flow)


def test_step_map_run_memory_stays_near_its_history():
    # the step maps are built in blocks, so beside the returned history
    # the run holds O(STEP_MAP_BLOCK) memory; unblocked, one
    # (2n + 1, 2D, 2D) stack alone would be 1.7 times the history
    model = magnetic_field(mass=1.5, omega=0.8, dim=3)
    tracemalloc.start()
    try:
        _, states, tangents = _rk4_run(model, [0.1, 0.0, -0.3],
                                       [1.0, -0.5, 0.2], 0.0, 1.4,
                                       MAX_N_STEPS, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert states.shape == (MAX_N_STEPS + 1, 6)
    assert tangents.shape == (MAX_N_STEPS + 1, 6, 6)
    assert peak <= 1.25 * (states.nbytes + tangents.nbytes)


def test_two_pass_run_holds_its_output_and_one_block(monkeypatch):
    # a nonlinear run passes over one block of STEP_MAP_BLOCK steps at a
    # time, so beside its output it holds an allowance that grows with the
    # block, not with n.  With blocks of 16 steps that is about 95 kB at
    # D = 3 with a flow, mostly the flow step's Jacobian stacks and the
    # block's stage record, 64 rows of 55 floats (28 kB), 14 kB at D = 1,
    # and 7 kB without a flow.  Both path passes: the general rule's
    # (D = 3) and the D = 1 float loop's.  A record of the whole run's
    # stages, 1760 B a step at D = 3 and 128 B at D = 1, would take each
    # of these runs past the allowance.  Small blocks let short runs show
    # it: tracemalloc traces every float the general rule's path pass
    # allocates.  The first general-rule run at a dimension compiles that
    # dimension's stage body once per process (a transient 0.5 MB at
    # D = 3), so each case runs once on a short grid before it is traced
    monkeypatch.setattr(dynamics, "STEP_MAP_BLOCK", 16)
    allowance = 125_000
    quartic = _expression_model("0.5 * x^2 + 0.3 * x^4")
    for model, x0, v0, n, flow in [
            (dataclasses.replace(magnetic_field(mass=1.5, omega=0.8, dim=3),
                                 affine_flow=False),
             [0.1, 0.0, -0.3], [1.0, -0.5, 0.2], 400, True),
            (quartic, [0.1], [1.2], 2_000, True),
            (quartic, [0.1], [1.2], 2_000, False)]:
        d = model.dim
        _rk4_run(model, x0, v0, 0.0, 1.4, 16, flow)
        tracemalloc.start()
        try:
            times, states, tangents = _rk4_run(model, x0, v0, 0.0, 1.4, n,
                                               flow)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert states.shape == (n + 1, 2 * d)
        assert tangents.shape == (1, 2 * d, 2 * d if flow else 0)
        output = times.nbytes + states.nbytes + tangents.nbytes
        assert peak <= output + allowance, (d, flow)


@pytest.mark.parametrize("model, x_a, x_b", [
    (make_quartic(), [0.0], [1.0]),
    (magnetic_field(mass=1.5, omega=0.8, dim=3), [0.1, 0.0, -0.3],
     [1.0, -0.5, 0.2]),
], ids=["quartic", "magnetic-3"])
def test_lazy_action_is_the_eager_arithmetic(model, x_a, x_b):
    path = solve_bvp(model, x_a, x_b, 0.0, 0.9, n_steps=200)
    assert "action" not in vars(path)
    # the expression solve_bvp evaluated before the action became lazy
    traj = Trajectory(path.times, path.positions, path.velocities)
    eager = (simpson_action(model, traj)
             - float(path.p_b @ (path.positions[-1] - path.x_b)))
    assert path.action == eager
    assert vars(path)["action"] == eager


@pytest.mark.parametrize("model, x_a, x_b, t_b", AFFINE_CASES, ids=AFFINE_IDS)
def test_superposed_path_is_the_run_from_its_velocity(model, x_a, x_b, t_b):
    # an independent check of the superposition: integrating from the
    # returned v_a reproduces the stored samples and hits x_b
    path = solve_bvp(model, x_a, x_b, 0.0, t_b)
    rerun = integrate_ivp(model, path.x_a, path.v_a, 0.0, t_b)
    scale = np.max(np.abs(path.positions))
    assert np.max(np.abs(rerun.positions - path.positions)) <= 1e-12 * scale
    vscale = np.max(np.abs(path.velocities))
    assert (np.max(np.abs(rerun.velocities - path.velocities))
            <= 1e-12 * vscale)
    assert np.max(np.abs(rerun.positions[-1] - path.x_b)) <= dynamics.DEFAULT_TOL


def test_affine_seed_within_tolerance_is_accepted_as_it_stands(monkeypatch):
    model, x_a, x_b, t_b = AFFINE_CASES[2]
    path = solve_bvp(model, x_a, x_b, 0.0, t_b, n_steps=200)
    steps = _count_runs(monkeypatch)
    again = solve_bvp(model, x_a, x_b, 0.0, t_b, v0_guess=path.v_a,
                      n_steps=200)
    assert steps == [200]
    _, states, tangents = _rk4_run(model, x_a, path.v_a, 0.0, t_b, 200,
                                   True)
    np.testing.assert_array_equal(again.positions, states[:, :model.dim])
    np.testing.assert_array_equal(again.flow, tangents[-1])


def _loop_action(model, traj):
    """Reference Simpson action: three callbacks at each grid sample."""
    lag = [0.5 * v @ model.metric(x, t) @ v + v @ model.vector_potential(x, t)
           - model.potential(x, t)
           for x, v, t in zip(traj.positions, traj.velocities, traj.times)]
    h = (traj.times[-1] - traj.times[0]) / (len(traj.times) - 1)
    return dynamics.simpson(lag, h), dynamics.simpson(np.abs(lag), h)


@pytest.mark.parametrize("model, x_a, x_b, t_b", AFFINE_CASES + [
    (make_quartic(), [0.0], [1.0], 0.8),
    (make_polar_free_particle(), [1.0, 0.2], [1.2, 0.9], 1.1),
    (make_curled_metric(), [0.2, -0.1], [0.9, 0.4], 0.7),
], ids=AFFINE_IDS + ["quartic", "polar", "curled-metric"])
def test_simpson_action_matches_the_per_sample_loop(model, x_a, x_b, t_b):
    path = solve_bvp(model, x_a, x_b, 0.0, t_b, n_steps=200)
    traj = Trajectory(path.times, path.positions, path.velocities)
    reference, scale = _loop_action(model, traj)
    assert abs(simpson_action(model, traj) - reference) <= 1e-14 * scale


def test_grid_consumers_make_one_call_per_block(monkeypatch):
    # a stacked model: the sampler reads the potential once per block of
    # STEP_MAP_BLOCK steps, the action each callback once (the constant
    # metric too), and the Gelfand-Yaglom frequency potential_hess once
    # per block
    model = build_model({"tag": "harmonic_oscillator", "params": {
        "omega2": "(1 + 0.2*sin(t))^2"}}, 1.0)[0]
    calls = collections.Counter()

    def counted(name, fn):
        def callback(x, t):
            calls[name, "stacked" if np.ndim(t) else "point"] += 1
            return fn(x, t)
        return stacked(callback)

    model = dataclasses.replace(model, **{
        name: counted(name, getattr(model, name)) for name in (
            "metric", "metric_grad", "vector_potential",
            "vector_potential_grad", "potential", "potential_grad",
            "potential_hess")})
    n = 1000
    blocks = -(-n // dynamics.STEP_MAP_BLOCK)
    path = solve_bvp(model, [0.0], [1.0], 0.0, 1.2, n_steps=n)
    assert calls["potential_hess", "stacked"] == blocks
    assert calls["potential_grad", "stacked"] == blocks
    calls.clear()
    path.action
    assert calls == {("metric", "stacked"): 1,
                     ("vector_potential", "stacked"): 1,
                     ("potential", "stacked"): 1}
    calls.clear()
    solve_B_direct(frequency_matrix_along_path(path), 0.0, 1.2, n_steps=n)
    # one more for the probe that reads D; the field scan is one
    assert calls["potential_hess", "stacked"] == blocks + 1
    assert calls["vector_potential_grad", "stacked"] == 1
    assert not any(kind == "point" for name, kind in calls
                   if name.startswith(("potential", "vector_potential")))
