from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from vanvleck import (
    CausticRegion,
    FocalPoint,
    NonFiniteResult,
    NonSPDMass,
    NotQuadraticModel,
    TurningPoint,
    energy_hessian_factor,
    free_particle,
    free_particle_factor,
    general_factor,
    gy_fluctuation_factor,
    harmonic_constant_factor,
    harmonic_oscillator,
    magnetic_factor,
    magnetic_field,
    one_dim_dalembert_factor,
    one_dim_potential,
    action_hessian_jacobi,
    short_time_factor,
    solve_B_direct,
    solve_bvp,
    vvpm_factor,
)
from vanvleck import compose, dynamics, frequency_matrix_along_path
from vanvleck.fluctuation import prefactor
from vanvleck.hessian import ActionHessian, flow_seed, variational_blocks
from vanvleck.models import central_hessian

from conftest import (AFFINE_CASES, AFFINE_IDS, action_hessian_fd,
                      inverse_square_oracle, make_inverse_square)


def _plain_hessian(mixed):
    mixed = np.atleast_2d(np.asarray(mixed, dtype=float))
    return ActionHessian(mixed=mixed, aa=mixed, bb=mixed)


def test_vvpm_unit_mixed():
    f = vvpm_factor(_plain_hessian(1.0))
    assert abs(f.value) == pytest.approx(0.3989422804014327, abs=1e-15)
    assert np.angle(f.value) == pytest.approx(-np.pi / 4, abs=1e-15)


def test_vvpm_harmonic_quarter_period_magnitude():
    mixed = 1.0 / np.sin(np.pi / 2)
    f = vvpm_factor(_plain_hessian(mixed))
    assert abs(f.value) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-15)
    assert np.angle(f.value) == pytest.approx(-np.pi / 4, abs=1e-15)


def test_vvpm_free_two_dim_matrix_mass():
    # det(M/T) = 4/4 = 1 -> |F| = sqrt(det M)/(2 pi T) = 2/(4 pi)
    f = vvpm_factor(_plain_hessian(np.diag([0.5, 2.0])))
    assert abs(f.value) == pytest.approx(0.15915494309189535, abs=1e-15)
    assert np.angle(f.value) == pytest.approx(-np.pi / 2, abs=1e-15)


def test_vvpm_caustic_region_on_nonpositive_determinant():
    with pytest.raises(CausticRegion):
        vvpm_factor(_plain_hessian(-2.0))
    with pytest.raises(CausticRegion):
        vvpm_factor(_plain_hessian(np.diag([1.0, -1.0])))


def test_short_time_scalar_metric():
    model = free_particle(mass=1.0, dim=1)
    f = short_time_factor(model, [0.0], 0.0, 0.01)
    assert abs(f.value) == pytest.approx(10.0 / np.sqrt(2 * np.pi), rel=1e-14)
    assert np.angle(f.value) == pytest.approx(-np.pi / 4, abs=1e-14)


def test_short_time_matrix_metric():
    model = free_particle(mass=np.diag([1.0, 2.0]))
    f = short_time_factor(model, [0.0, 0.0], 0.0, 0.1)
    assert abs(f.value) == pytest.approx(np.sqrt(2.0) * 10.0 / (2 * np.pi),
                                         rel=1e-14)


def test_short_time_approaches_vvpm(quartic):
    dt = 1e-3
    path = solve_bvp(quartic, [0.2], [0.2005], 0.0, dt, n_steps=64)
    full = vvpm_factor(action_hessian_jacobi(path))
    st = short_time_factor(quartic, [0.2], 0.0, dt)
    assert abs(st.value - full.value) / abs(full.value) < 1e-3


def test_energy_hessian_free_particle():
    m = np.diag([1.0, 3.0])
    model = free_particle(mass=m)
    path = solve_bvp(model, [0.0, 0.0], [1.0, 0.5], 0.0, 2.0, n_steps=200)
    f = energy_hessian_factor(path)
    expected = np.sqrt(np.linalg.det(m)) / (2 * np.pi * 2.0)
    assert abs(f.value) == pytest.approx(expected, rel=1e-10)
    assert np.angle(f.value) == pytest.approx(-np.pi / 2, abs=1e-9)


def test_energy_hessian_matches_vvpm_on_harmonic():
    model = harmonic_oscillator(mass=1.0, omega2=2.25, dim=1)
    path = solve_bvp(model, [0.1], [0.9], 0.0, 1.0)
    eh = energy_hessian_factor(path)
    vv = vvpm_factor(action_hessian_jacobi(path))
    assert abs(eh.value - vv.value) / abs(vv.value) < 1e-6


def test_energy_hessian_matches_vvpm_on_magnetic():
    model = magnetic_field(mass=1.0, omega=1.2, dim=2)
    path = solve_bvp(model, [0.0, 0.0], [0.8, -0.1], 0.0, 1.0)
    eh = energy_hessian_factor(path)
    vv = vvpm_factor(action_hessian_jacobi(path))
    assert abs(eh.value - vv.value) / abs(vv.value) < 1e-6


def _fine_runs(monkeypatch):
    steps = []
    real_run = dynamics._rk4_run

    def counted(model, x0, v0, t_a, t_b, n_steps, flow):
        steps.append(n_steps)
        return real_run(model, x0, v0, t_a, t_b, n_steps, flow)

    monkeypatch.setattr(dynamics, "_rk4_run", counted)
    return steps


def test_flow_seeded_stencils_take_one_run_per_solve(monkeypatch):
    # a two-dimensional coupled oscillator with a matrix mass: the endpoint
    # map is affine, so the flow's prediction is each FD solve's first
    # run, and the energy route reads its stencil energies off the flow
    model = harmonic_oscillator(mass=[[2.0, 0.3], [0.3, 1.0]],
                                stiffness=[[1.0, 0.2], [0.2, 3.0]])
    path = solve_bvp(model, [0.1, -0.2], [0.7, 0.4], 0.0, 1.1)
    steps = _fine_runs(monkeypatch)
    eh = energy_hessian_factor(path)
    assert steps == []
    action_hessian_fd(path)
    assert steps == [path.n_steps] * (8 * 2**2 + 1)
    vv = vvpm_factor(action_hessian_jacobi(path))
    assert abs(eh.value - vv.value) / abs(vv.value) < 1e-6


def _resolved_energy_hessian_factor(path):
    """Reference energy route: each stencil energy from a flow-seeded
    boundary problem re-solved to 1e-13 on the path's grid."""
    model = path.model
    h = 0.05 * max(1.0, float(np.linalg.norm(path.x_b - path.x_a)))

    def energy(xb):
        return solve_bvp(model, path.x_a, xb, path.t_a, path.t_b,
                         v0_guess=flow_seed(path, path.x_a, xb),
                         n_steps=path.n_steps, tol=1e-13).energy_a

    ehess = central_hessian(energy, path.x_b, h, path.energy_a)
    sign_g, log_g = np.linalg.slogdet(model.metric(path.x_a, path.t_a))
    sign_e, log_e = np.linalg.slogdet(ehess)
    sign_pxv = np.linalg.slogdet(variational_blocks(path)[1])[0]
    return prefactor(sign_g * sign_pxv * abs(sign_e), 0.5 * (log_g + log_e),
                     model.dim, model.hbar, "energy").value


ENERGY_IDS = ["ho2-matrix-mass", "magnetic-3", "time-dependent-omega2",
              "expression-driven"]


@pytest.mark.parametrize(
    "model, x_a, x_b, t_b",
    [AFFINE_CASES[AFFINE_IDS.index(name)] for name in ENERGY_IDS],
    ids=ENERGY_IDS)
def test_energy_route_is_the_seeded_resolve_without_runs(monkeypatch, model,
                                                         x_a, x_b, t_b):
    # each seeded re-solve accepts its seed, so its energy is the
    # Hamiltonian at the seed: the route computes that with no run, and
    # no action either, since it reads only energies
    path = solve_bvp(model, x_a, x_b, 0.0, t_b)
    reference = _resolved_energy_hessian_factor(path)
    steps = _fine_runs(monkeypatch)
    calls = []
    real = dynamics.simpson_action

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dynamics, "simpson_action", counted)
    assert energy_hessian_factor(path).value == reference
    assert steps == [] and calls == []
    # the counters do see a solve and the path's own action
    solve_bvp(model, x_a, x_b, 0.0, t_b)
    assert np.isfinite(path.action)
    assert steps == [path.n_steps] and len(calls) == 1


def test_energy_hessian_rejects_anharmonic(quartic):
    path = solve_bvp(quartic, [0.0], [1.0], 0.0, 0.5)
    with pytest.raises(NotQuadraticModel):
        energy_hessian_factor(path)


def test_energy_hessian_rejects_an_unflagged_quadratic_model():
    # the route reads the model's affine_flow flag; it does not sample V
    model = one_dim_potential(lambda x, t: 0.5 * x * x, lambda x, t: x,
                              lambda x, t: 1.0)
    assert not model.affine_flow
    path = solve_bvp(model, [0.0], [1.0], 0.0, 1.2)
    with pytest.raises(NotQuadraticModel):
        energy_hessian_factor(path)


def test_general_factor_free_particle():
    model = free_particle(mass=1.0, dim=1)
    path = solve_bvp(model, [0.0], [1.0], 0.0, 2.0, n_steps=100)
    f = general_factor(path)
    assert abs(f.value) == pytest.approx(1.0 / np.sqrt(4 * np.pi), rel=1e-12)
    assert f.phase == pytest.approx(-np.pi / 4, abs=1e-12)


def test_general_equals_vvpm_harmonic():
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    path = solve_bvp(model, [0.0], [1.0], 0.0, 0.7)
    g = general_factor(path)
    v = vvpm_factor(action_hessian_jacobi(path))
    assert abs(g.value - v.value) / abs(v.value) < 1e-12


def test_general_equals_vvpm_quartic(quartic):
    path = solve_bvp(quartic, [0.0], [1.0], 0.0, 0.4)
    g = general_factor(path)
    v = vvpm_factor(action_hessian_jacobi(path))
    assert abs(g.value - v.value) / abs(v.value) < 1e-10


def test_hbar_scaling_is_exact():
    mags = []
    for hbar in (0.5, 1.0, 2.0):
        f = vvpm_factor(_plain_hessian(np.diag([1.0, 2.0, 0.7])), hbar=hbar)
        mags.append(abs(f.value) * hbar ** 1.5)
    np.testing.assert_allclose(mags, mags[0], rtol=1e-14)


def test_phase_window_before_caustic():
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    for t_tot in (0.4, 1.5, 2.8):
        path = solve_bvp(model, [0.0], [0.3], 0.0, t_tot)
        f = vvpm_factor(action_hessian_jacobi(path))
        lo = -np.pi / 4 - np.pi / 2
        hi = -np.pi / 4 + np.pi / 2
        assert lo < np.angle(f.value) <= hi


def test_branch_note_present():
    f = vvpm_factor(_plain_hessian(1.0))
    d = f.as_dict()
    assert "principal" in d["branch_note"]
    assert set(d) == {"re", "im", "magnitude", "phase", "branch_note"}


def _past_first_focal_time():
    # omega T = 4 lies between pi and 2 pi, so det(mixed) = 1 / sin 4 < 0
    return solve_bvp(harmonic_oscillator(omega2=1.0), [0.0], [0.3], 0.0, 4.0)


def _indefinite_metric():
    return replace(free_particle(dim=2), label="indefinite",
                   metric=lambda x, t: np.diag([1.0, -1.0]))


# route -> (call, documented error).  The energy route takes the sign of
# det(mixed) from the flow, so it refuses what vvpm refuses.  The closed
# forms and the d'Alembert reduction refuse before their determinant is
# formed.
REFUSALS = {
    "vvpm": (lambda: vvpm_factor(action_hessian_jacobi(
        _past_first_focal_time())), CausticRegion),
    "general": (lambda: general_factor(_past_first_focal_time()),
                CausticRegion),
    "gelfand-yaglom": (lambda: gy_fluctuation_factor(
        solve_B_direct(1.0, 0.0, 4.0), 1.0), FocalPoint),
    "short-time": (lambda: short_time_factor(
        _indefinite_metric(), [0.0, 0.0], 0.0, 1.0), CausticRegion),
    "energy-hessian": (lambda: energy_hessian_factor(
        _past_first_focal_time()), CausticRegion),
    "energy-hessian-indefinite": (lambda: energy_hessian_factor(solve_bvp(
        _indefinite_metric(), [0.0, 0.0], [1.0, 1.0], 0.0, 1.0)),
        CausticRegion),
    "analytic-free": (lambda: free_particle_factor(-1.0, 1.0), NonSPDMass),
    "analytic-harmonic": (lambda: harmonic_constant_factor(1.0, 1.0, 4.0),
                          FocalPoint),
    "analytic-magnetic": (lambda: magnetic_factor(1.0, 1.0, 2, 7.0),
                          FocalPoint),
    "dalembert": (lambda: one_dim_dalembert_factor(_past_first_focal_time()),
                  TurningPoint),
}


@pytest.mark.parametrize("route", sorted(REFUSALS))
def test_each_route_refuses_a_nonpositive_determinant(route):
    call, error = REFUSALS[route]
    with pytest.raises(error):
        call()


# (sign, log|det|) pairs as numpy.linalg.slogdet gives them, keyed by det
@pytest.mark.parametrize("sign, log_det, message", [
    (0.0, -np.inf, "0.000e+00"), (-1.0, 0.0, "-1.000e+00"),
    (-1.0, -1000.0, "-e^-1000")], ids=["0.0", "-1.0", "-e^-1000"])
def test_prefactor_refuses_a_determinant_that_is_not_positive(
        sign, log_det, message):
    with pytest.raises(CausticRegion, match=re.escape(
            f"determinant is {message}, not positive")):
        prefactor(sign, log_det, 1, 1.0, "test")


def _junction(block):
    """``compose`` of two segments whose junction Hessian is ``block``,
    with F_L F_R = (2 pi i)^(-D/2), so the joined F is det(block)^(-1/2)."""
    d = len(block)
    zero, eye = np.zeros((d, d)), np.eye(d)
    left = ActionHessian(mixed=eye, aa=zero, bb=np.asarray(block, float))
    right = ActionHessian(mixed=eye, aa=zero, bb=zero)
    fresnel = (2.0 * np.pi) ** (-0.5 * d) * np.exp(-0.25j * np.pi * d)
    return compose(left, right, fresnel, 1.0, 1.0)[1]


@pytest.mark.parametrize("diagonal, want", [
    ((4.0, 9.0), 1 / 6), ((-4.0, 9.0), -1j / 6), ((-4.0, -9.0), -1 / 6)])
def test_junction_rule_takes_minus_i_per_negative_eigenvalue(diagonal, want):
    assert _junction(np.diag(diagonal)) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("block, error, message", [
    (np.diag([0.0, 9.0]), CausticRegion, "singular"),
    (np.array([[4.0, 1.0], [0.0, 9.0]]), ValueError, "symmetric")],
    ids=["singular", "non-symmetric"])
def test_junction_rule_refuses_a_singular_or_non_symmetric_block(
        block, error, message):
    with pytest.raises(error, match=message):
        _junction(block)


def test_junction_rule_joins_factors_beyond_the_double_range():
    # det J = 1e-600 and F_L F_R = 1e-300: F = 1e0, though det J underflows
    eye = np.eye(3)
    left = ActionHessian(mixed=eye, aa=eye, bb=np.full(3, 0.5e-200) * eye)
    right = ActionHessian(mixed=eye, aa=np.full(3, 0.5e-200) * eye, bb=eye)
    fresnel = (2.0 * np.pi) ** -1.5 * np.exp(-0.75j * np.pi)
    value = compose(left, right, 1e-300 * fresnel, 1.0, 1.0)[1]
    assert value == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("error", [CausticRegion, FocalPoint])
@pytest.mark.parametrize("sign, log_det", [
    (np.nan, np.nan), (1.0, np.inf), (-1.0, np.inf), (-1.0, 1500.0)],
    ids=["nan", "inf", "-inf", "-e^1500"])
def test_prefactor_refuses_a_non_finite_determinant(sign, log_det, error):
    # an overflow, not a caustic or a focal point, whatever the route's error
    with pytest.raises(NonFiniteResult, match="not finite"):
        prefactor(sign, log_det, 1, 1.0, "test", error=error)


def test_prefactor_forms_its_root_in_logarithms():
    # det = e^1400 overflows a double, F = e^700 / sqrt(2 pi) does not
    value = prefactor(1.0, 1400.0, 1, 1.0, "test").value
    assert abs(value) == pytest.approx(np.exp(700.0) / np.sqrt(2 * np.pi),
                                       rel=1e-13)
    assert np.angle(value) == pytest.approx(-np.pi / 4, abs=1e-15)


# (g, m, x_a, x_b, T) of direct paths of V = g / (2 x^2), each with a
# velocity of one sign, so the dalembert reduction applies
INVERSE_SQUARE_CASES = [(0.2, 1.0, 1.0, 1.5, 0.8), (0.5, 2.0, 0.6, 1.4, 1.0),
                        (1.0, 0.5, 0.8, 1.6, 0.6), (2.0, 1.0, 1.2, 2.5, 1.5),
                        (1.5, 1.5, 1.5, 0.9, 0.7), (0.8, 0.7, 2.0, 2.2, 1.2)]


def _inverse_square_errors(case, n_steps):
    """The relative errors of each route's F, the action and v_a on the
    direct path of ``case`` against ``inverse_square_oracle``."""
    g, m, x_a, x_b, duration = case
    exact = inverse_square_oracle(*case)
    path = solve_bvp(make_inverse_square(g, m), [x_a], [x_b], 0.0, duration,
                     n_steps=n_steps)
    b_dot_a = solve_B_direct(frequency_matrix_along_path(path), 0.0,
                             duration, n_steps=n_steps)
    factors = {
        "vvpm": vvpm_factor(action_hessian_jacobi(path)),
        "general": general_factor(path),
        "gelfand-yaglom": gy_fluctuation_factor(b_dot_a, m),
        "dalembert": one_dim_dalembert_factor(path).factor,
    }
    errors = {name: abs(f.value - exact["factor"]) / abs(exact["factor"])
              for name, f in factors.items()}
    errors["action"] = abs(path.action - exact["action"]) / abs(exact["action"])
    errors["v_a"] = abs(path.v_a[0] - exact["v_a"]) / abs(exact["v_a"])
    return errors


@pytest.mark.parametrize("case", INVERSE_SQUARE_CASES)
def test_nonlinear_routes_meet_the_inverse_square_closed_form(case):
    # an exact oracle for the nonlinear pipeline: every route's F, the
    # action and the initial velocity of the direct path, at 1000 steps;
    # the dalembert reduction integrates 1/v^2 by Simpson's rule, so it
    # is a few decades less exact than the flow routes
    errors = _inverse_square_errors(case, 1000)
    bounds = {"vvpm": 1e-12, "general": 1e-12, "gelfand-yaglom": 1e-12,
              "dalembert": 1e-9, "action": 1e-10, "v_a": 1e-11}
    assert all(errors[name] <= bound for name, bound in bounds.items()), errors


@pytest.mark.parametrize("case", [(2.0, 1.0, 1.2, 2.5, 1.5),
                                  (1.0, 0.5, 0.8, 1.6, 0.6)])
def test_inverse_square_factor_error_is_fourth_order(case):
    # four times the steps cut vvpm's error by 4^4 = 256, within the
    # spread that roundoff and the next order leave
    ratio = (_inverse_square_errors(case, 250)["vvpm"]
             / _inverse_square_errors(case, 1000)["vvpm"])
    assert 100.0 <= ratio <= 400.0


def test_inverse_square_swinging_path_is_refused():
    # seeded at the path that swings toward the origin, Newton converges
    # to it, and its Morse index 1 makes det(-d2A/dx_a dx_b) negative:
    # both determinant routes refuse it
    g, m, x_a, x_b, duration = case = (0.5, 1.0, 1.0, 1.5, 0.8)
    exact = inverse_square_oracle(*case, root=-1.0)
    path = solve_bvp(make_inverse_square(g, m), [x_a], [x_b], 0.0, duration,
                     v0_guess=[exact["v_a"]])
    assert path.v_a[0] == pytest.approx(exact["v_a"], rel=1e-9)
    with pytest.raises(CausticRegion):
        vvpm_factor(action_hessian_jacobi(path))
    with pytest.raises(CausticRegion):
        general_factor(path)
