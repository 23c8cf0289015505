from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from vanvleck import (
    BUILTIN_TAGS,
    NonSPDMass,
    builtin_model,
    evaluate_hamiltonian,
    evaluate_lagrangian,
    free_particle,
    frequency_matrix_along_path,
    harmonic_oscillator,
    legendre_momentum,
    magnetic_field,
    one_dim_potential,
    solve_bvp,
)
from vanvleck.cli import build_model
from vanvleck.expressions import compile_potential
from vanvleck.models import (FD_STEP, along, central_hessian, is_stacked,
                             mass_matrix, metric_is_constant, metric_solve,
                             stacked, velocity_from_momentum)

from conftest import make_polar_free_particle, make_quartic, random_spd


def test_free_particle_lagrangian_and_momentum():
    model = free_particle(mass=3.0, dim=1)
    assert evaluate_lagrangian(model, [0.0], [2.0], 0.0) == pytest.approx(6.0)
    assert legendre_momentum(model, [0.0], [2.0], 0.0) == pytest.approx([6.0])


def test_free_particle_hamiltonian():
    model = free_particle(mass=2.0, dim=1)
    assert evaluate_hamiltonian(model, [0.0], [2.0], 0.0) == pytest.approx(1.0)


def test_harmonic_lagrangian_at_turning_point():
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    assert evaluate_lagrangian(model, [1.0], [0.0], 0.0) == pytest.approx(-0.5)


def test_magnetic_lagrangian_example():
    model = magnetic_field(mass=1.0, omega=1.0, dim=2)
    val = evaluate_lagrangian(model, [1.0, 0.0], [0.0, 1.0], 0.0)
    assert val == pytest.approx(-0.5)


def test_magnetic_hamiltonian_example():
    model = magnetic_field(mass=1.0, omega=1.0, dim=2)
    val = evaluate_hamiltonian(model, [1.0, 0.0], [0.0, 1.0], 0.0)
    assert val == pytest.approx(2.0)


def test_magnetic_momentum_includes_gauge_term():
    model = magnetic_field(mass=1.0, omega=1.0, dim=2)
    p = legendre_momentum(model, [1.0, 0.0], [1.0, 1.0], 0.0)
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-14)


def test_matrix_mass_free_particle():
    m = np.array([[2.0, 0.5], [0.5, 1.0]])
    model = free_particle(mass=m)
    v = np.array([1.0, -1.0])
    np.testing.assert_allclose(
        legendre_momentum(model, [0.0, 0.0], v, 0.0), m @ v, atol=1e-14)
    assert evaluate_lagrangian(model, [0.0, 0.0], v, 0.0) == pytest.approx(
        0.5 * v @ m @ v)


@pytest.mark.parametrize("text, affine", [
    ("0.5 * x^2", True), ("x^2 + t*x/4", True),
    ("0.3*(1 + 0.2*sin(t))*(x - 0.5)^2", True),
    ("0.25*x^4", False), ("0*x^4", False), ("sin(x)", False)])
def test_library_and_cli_build_the_same_expression_model(text, affine):
    # one_dim_potential flags a compiled expression of degree <= 2 itself,
    # so the library's model and the CLI's take the same integrator
    library = one_dim_potential(*compile_potential(text))
    config = build_model({"tag": "one_dim_potential",
                          "params": {"potential": text}}, 1.0)[0]
    assert library.affine_flow is config.affine_flow is affine
    paths = [solve_bvp(model, [0.0], [1.0], 0.0, 1.2, n_steps=64)
             for model in (library, config)]
    np.testing.assert_array_equal(paths[0].positions, paths[1].positions)
    np.testing.assert_array_equal(paths[0].flow, paths[1].flow)


def test_a_potential_without_a_usable_tree_is_not_affine():
    # a callable without a tree, or one too deep for ``degree``, takes
    # the nonlinear rule, which is correct for every potential
    assert not make_quartic().affine_flow

    class TooDeep:
        def degree(self):
            raise RecursionError

    v, dv, d2v = compile_potential("0.5 * x^2")
    v.node = TooDeep()
    assert not one_dim_potential(v, dv, d2v).affine_flow


def _default_params(tag):
    if tag == "one_dim_potential":
        v, dv, d2v = compile_potential("0.25 * x^4")
        return {"potential": v, "potential_grad": dv, "potential_hess": d2v,
                "mass": 1.0}
    if tag == "harmonic_oscillator":
        return {"mass": 1.0, "omega2": 2.0, "dim": 2}
    if tag == "magnetic_field":
        return {"mass": 1.3, "omega": 0.7, "dim": 3}
    return {"mass": 1.5, "dim": 2}


def test_builtin_tags_construct_and_list_params():
    for tag, entry in BUILTIN_TAGS.items():
        assert "params" in entry
        model = builtin_model(tag, **_default_params(tag))
        assert model.dim >= 1


def test_builtin_model_rejects_unknown_tag():
    with pytest.raises(ValueError):
        builtin_model("not_a_model")


def test_legendre_duality_all_builtins(rng):
    # H(x, p(v)) + L(x, v) = p . v for every model of the family
    models = [
        free_particle(mass=random_spd(rng, 2)),
        harmonic_oscillator(mass=1.0, stiffness=random_spd(rng, 2), dim=2),
        magnetic_field(mass=1.2, omega=0.9, dim=2),
        make_quartic(),
    ]
    for model in models:
        for _ in range(50):
            x = rng.normal(size=model.dim)
            v = rng.normal(size=model.dim)
            t = rng.normal()
            p = legendre_momentum(model, x, v, t)
            h = evaluate_hamiltonian(model, x, p, t)
            lag = evaluate_lagrangian(model, x, v, t)
            assert abs(h + lag - p @ v) < 1e-12 * (1.0 + abs(p @ v))


def test_legendre_round_trip(rng):
    models = [
        free_particle(mass=random_spd(rng, 3)),
        magnetic_field(mass=0.8, omega=1.4, dim=3),
        make_quartic(),
    ]
    for model in models:
        for _ in range(30):
            x = rng.normal(size=model.dim)
            v = rng.normal(size=model.dim)
            t = rng.normal()
            p = legendre_momentum(model, x, v, t)
            back = velocity_from_momentum(model, x, p, t)
            np.testing.assert_allclose(back, v, atol=1e-12)


def fd_jacobian(vf, shape):
    """Central-difference x-Jacobian of a field vf(x, t), the oracle of
    the derivative probe.  For a scalar field, ``shape`` (D,) gives the
    gradient."""

    def jac(x, t):
        x = np.asarray(x, dtype=float)
        h = FD_STEP * max(1.0, float(np.max(np.abs(x))))
        cols = []
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = h
            cols.append((np.asarray(vf(x + e, t))
                         - np.asarray(vf(x - e, t))) / (2 * h))
        return np.stack(cols, axis=-1).reshape(shape)

    return jac


def probe_derivative_consistency(model, rng, n_points):
    """Max deviation of each supplied derivative from central differences
    of the callback it differentiates, over random points in [-1, 1]^D and
    times in [-1, 1]; ``metric_symmetry`` is max |g - g^T|, and
    ``potential_hess`` also covers its own asymmetry.
    """
    d = model.dim
    numeric = {
        "metric_grad": fd_jacobian(model.metric, (d, d, d)),
        "potential_grad": fd_jacobian(model.potential, (d,)),
        "potential_hess": fd_jacobian(model.potential_grad, (d, d)),
        "vector_potential_grad": fd_jacobian(model.vector_potential, (d, d)),
    }
    worst = dict.fromkeys(["metric_symmetry", *numeric], 0.0)
    for _ in range(n_points):
        x = rng.uniform(-1.0, 1.0, size=d)
        t = rng.uniform(-1.0, 1.0)
        g = np.asarray(model.metric(x, t))
        hv = np.asarray(model.potential_hess(x, t))
        worst["metric_symmetry"] = max(worst["metric_symmetry"],
                                       float(np.max(np.abs(g - g.T))))
        worst["potential_hess"] = max(worst["potential_hess"],
                                      float(np.max(np.abs(hv - hv.T))))
        for name, num in numeric.items():
            approx = num(x, t)
            if name == "metric_grad":
                # fd_jacobian differentiates along the last axis; [k, i, j]
                approx = np.moveaxis(approx.reshape(d, d, d), -1, 0)
            dev = np.abs(np.asarray(getattr(model, name)(x, t)) - approx)
            worst[name] = max(worst[name], float(np.max(dev)))
    return worst


def test_derivative_probe_all_builtins(rng):
    models = [
        free_particle(mass=2.0, dim=2),
        harmonic_oscillator(mass=1.0, omega2=1.5, dim=2),
        magnetic_field(mass=1.0, omega=1.0, dim=2),
        make_quartic(),
    ]
    for model in models:
        report = probe_derivative_consistency(model, rng=rng, n_points=100)
        assert max(report.values()) < 1e-5, (model.label, report)


def test_metric_solve_matches_dense_solve(rng):
    m = random_spd(rng, 3)
    model = free_particle(mass=m)
    rhs = rng.normal(size=3)
    np.testing.assert_allclose(
        metric_solve(model, np.zeros(3), 0.0, rhs),
        np.linalg.solve(m, rhs), atol=1e-12)


def test_metric_is_constant_needs_the_flag_and_a_zero_gradient():
    model = free_particle(mass=[[2.0, 0.3], [0.3, 1.0]])
    assert metric_is_constant(model, [0.3, -0.1], 0.0)
    # the same constant metric, unflagged: the test trusts only the flag
    assert not metric_is_constant(
        dataclasses.replace(model, kinetic_gradients_constant=False),
        [0.3, -0.1], 0.0)
    polar = make_polar_free_particle()
    assert not metric_is_constant(polar, [1.0, 0.2], 0.0)
    # flagged but with a metric_grad that does not vanish
    assert not metric_is_constant(
        dataclasses.replace(polar, kinetic_gradients_constant=True),
        [1.0, 0.2], 0.0)


def test_time_dependent_omega2_callable():
    model = harmonic_oscillator(mass=1.0, omega2=lambda t: (1.0 + 0.2 * np.sin(t)) ** 2, dim=1)
    # potential_hess along x is the instantaneous squared frequency
    assert model.potential_hess(np.array([0.3]), 0.7)[0, 0] == pytest.approx(
        (1.0 + 0.2 * np.sin(0.7)) ** 2)


def test_magnetic_requires_dim_at_least_two():
    with pytest.raises(ValueError):
        magnetic_field(mass=1.0, omega=1.0, dim=1)


@pytest.mark.parametrize("mass", [
    0.0, -1.0, [[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]]])
def test_mass_matrix_requires_symmetric_positive_definite(mass):
    with pytest.raises(NonSPDMass):
        mass_matrix(mass)


@pytest.mark.parametrize("build", [
    lambda m: free_particle(mass=m, dim=2),
    lambda m: harmonic_oscillator(mass=m, omega2=1.0, dim=2),
    lambda m: magnetic_field(mass=m, omega=1.0, dim=2),
    lambda m: one_dim_potential(lambda x, t: x * x, lambda x, t: 2.0 * x,
                                lambda x, t: 2.0, mass=m),
], ids=["free_particle", "harmonic_oscillator", "magnetic_field",
        "one_dim_potential"])
@pytest.mark.parametrize("mass", [0.0, -1.0])
def test_builtins_reject_non_positive_mass(build, mass):
    with pytest.raises(NonSPDMass):
        build(mass)


def test_central_hessian_exact_on_quadratic():
    # dyadic coefficients, point and step: every stencil operation is exact
    a = np.array([[2.0, -0.5, 0.25], [-0.5, 3.0, 1.5], [0.25, 1.5, -1.0]])
    b = np.array([0.5, -1.0, 2.0])
    calls = []

    def f(x):
        calls.append(x)
        return 0.5 * x @ a @ x + b @ x + 4.0

    x0 = np.array([0.5, -1.25, 2.0])
    hess = central_hessian(f, x0, 0.5, f(x0))
    np.testing.assert_array_equal(hess, a)
    assert len(calls) == 1 + 2 * 3**2


# ---------------------------------------------------------------------------
# stacked callbacks

CALLBACKS = ("metric", "metric_grad", "vector_potential",
             "vector_potential_grad", "potential", "potential_grad",
             "potential_hess")


def _config_model(tag, **params):
    return build_model({"tag": tag, "params": params}, 1.0)[0]


def _stacked_builtins():
    rng = np.random.default_rng(11)
    cases = []
    for d in (1, 2, 3):
        mass = random_spd(rng, d)
        cases += [
            (f"free-{d}", free_particle(mass=mass)),
            (f"omega2-{d}", harmonic_oscillator(mass=mass, omega2=1.7)),
            (f"stiffness-{d}", harmonic_oscillator(
                mass=mass, stiffness=random_spd(rng, d))),
            (f"omega2-callable-{d}", harmonic_oscillator(
                mass=mass, omega2=lambda t: 1.0 + 0.3 * np.sin(t))),
            (f"stiffness-callable-{d}", harmonic_oscillator(
                mass=mass, stiffness=lambda t, k=random_spd(rng, d):
                (1.0 + 0.2 * t * t) * k)),
            (f"omega2-expression-{d}", _config_model(
                "harmonic_oscillator", dim=d,
                omega2="(1 + 0.2*sin(3*t))^2 * exp(-t/4)")),
        ]
    cases += [(f"magnetic-{d}", magnetic_field(mass=1.3, omega=0.7, dim=d))
              for d in (2, 3)]
    cases += [(f"expression-{i}", _config_model("one_dim_potential",
                                                mass=1.4, potential=text))
              for i, text in enumerate((
                  "0.3*x^2 + 0.5*x^4*(1 + t)",
                  "-sin(x)^2 + cos(t*x) * exp(-x/2)",
                  "x^2 / (1 + x^2) - 3 / (x + 5)"))]
    return cases


STACKED_BUILTINS = _stacked_builtins()


def _assert_within_ulp(stacked, pointwise, maxulp):
    assert stacked.shape == pointwise.shape
    assert stacked.dtype == pointwise.dtype == float
    np.testing.assert_array_max_ulp(stacked, pointwise, maxulp=maxulp)


@pytest.mark.parametrize("case, model", STACKED_BUILTINS,
                         ids=[name for name, _ in STACKED_BUILTINS])
def test_stacked_callbacks_equal_the_pointwise_loop(case, model):
    # a closed-form builtin runs one body for one point and for stacked
    # points, so the two agree bit for bit; a compiled expression has a
    # numpy path beside its float path, within a few ulp
    maxulp = 4 if "expression" in case else 0
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1.5, 1.5, size=(9, model.dim))
    ts = rng.uniform(-1.0, 2.0, size=9)
    for name in CALLBACKS:
        fn = getattr(model, name)
        assert is_stacked(fn), name
        pointwise = np.array([fn(x, t) for x, t in zip(xs, ts)], dtype=float)
        _assert_within_ulp(along(fn, xs, ts), pointwise, maxulp)
        # a (3, 3) grid of points with its times, and one time for all
        _assert_within_ulp(np.asarray(fn(xs.reshape(3, 3, -1),
                                         ts.reshape(3, 3))),
                           pointwise.reshape((3, 3) + pointwise.shape[1:]),
                           maxulp)
        _assert_within_ulp(
            np.asarray(fn(xs, ts[0]), dtype=float),
            np.array([fn(x, ts[0]) for x in xs], dtype=float), maxulp)


def test_user_callables_stay_pointwise():
    # a builtin built on a user's omega2 or stiffness callable is marked
    # all the same: read on a grid, its callback is called once and calls
    # the user's callable at one scalar t at a time; a marked omega2 takes
    # the array of times itself; callbacks a user passes in stay unmarked
    calls = []

    def omega2(t):
        calls.append(np.shape(t))
        return 1.0 + 0.1 * t

    models = [harmonic_oscillator(omega2=omega2),
              harmonic_oscillator(stiffness=lambda t: [[1.0 + t]])]
    for name in ("potential", "potential_grad", "potential_hess"):
        assert all(is_stacked(getattr(model, name)) for model in models)
        assert not is_stacked(getattr(make_quartic(), name)), name
    stacked_model = harmonic_oscillator(omega2=stacked(omega2))
    assert is_stacked(stacked_model.potential_hess)
    xs, ts = np.zeros((5, 1)), np.linspace(0.0, 1.0, 5)
    values = along(models[0].potential_hess, xs, ts)
    assert calls == [()] * 5
    calls.clear()
    np.testing.assert_array_equal(
        along(stacked_model.potential_hess, xs, ts), values)
    assert calls == [(5,)]


@pytest.mark.parametrize("mass", [1.5, [[2.0, 0.5], [0.5, 1.0]]],
                         ids=["scalar", "matrix"])
def test_a_constant_omega2_is_the_stiffness_omega2_mass(mass):
    # one rule for a constant K: omega2 builds K = omega2 M and passes the
    # stiffness check, so its callbacks are those of that stiffness
    m = mass_matrix(mass)
    by_omega2 = harmonic_oscillator(mass=mass, omega2=0.7)
    by_stiffness = harmonic_oscillator(mass=mass, stiffness=0.7 * m)
    xs = np.linspace(-1.0, 1.0, 3 * len(m)).reshape(3, len(m))
    for name in ("potential", "potential_grad", "potential_hess"):
        np.testing.assert_array_equal(
            along(getattr(by_omega2, name), xs, np.zeros(3)),
            along(getattr(by_stiffness, name), xs, np.zeros(3)))


@pytest.mark.parametrize("mass, omega2", [(1.0, np.nan),
                                          (np.eye(2), np.inf)],
                         ids=["nan", "inf-times-zero"])
def test_a_constant_omega2_that_puts_nan_in_k_is_refused(mass, omega2):
    # inf * 0 warns of the invalid value before the check refuses it
    with pytest.raises(ValueError, match="stiffness K must be a symmetric"), \
            np.errstate(invalid="ignore"):
        harmonic_oscillator(mass=mass, omega2=omega2)


@pytest.mark.parametrize("params", [
    {"mass": [[1.0, 1e-13], [0.0, 1.0]], "omega2": 1.0},
    {"mass": [[1.0, 1e-13], [0.0, 1.0]], "omega2": 100.0},
    {"mass": 1.0, "dim": 2, "stiffness": [[100.0, 1e-11], [0.0, 100.0]]},
], ids=["mass-omega2-1", "mass-omega2-100", "stiffness"])
def test_m_and_k_share_one_symmetry_rule(params):
    # within 1e-12 (1 + max |entry|) of symmetric, M and K alike build,
    # and each keeps its values
    model = harmonic_oscillator(**params)
    m = mass_matrix(params["mass"], 2)
    k = (params["omega2"] * m if "omega2" in params
         else np.asarray(params["stiffness"]))
    np.testing.assert_array_equal(model.metric(np.zeros(2), 0.0), m)
    np.testing.assert_array_equal(model.potential_hess(np.zeros(2), 0.0), k)


@pytest.mark.parametrize("params", [
    {"mass": 1.0, "dim": 2, "stiffness": [[1.0, 0.5], [0.0, 1.0]]},
    {"mass": [[1.0, 1e-13], [0.0, 1.0]], "omega2": np.nan},
], ids=["asymmetric-stiffness", "nan-omega2"])
def test_an_asymmetric_or_nan_stiffness_is_refused(params):
    with pytest.raises(ValueError, match="stiffness K must be a symmetric"):
        harmonic_oscillator(**params)


def test_replaced_or_wrapped_callbacks_are_called_pointwise():
    # the marker sits on each callable: swapping one in with
    # dataclasses.replace, or wrapping a stacked one, leaves it unmarked
    base = _config_model("one_dim_potential", potential="0.25*x^4")
    seen = []

    def wrapper(x, t):
        seen.append(np.shape(x))
        return base.potential_hess(x, t)

    def plain(x, t):
        seen.append(np.shape(x))
        return base.potential(x, t)

    model = dataclasses.replace(base, potential_hess=wrapper, potential=plain)
    path = solve_bvp(model, [0.0], [1.0], 0.0, 0.5, n_steps=64)
    path.action
    frequency_matrix_along_path(path)(np.linspace(0.0, 0.5, 7))
    assert seen and set(seen) == {(1,)}
