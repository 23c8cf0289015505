from __future__ import annotations

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest
from scipy.linalg import expm

from vanvleck import (
    FocalPoint,
    NonSPDMass,
    SeriesDivergence,
    action_hessian_jacobi,
    gy_fluctuation_factor,
    harmonic_oscillator,
    solve_B_direct,
    solve_B_neumann,
    solve_B_time_ordered,
    solve_bvp,
    vvpm_factor,
)
from vanvleck.cli import MAX_QUAD_POINTS
from vanvleck.gelfand_yaglom import (_collocation, _omega2_sampler,
                                     _reference_rule, _slice_propagators)

from conftest import rk4

TIME_DEP = lambda t: (1.0 + 0.2 * np.sin(t)) ** 2  # noqa: E731


def test_direct_free_slope():
    sol = solve_B_direct(0.0, 0.0, 2.0)
    assert sol[0, 0] == pytest.approx(0.5, abs=1e-13)
    assert sol.shape == (1, 1)


def test_direct_constant_frequency_quarter_period():
    sol = solve_B_direct(1.0, 0.0, np.pi / 2)
    assert sol[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_direct_agrees_with_neumann_time_dependent():
    direct = solve_B_direct(TIME_DEP, 0.0, 1.0)
    series = solve_B_neumann(TIME_DEP, 0.0, 1.0, order=8)
    assert abs(direct[0, 0] - series[0, 0]) < 1e-8


def test_direct_focal_point():
    with pytest.raises(FocalPoint):
        solve_B_direct(1.0, 0.0, np.pi)


def test_neumann_free_any_order():
    for k in (0, 1, 5):
        sol = solve_B_neumann(0.0, 0.0, 2.0, order=k)
        assert sol[0, 0] == pytest.approx(0.5, abs=1e-13)


def test_neumann_constant_frequency_truncation():
    sol = solve_B_neumann(1.0, 0.0, 0.5, order=4)
    assert sol[0, 0] == pytest.approx(1.0 / np.sin(0.5), abs=1e-6)
    assert sol.shape == (1, 1)


def test_neumann_matrix_case_matches_direct():
    w2 = np.array([[1.0, 0.1], [0.1, 4.0]])
    series = solve_B_neumann(w2, 0.0, 0.3, order=6)
    direct = solve_B_direct(w2, 0.0, 0.3, n_steps=2000)
    np.testing.assert_allclose(series, direct, atol=1e-9)


def test_neumann_divergence_guard():
    # Omega T = 6 with truncation inside the growing part of the series
    with pytest.raises(SeriesDivergence):
        solve_B_neumann(4.0, 0.0, 3.0, order=2)


def test_neumann_tolerates_transient_hump():
    # Omega T = 2.7: term 1 exceeds term 0, but the tail decreases
    sol = solve_B_neumann(1.0, 0.0, 2.7, order=8)
    assert sol[0, 0] == pytest.approx(1.0 / np.sin(2.7), rel=1e-6)


@pytest.mark.parametrize("q", [8, 64])
def test_collocation_matches_the_column_loop(q):
    # column j: the antiderivative from -1 of the Legendre interpolant of
    # the j-th unit sample, read at the Gauss nodes
    t_a, t_b = 0.3, 1.9
    nodes, qmat, wfull = _collocation(t_a, t_b, q)
    xi, w = npleg.leggauss(q)
    vinv = np.linalg.inv(npleg.legvander(xi, q - 1))
    loop = np.empty((q, q))
    for j in range(q):
        loop[:, j] = npleg.legval(xi, npleg.legint(vinv[:, j], lbnd=-1.0))
    np.testing.assert_allclose(qmat, 0.5 * (t_b - t_a) * loop, rtol=0,
                               atol=1e-14)
    np.testing.assert_array_equal(wfull, 0.5 * (t_b - t_a) * w)
    # exact on polynomials of degree < q: the integral of t^2 from t_a
    np.testing.assert_allclose(qmat @ nodes**2, (nodes**3 - t_a**3) / 3,
                               rtol=0, atol=1e-14)


def _uncached_collocation(t_a, t_b, q):
    # the rule built from scratch on every call, as it was before the
    # reference rule on [-1, 1] was cached
    xi, w = npleg.leggauss(q)
    nodes = t_a + 0.5 * (xi + 1.0) * (t_b - t_a)
    vinv = np.linalg.inv(npleg.legvander(xi, q - 1))
    qxi = npleg.legvander(xi, q) @ npleg.legint(vinv, lbnd=-1.0, axis=0)
    half = 0.5 * (t_b - t_a)
    return nodes, half * qxi, half * w


def test_collocation_is_bit_identical_to_the_uncached_rule():
    # each q on two intervals in turn: the second call reuses the cached
    # reference rule, the next q evicts it, and the last call rebuilds an
    # evicted one
    intervals = [(0.3, 1.9), (-2.0, 5.5)]
    calls = [(q, interval) for q in (1, 2, 8, 64, MAX_QUAD_POINTS)
             for interval in intervals] + [(8, intervals[1])]
    _reference_rule.cache_clear()
    for q, (t_a, t_b) in calls:
        for got, want in zip(_collocation(t_a, t_b, q),
                             _uncached_collocation(t_a, t_b, q)):
            np.testing.assert_array_equal(got, want)
    info = _reference_rule.cache_info()
    assert (info.hits, info.misses, info.currsize) == (5, 6, 1)


def test_reference_rule_is_read_only():
    for array in _reference_rule(8):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    # what a solve gets is its own scaled copy
    assert all(a.flags.writeable for a in _collocation(0.0, 1.0, 8))


def test_neumann_repeats_its_bits():
    first = solve_B_neumann(TIME_DEP, 0.1, 1.2, order=8)
    np.testing.assert_array_equal(
        solve_B_neumann(TIME_DEP, 0.1, 1.2, order=8), first)
    solve_B_neumann(TIME_DEP, 0.1, 1.2, order=8, quad_points=32)
    np.testing.assert_array_equal(
        solve_B_neumann(TIME_DEP, 0.1, 1.2, order=8), first)


def test_time_ordered_constant_frequency_exact():
    sol = solve_B_time_ordered(4.0, 0.0, 0.9, n_slices=16)
    # upper-right block sin(wT)/w regardless of slicing
    assert sol[0, 0] == pytest.approx(2.0 / np.sin(1.8), rel=1e-12)


def test_time_ordered_free():
    sol = solve_B_time_ordered(0.0, 0.0, 2.5, n_slices=4)
    assert sol[0, 0] == pytest.approx(0.4, abs=1e-13)


def test_time_ordered_linear_ramp_matches_direct():
    ramp = lambda t: 1.0 + t  # noqa: E731
    ordered = solve_B_time_ordered(ramp, 0.0, 1.0, n_slices=2000)
    direct = solve_B_direct(ramp, 0.0, 1.0, n_steps=4000)
    assert abs(ordered[0, 0] - direct[0, 0]) < 1e-7


def _expm_slice_product_slope(omega2, t_b, n):
    """Bdot(0) from an ordered product of per-slice scipy expm calls."""
    d = np.atleast_2d(omega2(0.0)).shape[0]
    dt = t_b / n
    phi = np.eye(2 * d)
    for j in range(n):
        gen = np.zeros((2 * d, 2 * d))
        gen[:d, d:] = np.eye(d)
        gen[d:, :d] = -np.atleast_2d(omega2((j + 0.5) * dt))
        phi = expm(gen * dt) @ phi
    return np.linalg.inv(phi[:d, d:])


def test_time_ordered_matches_per_slice_expm():
    def mixed3(t):
        return np.array([[4.0 + t, 0.3, 0.1 * np.sin(t)],
                         [0.3, -9.0, 0.2],
                         [0.1 * np.sin(t), 0.2, 1.0 - t]])

    cases = [
        (lambda t: np.array([[1.0 + t, 0.2], [0.2, 0.5]]), 1.3, 50),
        (lambda t: 1.0, 0.9 * np.pi, 1),              # omega T = 0.9 pi
        (lambda t: -25.0, 1.0, 1),                    # sinh/cosh slice
        (lambda t: np.array([[4.0, 1.0], [0.0, 4.0]]), 1.0, 1),  # Jordan block
        (mixed3, 1.0, 2000),                          # D=3, mixed signs
    ]
    for omega2, t_b, n in cases:
        sol = solve_B_time_ordered(omega2, 0.0, t_b, n_slices=n)
        np.testing.assert_allclose(
            sol, _expm_slice_product_slope(omega2, t_b, n),
            rtol=1e-13)


@pytest.mark.parametrize("n", [1999, 2000])
def test_time_ordered_tree_matches_the_sequential_product(n):
    # the slice propagators are multiplied as a tree; the ordered
    # product u <- e u, one slice at a time, gives the same B_raw(t_b)
    def omega2(t):
        return np.array([[4.0 + t, 0.3 * np.cos(t)],
                         [0.3 * np.cos(t), -2.0 + 0.5 * t]])

    w2, d = _omega2_sampler(omega2, 0.0)
    dt = 1.1 / n
    u = np.vstack((np.zeros((d, d)), np.eye(d)))
    for e in _slice_propagators(w2((np.arange(n) + 0.5) * dt), dt):
        u = e @ u
    np.testing.assert_allclose(solve_B_time_ordered(omega2, 0.0, 1.1, n),
                               np.linalg.inv(u[:d]), rtol=1e-13)


def _direct_reference(omega2, t_a, t_b, n_steps):
    """Bdot(t_a) from the [B; Bdot] right-hand side stepped by ``rk4``."""
    w2, d = _omega2_sampler(omega2, t_a)

    def rhs(t, y):
        return np.vstack((y[d:], -w2(np.array([t]))[0] @ y[:d]))

    b_tb = rk4(rhs, np.vstack((np.zeros((d, d)), np.eye(d))),
               np.linspace(t_a, t_b, n_steps + 1))[-1, :d]
    return np.linalg.inv(b_tb)


@pytest.mark.parametrize("omega2, t_b", [
    (1.7, 1.1),
    (np.array([[2.0, 0.4], [0.4, 1.0]]), 1.2),
    (lambda t: np.array([[1.0 + 0.5 * t, 0.2 * np.sin(3 * t)],
                         [0.2 * np.sin(3 * t), 2.0 + t**2]]), 1.0),
], ids=["scalar", "constant-2x2", "time-dependent-2x2"])
@pytest.mark.parametrize("n", [40, 1000])
def test_direct_matches_the_rk4_right_hand_side(omega2, t_b, n):
    # the step maps are the classical RK4 step of the same linear system
    got = solve_B_direct(omega2, 0.3, 0.3 + t_b, n_steps=n)
    ref = _direct_reference(omega2, 0.3, 0.3 + t_b, n)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_direct_evaluates_each_stage_time_once():
    # dyadic grid: t + h of one step is exactly the next grid time, so
    # the probe, t_a and the midpoint and end of each step are all there is
    calls = []

    def counting(t):
        calls.append(t)
        return TIME_DEP(t)

    n = 8
    solve_B_direct(counting, 0.0, 1.0, n_steps=n)
    assert len(calls) <= 2 * n + 2


def test_gy_factor_free_anchor():
    sol = solve_B_direct(0.0, 0.0, 2.0)
    f = gy_fluctuation_factor(sol, mass_metric=np.array([[1.0]]))
    assert abs(f.value) == pytest.approx(1.0 / np.sqrt(4 * np.pi), rel=1e-12)
    assert np.angle(f.value) == pytest.approx(-np.pi / 4, abs=1e-12)


def test_gy_factor_constant_frequency_anchor():
    t_tot = 1.2
    sol = solve_B_direct(1.0, 0.0, t_tot)
    f = gy_fluctuation_factor(sol, mass_metric=np.array([[1.0]]))
    expected = np.sqrt(1.0 / (2 * np.pi * np.sin(t_tot)))
    assert abs(f.value) == pytest.approx(expected, rel=1e-9)


def test_gy_factor_rejects_negative_definite_mass():
    # det(-1) = 1 > 0 in D = 2; only the eigenvalues show the mass is not SPD
    sol = solve_B_direct(np.zeros((2, 2)), 0.0, 1.0)
    with pytest.raises(NonSPDMass):
        gy_fluctuation_factor(sol, mass_metric=-np.eye(2))


def test_gy_matches_vvpm_time_dependent():
    model = harmonic_oscillator(mass=1.0, omega2=TIME_DEP, dim=1)
    path = solve_bvp(model, [0.0], [1.0], 0.0, 1.0)
    vv = vvpm_factor(action_hessian_jacobi(path))
    sol = solve_B_direct(TIME_DEP, 0.0, 1.0)
    gy = gy_fluctuation_factor(sol, mass_metric=np.array([[1.0]]))
    assert abs(gy.value - vv.value) / abs(vv.value) < 1e-6


def test_neumann_error_decays_with_order():
    # at |Omega| T = 0.9 each extra order gains at least (0.9)^2
    t_tot = 0.9
    exact = solve_B_direct(1.0, 0.0, t_tot, n_steps=4000)[0, 0]
    errs = []
    for k in range(6):
        approx = solve_B_neumann(1.0, 0.0, t_tot, order=k)[0, 0]
        errs.append(abs(approx - exact) / abs(exact))
    logs = np.log(errs)
    gains = np.diff(logs)
    assert np.all(gains < 2.0 * np.log(0.9))


def test_matrix_time_dependent_cross_check():
    def w2(t):
        return np.array([[1.0 + 0.3 * t, 0.2 * np.sin(t)],
                         [0.2 * np.sin(t), 2.0 - 0.4 * t]])

    direct = solve_B_direct(w2, 0.0, 0.8, n_steps=3000)
    ordered = solve_B_time_ordered(w2, 0.0, 0.8, n_slices=3000)
    series = solve_B_neumann(w2, 0.0, 0.8, order=10)
    np.testing.assert_allclose(direct, ordered, atol=1e-7)
    np.testing.assert_allclose(direct, series, atol=1e-7)
