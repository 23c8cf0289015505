"""End-to-end acceptance checks, one test per criterion.

Each test records a "[criterion-N] PASS/FAIL" line that the conftest
terminal-summary hook prints after the run.
"""
from __future__ import annotations

import itertools

import numpy as np

from vanvleck import (
    free_particle,
    harmonic_oscillator,
    magnetic_field,
    solve_bvp,
    integrate_ivp,
    action_hessian_jacobi,
    vvpm_factor,
    energy_hessian_factor,
    solve_B_direct,
    solve_B_neumann,
    solve_B_time_ordered,
    gy_fluctuation_factor,
    harmonic_constant_factor,
    one_dim_dalembert_factor,
    verify_composition,
)
from vanvleck.dynamics import Trajectory, simpson_action
from vanvleck.models import (
    evaluate_hamiltonian,
    evaluate_lagrangian,
    legendre_momentum,
    velocity_from_momentum,
)

from conftest import make_quartic, random_spd, record_criterion

TIME_DEP = lambda t: (1.0 + 0.2 * np.sin(t)) ** 2  # noqa: E731


def _pairwise_rel(values: dict) -> float:
    worst = 0.0
    for (_, a), (_, b) in itertools.combinations(values.items(), 2):
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


def test_criterion_1_free_particle_pipeline():
    # BVP -> Jacobi Hessian -> factor against sqrt(det M)/(2 pi i hbar T)^(D/2)
    rng = np.random.default_rng(101)
    max_err = 0.0
    cases = 0
    for dim in (1, 2, 3):
        for _ in range(20):
            mass = random_spd(rng, dim)
            model = free_particle(mass=mass, dim=dim)
            expected_mag = np.sqrt(np.linalg.det(mass))
            for duration in (0.1, 1.0, 5.0):
                x_a = rng.normal(size=dim)
                x_b = rng.normal(size=dim)
                path = solve_bvp(model, x_a, x_b, 0.0, duration, n_steps=16)
                factor = vvpm_factor(action_hessian_jacobi(path))
                expected = (expected_mag
                            * (2.0 * np.pi * duration) ** (-0.5 * dim)
                            * np.exp(-0.25j * dim * np.pi))
                max_err = max(max_err,
                              abs(factor.value - expected) / abs(expected))
                cases += 1
    ok = max_err <= 1e-8
    record_criterion(1, ok, f"free particle: max rel err {max_err:.3e} "
                            f"over {cases} cases (bound 1e-8)")
    assert ok, f"max rel err {max_err:.3e} exceeds 1e-8"


def test_criterion_2_constant_frequency_oscillator():
    # five routes agree pairwise for every mode phase below 0.9 pi
    scenarios = []
    for wt in (0.3, 1.2, 2.2, 2.7):
        scenarios.append((1.0, 1.0, wt, "D=1"))
    scenarios.append((np.diag([1.0, 2.0]), np.diag([1.0, 4.0]), 1.2, "D=2"))

    worst = 0.0
    for mass, omega2, duration, tag in scenarios:
        m = np.atleast_2d(np.asarray(mass, dtype=float))
        dim = m.shape[0]
        if dim == 1:
            model = harmonic_oscillator(mass=mass, omega2=omega2, dim=1)
            gy_omega2 = float(omega2)
        else:
            model = harmonic_oscillator(mass=mass, stiffness=m @ omega2)
            gy_omega2 = omega2
        x_a = np.full(dim, 0.3)
        x_b = np.full(dim, 1.0)
        path = solve_bvp(model, x_a, x_b, 0.0, duration)
        values = {
            "vvpm": vvpm_factor(action_hessian_jacobi(path)).value,
            "energy-hessian": energy_hessian_factor(path).value,
            "analytic": harmonic_constant_factor(mass, omega2,
                                                 duration).factor.value,
        }
        solutions = {
            "gy-direct": solve_B_direct(gy_omega2, 0.0, duration,
                                        n_steps=3000),
            "gy-neumann": solve_B_neumann(gy_omega2, 0.0, duration, order=8),
            "gy-sinh": solve_B_time_ordered(gy_omega2, 0.0, duration,
                                            n_slices=2000),
        }
        for name, sol in solutions.items():
            values[name] = gy_fluctuation_factor(sol, mass_metric=mass).value
        dev = _pairwise_rel(values)
        worst = max(worst, dev)
        assert dev <= 1e-6, f"{tag} wT={duration}: pairwise dev {dev:.3e}"
    ok = worst <= 1e-6
    record_criterion(2, ok, f"constant-frequency oscillator: worst pairwise "
                            f"rel dev {worst:.3e} over {len(scenarios)} "
                            "scenarios (bound 1e-6)")
    assert ok


def test_criterion_3_time_dependent_frequency():
    # three boundary-problem solvers, then the full BVP route, on one model
    duration = 1.0
    model = harmonic_oscillator(mass=1.0, omega2=TIME_DEP, dim=1)
    path = solve_bvp(model, [0.0], [1.0], 0.0, duration)
    values = {
        "vvpm": vvpm_factor(action_hessian_jacobi(path)).value,
    }
    solutions = {
        "gy-direct": solve_B_direct(TIME_DEP, 0.0, duration, n_steps=3000),
        "gy-neumann": solve_B_neumann(TIME_DEP, 0.0, duration, order=8),
        "gy-sinh": solve_B_time_ordered(TIME_DEP, 0.0, duration,
                                        n_slices=2000),
    }
    for name, sol in solutions.items():
        values[name] = gy_fluctuation_factor(sol, mass_metric=1.0).value
    solver_dev = _pairwise_rel({k: v for k, v in values.items()
                                if k != "vvpm"})
    full_dev = _pairwise_rel(values)
    ok = solver_dev <= 1e-6 and full_dev <= 1e-6
    record_criterion(3, ok, f"time-dependent frequency: solver dev "
                            f"{solver_dev:.3e}, vs BVP route {full_dev:.3e} "
                            "(bound 1e-6)")
    assert ok, (solver_dev, full_dev)


def test_criterion_4_magnetic_field():
    # in-plane pair multiplies the free factor by (wT/2)/sin(wT/2)
    mass = 1.3
    worst = 0.0
    for dim in (2, 3):
        for phase in (0.4 * np.pi, 0.9 * np.pi, 1.3 * np.pi, 1.7 * np.pi):
            duration = phase  # omega = 1
            model = magnetic_field(mass=mass, omega=1.0, dim=dim)
            x_b = np.array([0.7, 0.3, -0.5])[:dim]
            path = solve_bvp(model, np.zeros(dim), x_b, 0.0, duration,
                             n_steps=2000)
            factor = vvpm_factor(action_hessian_jacobi(path))
            expected = ((mass / (2.0 * np.pi * duration)) ** (0.5 * dim)
                        * (0.5 * phase) / np.sin(0.5 * phase)
                        * np.exp(-0.25j * dim * np.pi))
            worst = max(worst,
                        abs(factor.value - expected) / abs(expected))
    ok = worst <= 1e-6
    record_criterion(4, ok, f"magnetic field: max rel err {worst:.3e} over "
                            "8 cases, D in {2,3}, wT up to 1.7 pi "
                            "(bound 1e-6)")
    assert ok, f"max rel err {worst:.3e}"


def test_criterion_5_group_property():
    quartic = make_quartic()
    worst_factor = 0.0
    worst_momentum = 0.0
    worst_jacobian = 0.0
    full = solve_bvp(quartic, [0.0], [1.0], 0.0, 0.5, n_steps=1000)
    for t_mid in (0.1, 0.2, 0.25, 0.3, 0.4):
        report = verify_composition(full, t_mid)
        worst_factor = max(worst_factor, report.factor_residual)
        worst_momentum = max(worst_momentum, report.momentum_mismatch)
        worst_jacobian = max(worst_jacobian,
                             report.jacobian_identity_residual)
    ok = (worst_factor <= 1e-6 and worst_momentum <= 1e-8
          and worst_jacobian <= 1e-7)
    record_criterion(5, ok, f"group property: factor {worst_factor:.3e} "
                            f"(1e-6), momentum {worst_momentum:.3e} (1e-8), "
                            f"jacobian {worst_jacobian:.3e} (1e-7) over 5 "
                            "splits")
    assert ok, (worst_factor, worst_momentum, worst_jacobian)


def test_criterion_6_short_time_limit():
    # F(dt) dt^(1/2) approaches the flat-metric anchor; the deviation decays
    # at second order here (constant metric), which is within the required
    # at-least-first-order convergence
    quartic = make_quartic()
    anchor = np.sqrt(1.0 / (2.0 * np.pi)) * np.exp(-0.25j * np.pi)
    dts = np.array([1e-1, 1e-2, 1e-3])
    devs = []
    for dt in dts:
        path = solve_bvp(quartic, [0.0], [1.0], 0.0, dt, n_steps=200)
        factor = vvpm_factor(action_hessian_jacobi(path))
        devs.append(abs(factor.value * dt ** 0.5 - anchor))
    devs = np.array(devs)
    slope = np.polyfit(np.log(dts), np.log(devs), 1)[0]
    decreasing = bool(np.all(np.diff(devs) < 0.0))
    ok = decreasing and slope >= 0.8
    record_criterion(6, ok, f"short-time limit: deviations "
                            f"{devs[0]:.3e} -> {devs[2]:.3e}, fitted slope "
                            f"{slope:.2f} (>= 0.8 confirms at least "
                            "first-order decay)")
    assert ok, (devs, slope)


def test_criterion_7_dalembert_reduction():
    scenarios = [
        ("free", free_particle(mass=1.0, dim=1), 1.0),
        ("harmonic arc", harmonic_oscillator(mass=1.0, omega2=1.0, dim=1),
         np.pi / 4),
        ("quartic", make_quartic(), 0.3),
    ]
    worst = 0.0
    for name, model, duration in scenarios:
        path = solve_bvp(model, [0.2], [1.0], 0.0, duration)
        reduced = one_dim_dalembert_factor(path)
        reference = vvpm_factor(action_hessian_jacobi(path))
        dev = abs(reduced.factor.value - reference.value) / abs(reference.value)
        worst = max(worst, dev)
        assert dev <= 1e-6, f"{name}: rel dev {dev:.3e}"
    ok = worst <= 1e-6
    record_criterion(7, ok, f"d'Alembert reduction: worst rel dev "
                            f"{worst:.3e} over 3 monotone scenarios "
                            "(bound 1e-6)")
    assert ok


def test_criterion_8_property_suites():
    rng = np.random.default_rng(808)
    quartic = make_quartic()

    # Legendre round-trip across the builtin families
    models = [
        free_particle(mass=random_spd(rng, 2)),
        harmonic_oscillator(mass=1.5, omega2=2.0, dim=2),
        magnetic_field(mass=1.2, omega=0.8, dim=2),
        quartic,
    ]
    legendre_err = 0.0
    for model in models:
        for _ in range(25):
            x = rng.normal(size=model.dim)
            v = rng.normal(size=model.dim)
            t = float(rng.uniform(0.0, 2.0))
            p = legendre_momentum(model, x, v, t)
            duality = abs(evaluate_hamiltonian(model, x, p, t)
                          + evaluate_lagrangian(model, x, v, t)
                          - float(p @ v))
            round_trip = float(np.max(np.abs(
                velocity_from_momentum(model, x, p, t) - v)))
            legendre_err = max(legendre_err,
                               duality / (1.0 + abs(float(p @ v))),
                               round_trip)
    assert legendre_err < 1e-12

    # action stationarity: first-order response vanishes, O(eps^2) remains
    path = solve_bvp(quartic, [0.0], [1.0], 0.0, 0.5)
    bump = np.sin(np.pi * (path.times - path.t_a) / (path.t_b - path.t_a))
    bump_dot = (np.pi / (path.t_b - path.t_a)) * np.cos(
        np.pi * (path.times - path.t_a) / (path.t_b - path.t_a))
    deltas = []
    for eps in (1e-3, 1e-4):
        traj = Trajectory(times=path.times,
                          positions=path.positions + eps * bump[:, None],
                          velocities=path.velocities + eps * bump_dot[:, None])
        deltas.append(abs(simpson_action(quartic, traj) - path.action))
    stationarity_ratio = deltas[0] / deltas[1]
    assert 50.0 < stationarity_ratio < 200.0

    # integrator order: halving the step divides the error by about 16
    model = harmonic_oscillator(mass=1.0, omega2=1.0, dim=1)
    errs = []
    for n in (100, 200):
        traj = integrate_ivp(model, [1.0], [0.0], 0.0, 2.0, n_steps=n)
        errs.append(abs(traj.positions[-1, 0] - np.cos(2.0)))
    rk4_ratio = errs[0] / errs[1]
    assert 10.0 < rk4_ratio < 22.0

    # |F| hbar^(D/2) is independent of hbar to round-off
    hess = action_hessian_jacobi(path)
    scaled = [abs(vvpm_factor(hess, hbar=h).value) * h ** 0.5
              for h in (0.05, 1.0, 3.0)]
    hbar_spread = max(scaled) / min(scaled) - 1.0
    assert hbar_spread < 1e-14

    # Neumann truncation error keeps falling by at least (wT)^2 per order
    t_tot = 0.9
    exact = solve_B_direct(1.0, 0.0, t_tot, n_steps=4000)[0, 0]
    errs = []
    for order in range(6):
        approx = solve_B_neumann(1.0, 0.0, t_tot, order=order)[0, 0]
        errs.append(abs(approx - exact) / abs(exact))
    gains = np.diff(np.log(errs))
    assert np.all(gains < 2.0 * np.log(t_tot))

    record_criterion(8, True, "property suites: legendre round-trip "
                              f"{legendre_err:.1e}, stationarity ratio "
                              f"{stationarity_ratio:.0f}, integrator ratio "
                              f"{rk4_ratio:.1f}, hbar scaling spread "
                              f"{hbar_spread:.1e}, series gains all below "
                              f"{2.0 * np.log(t_tot):.2f}")
