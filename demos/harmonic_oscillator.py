"""Constant-frequency oscillator: five independent routes to one number.

The fluctuation factor is computed from the boundary-value pipeline, from
the boundary solution of the linearized flow (three solvers), from the
endpoint energy Hessian, and from the normal-mode closed form.  All agree
to round-off while the mode phase stays below pi.
"""
import itertools

import numpy as np

from vanvleck import (
    FocalPoint,
    harmonic_oscillator,
    harmonic_constant_factor,
    solve_bvp,
    action_hessian_jacobi,
    vvpm_factor,
    energy_hessian_factor,
    solve_B_direct,
    solve_B_neumann,
    solve_B_time_ordered,
    gy_fluctuation_factor,
)

mass = np.diag([1.0, 2.0])
omega2 = np.diag([1.0, 4.0])  # mode frequencies 1 and 2
duration = 1.2
model = harmonic_oscillator(mass=mass, stiffness=mass @ omega2)

path = solve_bvp(model, [0.3, 0.3], [1.0, 1.0], 0.0, duration)

values = {
    "bvp + jacobi hessian": vvpm_factor(action_hessian_jacobi(path)).value,
    "energy hessian": energy_hessian_factor(path).value,
    "normal modes": harmonic_constant_factor(mass, omega2,
                                             duration).factor.value,
}
for name, sol in (
    ("linearized, direct ode", solve_B_direct(omega2, 0.0, duration)),
    ("linearized, series k=8", solve_B_neumann(omega2, 0.0, duration,
                                               order=8)),
    ("linearized, sinh slices", solve_B_time_ordered(omega2, 0.0, duration,
                                                     n_slices=2000)),
):
    values[name] = gy_fluctuation_factor(sol, mass_metric=mass).value

width = max(len(k) for k in values)
for name, value in values.items():
    print(f"{name:<{width}} : {value:.15g}")

worst = max(abs(a - b) / abs(a)
            for a, b in itertools.combinations(values.values(), 2))
print(f"\nworst pairwise relative deviation: {worst:.3e}")

# the first mode reaches its focal point at omega T = pi
print("\npushing mode phase to pi:")
try:
    harmonic_constant_factor(1.0, 1.0, np.pi)
except FocalPoint as exc:
    print(f"  FocalPoint: {exc}")
