"""Free particle in plane polar coordinates, a position-dependent metric.

With q = (r, phi) the metric g = diag(m, m r^2) depends on r, so the
linearization takes central differences of metric_grad along the path.
The point transformation to Cartesian coordinates has Jacobian
determinant r at each end, which gives DeWitt's exact value
F_polar = F_cart sqrt(r_a r_b) (Rev. Mod. Phys. 29, 377 (1957)).
The model is the one the test suite builds as make_polar_free_particle.
"""
import numpy as np

from vanvleck import (
    LagrangianModel,
    action_hessian_jacobi,
    free_particle_factor,
    solve_bvp,
    vvpm_factor,
)

mass = 2.0
duration = 1.0
zero2 = np.zeros(2)
zero22 = np.zeros((2, 2))


def metric_grad(q, t):
    dg = np.zeros((2, 2, 2))
    dg[0, 1, 1] = 2.0 * mass * q[0]
    return dg


model = LagrangianModel(
    dim=2,
    metric=lambda q, t: np.diag([mass, mass * q[0] ** 2]),
    metric_grad=metric_grad,
    vector_potential=lambda q, t: zero2,
    vector_potential_grad=lambda q, t: zero22,
    potential=lambda q, t: 0.0,
    potential_grad=lambda q, t: zero2,
    potential_hess=lambda q, t: zero22,
    label="polar_free_particle",
)

q_a = np.array([1.0, 0.0])
q_b = np.array([1.2, 0.4])
path = solve_bvp(model, q_a, q_b, 0.0, duration)
print(f"endpoints (r, phi) {q_a} -> {q_b} over T = {duration}, "
      f"{path.n_steps} RK4 steps")

vvpm = vvpm_factor(action_hessian_jacobi(path)).value
cartesian = free_particle_factor(mass, duration, dim=2).factor.value
dewitt = cartesian * np.sqrt(q_a[0] * q_b[0])
print(f"vvpm                    : {vvpm:.12g}")
print(f"F_cart sqrt(r_a r_b)    : {dewitt:.12g}")
print(f"relative difference     : {abs(vvpm - dewitt) / abs(dewitt):.3e}")
