"""Group property of the fluctuation factor on an anharmonic potential.

Splitting a trajectory at an interior time and recombining the two halves
must reproduce the full factor, match momenta at the junction, and join
the two halves' mixed Hessians into the through path's (its determinant
is the "jacobian res" column).  The negative control re-solves the two
halves through a junction displaced off the trajectory and joins them
with ``compose``: the kinked path fails the checks ``verify_composition``
makes.
"""
import numpy as np

from vanvleck import (
    action_hessian_jacobi,
    compose,
    one_dim_potential,
    solve_bvp,
    state_at,
    verify_composition,
    vvpm_factor,
)

model = one_dim_potential(
    potential=lambda x, t: 0.25 * x ** 4,
    potential_grad=lambda x, t: x ** 3,
    potential_hess=lambda x, t: 3.0 * x * x,
    label="quartic",
)

x_a, x_b, duration = [0.0], [1.0], 0.5
full = solve_bvp(model, x_a, x_b, 0.0, duration, n_steps=1000)

print("split time   junction x    factor res    momentum res  jacobian res")
for t_mid in (0.1, 0.2, 0.25, 0.3, 0.4):
    rep = verify_composition(full, t_mid)
    print(f"  {t_mid:.2f}      {rep.x_mid[0]:+.6f}    "
          f"{rep.factor_residual:.3e}     {rep.momentum_mismatch:.3e}     "
          f"{rep.jacobian_identity_residual:.3e}"
          + ("" if rep.passed else "   <- FAILED"))

print("\nnegative control, junction displaced by 0.05:")
t_mid = 0.25
x_mid, v_mid = state_at(full, t_mid)
x_kink = x_mid + 0.05
left = solve_bvp(model, x_a, x_kink, 0.0, t_mid, v0_guess=full.v_a,
                 n_steps=500)
right = solve_bvp(model, x_kink, x_b, t_mid, duration, v0_guess=v_mid,
                  n_steps=500)
h_full, h_left, h_right = (action_hessian_jacobi(path)
                           for path in (full, left, right))
f_full, f_left, f_right = (vvpm_factor(h, model.hbar).value
                           for h in (h_full, h_left, h_right))
_, joined = compose(h_left, h_right, f_left, f_right, model.hbar)
mismatch = float(np.max(np.abs(left.p_b - right.p_a)))
residual = abs(joined - f_full) / abs(f_full)
# verify_composition's default momentum and factor thresholds
passed = mismatch <= 1e-8 and residual <= 1e-6
print(f"  momentum mismatch {mismatch:.3e}, "
      f"factor residual {residual:.3e}, passed = {passed}")
print("  a kinked path is not a classical trajectory; "
      "the residuals see it immediately")
