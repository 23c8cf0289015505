"""Group property of the fluctuation factor on an anharmonic potential.

Splitting a trajectory at an interior time and recombining the two halves
must reproduce the full factor, match momenta at the junction, and join
the two halves' mixed Hessians into the through path's (its determinant
is the "jacobian res" column).  A deliberately displaced junction is the
negative control.
"""
import numpy as np

from vanvleck import one_dim_potential, solve_bvp, verify_composition

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
rep = verify_composition(full, 0.25, midpoint_offset=[0.05])
print(f"  momentum mismatch {rep.momentum_mismatch:.3e}, "
      f"factor residual {rep.factor_residual:.3e}, passed = {rep.passed}")
print("  a kinked path is not a classical trajectory; "
      "the residuals see it immediately")
