"""Three solvers for the linearized boundary problem, compared.

The boundary solution B(t) (zero at the left endpoint, identity at the
right) determines the fluctuation factor through det(T Bdot(t_a)).  The
direct integrator is the reference; the iterated-integral series converges
order by order while |Omega| T < pi, and the slice-by-slice propagation
converges quadratically in the slice count.
"""
import numpy as np

from vanvleck import (
    SeriesDivergence,
    solve_B_direct,
    solve_B_neumann,
    solve_B_time_ordered,
    gy_fluctuation_factor,
)

omega2 = lambda t: (1.0 + 0.2 * np.sin(t)) ** 2  # noqa: E731
t_a, t_b = 0.0, 1.0

reference = solve_B_direct(omega2, t_a, t_b, n_steps=8000)[0, 0]
print(f"reference Bdot(t_a) = {reference:.15f}\n")

print("series truncation order vs relative error:")
for order in range(0, 9, 2):
    approx = solve_B_neumann(omega2, t_a, t_b, order=order)[0, 0]
    print(f"  k = {order}:  {abs(approx - reference) / abs(reference):.3e}")

print("\nslice count vs relative error:")
for n_slices in (10, 40, 160, 640):
    approx = solve_B_time_ordered(omega2, t_a, t_b,
                                  n_slices=n_slices)[0, 0]
    print(f"  n = {n_slices:4d}: {abs(approx - reference) / abs(reference):.3e}")

factor = gy_fluctuation_factor(solve_B_direct(omega2, t_a, t_b),
                               mass_metric=1.0)
print(f"\nfluctuation factor from the boundary solution: {factor.value:.12g}")

# outside its disk of convergence the series is refused, not returned
print("\ntruncating a divergent series (|Omega| T = 12, k = 2):")
try:
    solve_B_neumann(4.0, 0.0, 3.0, order=2)
except SeriesDivergence as exc:
    print(f"  SeriesDivergence: {exc}")
