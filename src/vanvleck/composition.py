"""Splitting a propagation interval and recombining the pieces.

The factor for the whole interval equals the product of the factors of
the two halves times a Fresnel integral over the junction point:

    F(b,a) = F(b,mid) F(mid,a) (2 pi i hbar)^(D/2)
             * det[d^2(A_L + A_R)/dx_mid^2]^(-1/2),

where the junction Hessian is the bb block of the left half plus the aa
block of the right half, and the saddle point of the junction integral
is the point the through trajectory actually passes at t_mid.  ``compose``
is that rule; ``verify_composition`` measures how well a model's numerics
realize it, plus the two scalar identities that come with it: matching of
left/right momenta at the junction and additivity of the classical actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import ClassicalPath, solve_bvp, state_at
from .errors import CausticRegion
from .fluctuation import prefactor, vvpm_factor
from .hessian import ActionHessian, action_hessian_jacobi


@dataclass(frozen=True)
class CompositionReport:
    """Residuals of one split, with the thresholds they were judged by."""

    t_mid: float
    x_mid: np.ndarray
    momentum_mismatch: float
    action_additivity_residual: float
    factor_residual: float
    jacobian_identity_residual: float
    thresholds: dict
    diagnostic: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Each residual is within its threshold, keyed by its field name."""
        return all(getattr(self, name) <= bound
                   for name, bound in self.thresholds.items())


def _even_steps(fraction: float, n_steps: int) -> int:
    n = max(8, int(round(fraction * n_steps)))
    return n if n % 2 == 0 else n + 1


def compose(left: ActionHessian, right: ActionHessian, f_left: complex,
            f_right: complex, hbar: float):
    """(mixed, F) of two adjacent segments joined at their common point.

    With J = bb_L + aa_R, the Hessian of A_L + A_R in the junction point,
    mixed = mixed_L J^-1 mixed_R and F = F_L F_R (2 pi i hbar)^(D/2)
    det(J)^(-1/2): ``prefactor``'s root of sum log|lambda_i|, and -i per
    negative eigenvalue, under which the splitting identity keeps holding
    for backward (acausal) segments.  Raises ValueError unless J is
    symmetric, and CausticRegion if it is singular.
    """
    junction = left.bb + right.aa
    sym = 0.5 * (junction + junction.T)
    if not np.allclose(junction, sym,
                       atol=1e-9 * (1.0 + np.linalg.norm(junction))):
        raise ValueError("junction Hessian block must be symmetric")
    evals = np.linalg.eigvalsh(sym)
    scale = float(np.max(np.abs(evals))) if evals.size else 0.0
    if scale == 0.0 or np.any(np.abs(evals) < 1e-12 * scale):
        raise CausticRegion("junction Hessian block is singular")
    root = prefactor(1.0, float(np.sum(np.log(np.abs(evals)))), left.dim,
                     hbar, "junction Hessian").value
    value = f_left * f_right * (-1j) ** int(np.sum(evals < 0.0)) / root
    return left.mixed @ np.linalg.solve(junction, right.mixed), value


def verify_composition(full: ClassicalPath, t_mid: float, tol: float = 1e-6,
                       momentum_tol: float = 1e-8) -> CompositionReport:
    """Split the solved path ``full`` at t_mid, recombine, report all residuals.

    The model, endpoints, times and step count are those of ``full``; the
    two halves are re-solved on proportional grids through the junction
    position read off the through trajectory.  Halves that leave that
    trajectory show as a momentum mismatch and fail the split.
    """
    model, t_a, t_b, n_steps = full.model, full.t_a, full.t_b, full.n_steps
    if not (t_a < t_mid < t_b):
        raise ValueError("t_mid must lie strictly inside (t_a, t_b)")
    duration = full.duration
    x_mid, v_mid = state_at(full, t_mid)

    left = solve_bvp(model, full.x_a, x_mid, t_a, t_mid,
                     v0_guess=full.v_a,
                     n_steps=_even_steps((t_mid - t_a) / duration, n_steps))
    right = solve_bvp(model, x_mid, full.x_b, t_mid, t_b,
                      v0_guess=v_mid,
                      n_steps=_even_steps((t_b - t_mid) / duration, n_steps))

    momentum_mismatch = float(np.max(np.abs(left.p_b - right.p_a)))
    action_residual = abs(left.action + right.action - full.action)

    h_full = action_hessian_jacobi(full)
    h_left = action_hessian_jacobi(left)
    h_right = action_hessian_jacobi(right)
    f_full = vvpm_factor(h_full, hbar=model.hbar)
    f_left = vvpm_factor(h_left, hbar=model.hbar)
    f_right = vvpm_factor(h_right, hbar=model.hbar)
    mixed, joined = compose(h_left, h_right, f_left.value, f_right.value,
                            model.hbar)
    factor_residual = abs(joined - f_full.value) / abs(f_full.value)
    det_full = np.linalg.det(h_full.mixed)   # positive: vvpm_factor took it
    det_joined = np.linalg.det(mixed)
    jacobian_residual = abs(det_joined - det_full) / max(abs(det_joined),
                                                         det_full)

    thresholds = {"momentum_mismatch": momentum_tol,
                  "action_additivity_residual": tol * (1.0 + abs(full.action)),
                  "factor_residual": tol,
                  "jacobian_identity_residual": tol}
    diagnostic = {
        "factor_full": f_full.as_dict(),
        "factor_left": f_left.as_dict(),
        "factor_right": f_right.as_dict(),
        "junction_determinant": float(np.linalg.det(h_left.bb + h_right.aa)),
        "action_full": full.action,
        "action_left": left.action,
        "action_right": right.action,
        "bvp_residuals": [full.bvp_residual, left.bvp_residual,
                          right.bvp_residual],
    }
    return CompositionReport(
        t_mid=float(t_mid), x_mid=x_mid,
        momentum_mismatch=momentum_mismatch,
        action_additivity_residual=float(action_residual),
        factor_residual=float(factor_residual),
        jacobian_identity_residual=float(jacobian_residual),
        thresholds=thresholds, diagnostic=diagnostic)
