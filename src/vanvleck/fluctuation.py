"""Fluctuation prefactors of the semiclassical time evolution amplitude.

All routes compute the same object

    F = (2 pi i hbar)^(-D/2) sqrt(det mixed),
    mixed = -d2A/dx_a dx_b,

they only differ in how the determinant is obtained; each hands its sign
and log|det|, as ``slogdet`` gives them, to ``prefactor``, so F overflows
only where F itself does.  Branch convention: principal complex roots,
i^(-1/2) = exp(-i pi / 4), so the free particle carries the phase -D pi / 4
and every factor has that phase exactly as long as the determinant is
positive.  A determinant that is not positive raises instead of picking a
branch (index counting past caustics is out of scope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ClassicalPath
from .errors import CausticRegion, NonFiniteResult, NotQuadraticModel
from .hessian import ActionHessian, flow_seed, variational_blocks
from .models import (LagrangianModel, central_hessian, evaluate_hamiltonian,
                     legendre_momentum)

BRANCH_NOTE_PRINCIPAL = "principal roots, free-particle phase anchor -D*pi/4"

LOG_HUGE = float(np.log(np.finfo(float).max))   # above it, e^x overflows


@dataclass(frozen=True)
class FluctuationFactor:
    """One computed prefactor.

    Attributes
    ----------
    value : complex
        The prefactor, dimension length^-D for unit mass conventions.

    Every route uses the one rule of ``prefactor``, so its report records
    the one root convention, ``BRANCH_NOTE_PRINCIPAL``; the CLI names the
    route by its method id.
    """

    value: complex

    @property
    def magnitude(self) -> float:
        return abs(self.value)

    @property
    def phase(self) -> float:
        return float(np.angle(self.value))

    def as_dict(self) -> dict:
        return {
            "re": float(self.value.real),
            "im": float(self.value.imag),
            "magnitude": self.magnitude,
            "phase": self.phase,
            "branch_note": BRANCH_NOTE_PRINCIPAL,
        }


def _det_text(sign: float, log_det: float) -> str:
    """sign e^log_det as ``{:.3e}`` where that is a double, else as e^x."""
    if math.isinf(log_det) or not abs(log_det) > LOG_HUGE:
        return f"{sign * math.exp(log_det):.3e}"
    return f"{'-' if sign < 0 else ''}e^{log_det:.6g}"


def prefactor(sign: float, log_det: float, dim: int, hbar: float, what: str,
              error: type = CausticRegion) -> FluctuationFactor:
    """F = (2 pi i hbar)^(-D/2) sqrt(det), the rule of every route.

    ``(sign, log_det)`` is det as ``numpy.linalg.slogdet`` gives it, and
    |F| = exp((log_det - D log(2 pi hbar)) / 2).  Raises NonFiniteResult
    for a NaN ``log_det`` or an |F| that overflows (not a caustic), then
    ``error`` unless ``sign > 0``.
    """
    log_mag = 0.5 * (log_det - dim * math.log(2.0 * math.pi * hbar))
    if math.isnan(log_mag) or log_mag > LOG_HUGE:
        raise NonFiniteResult(
            f"{what} determinant is {_det_text(sign, log_det)}, not finite")
    if not sign > 0.0:
        raise error(
            f"{what} determinant is {_det_text(sign, log_det)}, not positive")
    return FluctuationFactor(
        value=math.exp(log_mag) * np.exp(-0.25j * np.pi * dim))


def vvpm_factor(hess: ActionHessian, hbar: float = 1.0) -> FluctuationFactor:
    """F = (2 pi i hbar)^(-D/2) sqrt(det(-d2A/dx_a dx_b)).

    Raises CausticRegion when the determinant is not positive.
    """
    return prefactor(*np.linalg.slogdet(hess.mixed), hess.dim, hbar,
                     "Van Vleck")


def short_time_factor(model: LagrangianModel, x_a, t_a: float, dt: float
                      ) -> FluctuationFactor:
    """Leading short-interval prefactor (2 pi i hbar)^(-D/2) sqrt(det(g/dt))."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    g = np.asarray(model.metric(np.asarray(x_a, float), t_a), dtype=float)
    sign, log_det = np.linalg.slogdet(g)
    return prefactor(sign, log_det - model.dim * math.log(dt), model.dim,
                     model.hbar, "short-time metric")


def energy_hessian_factor(path: ClassicalPath) -> FluctuationFactor:
    """Prefactor from the endpoint energy Hessian, ``affine_flow`` only.

    The formula holds only where F is the Van Vleck determinant alone,
    i.e. where the Euler-Lagrange equations are linear in (x, v), so a
    model not flagged ``affine_flow`` raises NotQuadraticModel.
    E(x_a, x_b) is the conserved energy of the classical path as a function
    of the endpoints.  On these models the path's stored flow fixes the
    initial velocity of every path from x_a: ``flow_seed`` predicts it
    exactly up to roundoff, so E(x_a, x_b) is the Hamiltonian at x_a with
    that velocity, and no boundary problem is solved.  It is the energy a
    flow-seeded ``solve_bvp`` returns, since that solve accepts its seed as
    its first iterate.  ``central_hessian`` differentiates E in x_b over
    2 D^2 such evaluations, with f0 the path's own energy_a.  E is exactly
    quadratic in the endpoints, so the stencil step is a large
    0.05 * max(1, |x_b - x_a|): no truncation error, and roundoff is
    suppressed far below tolerance.

    det(g) det(d2E/dx_b dx_b) = det(mixed)^2, so log|det mixed| is the mean
    of log|det g| and log|det E''|; its sign, det(g) / det(dx_b/dv_a) read
    off the stored flow times |sign det E''|, refuses a singular E'' and a
    caustic with CausticRegion, and ``variational_blocks`` raises
    ConjugatePoint at conjugate endpoints, as on ``vvpm`` and ``general``.
    """
    model = path.model
    if not model.affine_flow:
        raise NotQuadraticModel(
            f"the energy-Hessian route needs a model flagged affine_flow "
            f"(linear Euler-Lagrange equations); {model.label!r} is not")
    _, pxv, _, _ = variational_blocks(path)
    x_a, t_a = path.x_a, path.t_a
    h = 0.05 * max(1.0, float(np.linalg.norm(path.x_b - x_a)))

    def energy(xb):
        v_a = flow_seed(path, x_a, xb)
        return evaluate_hamiltonian(
            model, x_a, legendre_momentum(model, x_a, v_a, t_a), t_a)

    ehess = central_hessian(energy, path.x_b, h, path.energy_a)
    sign_g, log_g = np.linalg.slogdet(model.metric(x_a, t_a))
    sign_e, log_e = np.linalg.slogdet(ehess)
    return prefactor(sign_g * np.linalg.slogdet(pxv)[0] * abs(sign_e),
                     0.5 * (log_g + log_e), model.dim, model.hbar,
                     "signed metric times endpoint energy Hessian")


def general_factor(path: ClassicalPath) -> FluctuationFactor:
    """Velocity-gradient form F^2 = det(g_a) det(dv_a/dx_b) / (2 pi i hbar)^D.

    dv_a/dx_b is the inverse of the dx_b/dv_a block of the path's stored
    variational flow, the same matrix the VVPM route inverts, so this
    equals the VVPM value identically up to roundoff; kept as a separate
    route for cross-checks.  ``variational_blocks`` raises ConjugatePoint
    when dx_b/dv_a is singular.
    """
    model = path.model
    _, pxv, _, _ = variational_blocks(path)
    sign_g, log_g = np.linalg.slogdet(model.metric(path.x_a, path.t_a))
    sign_p, log_p = np.linalg.slogdet(pxv)
    return prefactor(sign_g * sign_p, log_g - log_p, model.dim, model.hbar,
                     "initial velocity gradient")
