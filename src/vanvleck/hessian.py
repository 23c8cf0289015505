"""Endpoint Hessian blocks of the classical action.

For a solved boundary problem the three second-derivative blocks of the
action A(x_a, x_b) are obtained from the variational flow Phi(t_b) of the
Euler-Lagrange linearization (the matrix Jacobi system).  Writing the
blocks of Phi as dx_b/dx_a = Pxx, dx_b/dv_a = Pxv, dv_b/dx_a = Pvx,
dv_b/dv_a = Pvv, and using p = g v + a:

    mixed = -d2A/dx_a dx_b = g_a Pxv^-1                (Van Vleck matrix)
    aa    =  d2A/dx_a dx_a = -Gamma_a - da_a + g_a Pxv^-1 Pxx
    bb    =  d2A/dx_b dx_b =  Gamma_b + da_b + g_b Pvv Pxv^-1

with Gamma[i, j] = (d_j g_ik) v_k at the respective endpoint.  The
tests check these blocks against central differences of the action over
re-solved boundary problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ClassicalPath, require_nonsingular, state_at
from .errors import ConjugatePoint, NonConstantMetric, VectorPotentialPresent
from .models import (LagrangianModel, along, invert_metric,
                     metric_is_constant, stacked)

VECTOR_POTENTIAL_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class ActionHessian:
    """Second derivatives of the action with respect to the endpoints.

    ``mixed`` is the negative cross block -d2A/dx_a dx_b, sign-anchored so
    the free particle gives M / (t_b - t_a), positive definite.  ``aa`` and
    ``bb`` are the diagonal blocks, both symmetric.
    """

    mixed: np.ndarray
    aa: np.ndarray
    bb: np.ndarray

    @property
    def dim(self) -> int:
        return self.mixed.shape[0]


def variational_blocks(path: ClassicalPath):
    """Blocks (Pxx, Pxv, Pvx, Pvv) of the path's stored flow Phi(t_b).

    The one conjugate-point test: raises ConjugatePoint when Pxv =
    dx_b/dv_a is singular, so every route that reads the flow refuses
    conjugate endpoints alike.
    """
    d = path.model.dim
    flow = path.flow
    pxv = flow[:d, d:]
    require_nonsingular(pxv, path.duration, ConjugatePoint,
                        "boundary Jacobi matrix dx_b/dv_a")
    return flow[:d, :d], pxv, flow[d:, :d], flow[d:, d:]


def flow_seed(path: ClassicalPath, x_a: np.ndarray,
              x_b: np.ndarray) -> np.ndarray:
    """Initial velocity for the boundary problem from ``x_a`` to ``x_b``
    predicted to first order by the path's stored flow,

        v_a + Pxv^-1 (x_b - x(t_b) - Pxx (x_a - x(t_a))).

    On an ``affine_flow`` model (a linear builtin, or an expression
    potential of degree at most 2 in x) the prediction is exact up to
    roundoff: a seeded solve accepts its one run as it stands, and
    ``energy_hessian_factor`` takes the prediction as the initial velocity
    of each stencil path without solving.  Raises ConjugatePoint when Pxv
    is singular (``variational_blocks``).
    """
    pxx, pxv, _, _ = variational_blocks(path)
    rhs = x_b - path.positions[-1] - pxx @ (x_a - path.positions[0])
    return path.v_a + np.linalg.solve(pxv, rhs)


def _gamma(model: LagrangianModel, x, v, t) -> np.ndarray:
    dg = np.asarray(model.metric_grad(x, t))
    return np.einsum("jik,k->ij", dg, v)


def action_hessian_jacobi(path: ClassicalPath) -> ActionHessian:
    """Endpoint Hessian blocks from the path's stored variational flow.

    Raises
    ------
    ConjugatePoint
        When dx_b/dv_a is singular, i.e. the endpoints are conjugate
        (``variational_blocks``).
    """
    model = path.model
    pxx, pxv, _, pvv = variational_blocks(path)
    pxv_inv = np.linalg.inv(pxv)

    x_a, v_a, t_a = path.positions[0], path.velocities[0], path.t_a
    x_b, v_b, t_b = path.positions[-1], path.velocities[-1], path.t_b
    g_a = np.asarray(model.metric(x_a, t_a), dtype=float)
    g_b = np.asarray(model.metric(x_b, t_b), dtype=float)
    da_a = np.asarray(model.vector_potential_grad(x_a, t_a))
    da_b = np.asarray(model.vector_potential_grad(x_b, t_b))

    mixed = g_a @ pxv_inv
    aa = -_gamma(model, x_a, v_a, t_a) - da_a + g_a @ pxv_inv @ pxx
    bb = _gamma(model, x_b, v_b, t_b) + da_b + g_b @ pvv @ pxv_inv
    return ActionHessian(mixed=mixed, aa=aa, bb=bb)


def frequency_matrix_along_path(path: ClassicalPath):
    """Jacobi frequency matrix t -> Omega^2(t) = g^-1 d2V/dx2 along the path.

    Only meaningful for a vanishing magnetic field, the antisymmetric
    part of da = d a_i / d x_j, which the Jacobi equation sees; a pure
    gauge a = grad chi, with symmetric da, leaves it unchanged.  Raises
    VectorPotentialPresent if |da - da^T| exceeds
    VECTOR_POTENTIAL_ZERO_TOL at any of about 64 grid samples, read in
    one ``models.along`` call of vector_potential_grad.
    Omega^2 and the constant sqrt(det M) of ``gy_fluctuation_factor``
    both assume a constant metric, so a model for which
    ``metric_is_constant`` fails at the start point raises
    NonConstantMetric; g^-1 is computed once, there.  On an
    ``affine_flow`` model Hess V does not depend on x, so the callable
    reads it at x = 0, as the path's own ``dynamics.linear_rk4`` runs do;
    on any other model it interpolates the path with ``state_at``.  The
    callable is marked ``models.stacked``: one time gives (D, D), a 1-D
    array of times (len(t), D, D), from one ``along`` read of
    potential_hess.
    """
    model = path.model
    step = max(1, len(path.times) // 64)
    da = along(model.vector_potential_grad, path.positions[::step],
               path.times[::step]).reshape(-1, model.dim, model.dim)
    worst = float(np.max(np.abs(da - da.swapaxes(1, 2))))
    if worst > VECTOR_POTENTIAL_ZERO_TOL:
        raise VectorPotentialPresent(
            f"the magnetic field |da - da^T| reaches {worst:.3e} along the "
            "path; the scalar Jacobi frequency form only applies to zero "
            "field")
    if not metric_is_constant(model, path.x_a, path.t_a):
        raise NonConstantMetric(
            f"the Gelfand-Yaglom frequency needs a constant metric; "
            f"{model.label!r} is not flagged kinetic_gradients_constant or "
            "its metric_grad does not vanish")
    gi = invert_metric(model.metric(path.x_a, path.t_a), path.x_a, path.t_a)
    d = model.dim

    @stacked
    def omega2(t):
        ts = np.atleast_1d(t)
        if model.affine_flow:
            x = np.zeros((len(ts), d))
        else:
            x = state_at(path, ts)[0]
        w = gi @ along(model.potential_hess, x, ts).reshape(len(ts), d, d)
        return w if np.ndim(t) else w[0]

    return omega2
