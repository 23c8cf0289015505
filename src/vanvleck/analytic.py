"""Closed-form fluctuation factors for the exactly solvable model families.

These are the reference results everything else is tested against: the
free particle, the constant-frequency harmonic oscillator, the uniform
magnetic field, and the one-dimensional reduction that expresses the
factor through velocity integrals along an already-solved path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import ClassicalPath, simpson
from .errors import FocalPoint, TurningPoint
from .fluctuation import FluctuationFactor, prefactor
from .models import along, mass_matrix

TURNING_POINT_RATIO = 1e-8


@dataclass(frozen=True)
class AnalyticResult:
    """A closed-form factor plus whatever extra structure the model admits."""

    factor: FluctuationFactor
    action: Optional[float] = None
    aux: dict = field(default_factory=dict)


def _sine_ratio(x: float) -> float:
    """x / sin(x), continuous through x = 0."""
    return 1.0 / np.sinc(x / np.pi)


def free_particle_factor(mass, duration: float, hbar: float = 1.0,
                         dim: Optional[int] = None,
                         x_a=None, x_b=None) -> AnalyticResult:
    """F = sqrt(det M) / (2 pi i hbar T)^(D/2).

    aux carries the eigen-decomposition of the mass matrix and the
    endpoint energy Hessian M / T^2.  The straight-line action
    (1/2) dx.M.dx / T is filled in when both endpoints are given.
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    m = mass_matrix(mass, dim)
    d = m.shape[0]
    evals, axes = np.linalg.eigh(m)
    factor = prefactor(np.linalg.det(m) / duration**d, d, hbar,
                       "free-particle")
    action = None
    if x_a is not None and x_b is not None:
        dx = np.asarray(x_b, dtype=float) - np.asarray(x_a, dtype=float)
        action = 0.5 * float(dx @ m @ dx) / duration
    return AnalyticResult(
        factor=factor, action=action,
        aux={"mass_eigenvalues": evals, "mass_axes": axes,
             "energy_hessian": m / duration**2})


def harmonic_constant_factor(mass, omega2, duration: float, hbar: float = 1.0,
                             dim: Optional[int] = None,
                             x_a=None, x_b=None) -> AnalyticResult:
    """Constant-frequency oscillator factor via normal modes.

    F = sqrt(det M) / (2 pi i hbar T)^(D/2) * prod_i sqrt(w_i T / sin(w_i T))
    with w_i^2 the eigenvalues of the pencil (sym(M w^2), M).  The w -> 0
    limit reproduces the free particle.  The action, when endpoints are
    supplied, is summed over decoupled modes in mass-orthonormal
    coordinates y = Phi^T M x.
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    m = mass_matrix(mass, dim)
    d = m.shape[0]
    w2 = np.asarray(omega2, dtype=float)
    if w2.ndim == 0:
        w2 = float(w2) * np.eye(d)
    stiffness = m @ w2
    if not np.allclose(stiffness, stiffness.T,
                       atol=1e-10 * (1.0 + np.abs(stiffness).max())):
        raise ValueError("M @ omega2 must be symmetric")
    stiffness = 0.5 * (stiffness + stiffness.T)
    l_inv = np.linalg.inv(np.linalg.cholesky(m))
    mode_w2, y = np.linalg.eigh(l_inv @ stiffness @ l_inv.T)
    modes = l_inv.T @ y                  # M-orthonormal: modes^T M modes = 1
    if np.any(mode_w2 <= 0.0):
        raise ValueError("normal-mode frequencies must be real and positive")
    omegas = np.sqrt(mode_w2)
    phases = omegas * duration
    if np.any(phases >= np.pi):
        worst = float(phases.max())
        raise FocalPoint(
            f"mode phase w*T = {worst:.6g} has reached the first focal "
            "point (pi)")
    ratio = float(np.prod([_sine_ratio(p) for p in phases]))
    factor = prefactor(np.linalg.det(m) / duration**d * ratio, d, hbar,
                       "normal-mode")
    action = None
    if x_a is not None and x_b is not None:
        y_a = modes.T @ m @ np.asarray(x_a, dtype=float)
        y_b = modes.T @ m @ np.asarray(x_b, dtype=float)
        action = 0.0
        for w, ya, yb in zip(omegas, y_a, y_b):
            coef = _sine_ratio(w * duration) / (2.0 * duration)
            action += coef * ((ya**2 + yb**2) * np.cos(w * duration)
                              - 2.0 * ya * yb)
        action = float(action)
    return AnalyticResult(
        factor=factor, action=action,
        aux={"normal_mode_frequencies": omegas, "mode_matrix": modes})


def magnetic_orbit_center(x_a, x_b, omega: float, duration: float) -> np.ndarray:
    """Center of the circular in-plane motion joining the two endpoints.

    The gauge term -M w x_1 v_2 turns velocities counterclockwise for
    w > 0, so the center sits to the left of the chord; the chord
    subtends the angle w (t_b - t_a) at the center.
    """
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    half = 0.5 * omega * duration
    cot = np.cos(half) / np.sin(half)
    return np.array([
        0.5 * ((x_b[0] + x_a[0]) - (x_b[1] - x_a[1]) * cot),
        0.5 * ((x_b[1] + x_a[1]) + (x_b[0] - x_a[0]) * cot)])


def magnetic_factor(mass: float, omega: float, dim: int, duration: float,
                    hbar: float = 1.0, x_a=None, x_b=None) -> AnalyticResult:
    """Uniform-field factor: free value times (wT/2) / sin(wT/2).

    Only the first two coordinates couple to the field; the remaining
    D - 2 directions are free.  aux carries the endpoint Hessian blocks
    (mixed, aa, bb), the energy Hessian, and, when endpoints are given
    and omega is nonzero, the orbit center of the in-plane circle.
    """
    if dim < 2:
        raise ValueError("magnetic model needs at least two dimensions")
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    mass_matrix(mass, dim)  # raises NonSPDMass unless mass > 0
    half = 0.5 * omega * duration
    if abs(half) >= np.pi:
        raise FocalPoint(
            f"half-phase w*T/2 = {half:.6g} has reached the first focal "
            "point (pi)")
    multiplier = _sine_ratio(half)
    factor = prefactor((mass / duration) ** dim * multiplier**2, dim, hbar,
                       "uniform-field")

    # Endpoint Hessian blocks: in-plane 2x2 from the circular motion,
    # free-particle M/T on the spectator axes.
    cot_term = mass * multiplier * np.cos(half) / duration
    skew = 0.5 * mass * omega
    mixed = (mass / duration) * np.eye(dim)
    aa = (mass / duration) * np.eye(dim)
    bb = (mass / duration) * np.eye(dim)
    mixed[:2, :2] = [[cot_term, skew], [-skew, cot_term]]
    aa[:2, :2] = [[cot_term, skew], [skew, cot_term]]
    bb[:2, :2] = [[cot_term, -skew], [-skew, cot_term]]
    energy_hessian = (mass / duration**2) * np.eye(dim)
    energy_hessian[:2, :2] = mass * (multiplier / duration) ** 2 * np.eye(2)

    aux = {"larmor_frequency": omega, "mixed": mixed, "aa": aa, "bb": bb,
           "energy_hessian": energy_hessian}
    action = None
    if x_a is not None and x_b is not None:
        x_a = np.asarray(x_a, dtype=float)
        x_b = np.asarray(x_b, dtype=float)
        # A is a pure quadratic form in the endpoints; its second
        # derivatives are exactly the blocks above.
        action = float(0.5 * x_b @ bb @ x_b + 0.5 * x_a @ aa @ x_a
                       - x_a @ mixed @ x_b)
        if omega != 0.0:
            aux["orbit_center"] = magnetic_orbit_center(
                x_a, x_b, omega, duration)
    return AnalyticResult(factor=factor, action=action, aux=aux)


def one_dim_dalembert_factor(path: ClassicalPath) -> AnalyticResult:
    """One-dimensional factor from velocity integrals along a solved path.

    F = (2 pi i hbar)^(-1/2) [v(t_a) v(t_b) * integral dt / (g v^2)]^(-1/2),
    with hbar the path model's and g = g(x(t)) the metric (the mass for
    constant g) along the path, valid for a time-independent potential
    while the velocity never changes sign on the grid.  The integral is
    the Simpson rule of the action quadrature on the path's uniform grid.
    """
    if path.positions.shape[1] != 1:
        raise ValueError("this reduction applies to one-dimensional models")
    hbar = path.model.hbar
    v = path.velocities[:, 0]
    vmax = float(np.abs(v).max())
    # a sign change can fall between grid points and miss the ratio test
    if (float(v.min()) * float(v.max()) <= 0.0
            or float(np.abs(v).min()) < TURNING_POINT_RATIO * vmax):
        raise TurningPoint(
            "velocity vanishes or changes sign on the grid; the reduction "
            "breaks down at a turning point")
    g = along(path.model.metric, path.positions, path.times)[:, 0, 0]
    integral = simpson(1.0 / (g * v**2), path.duration / path.n_steps)
    factor = prefactor(1.0 / (v[0] * v[-1] * integral), 1, hbar,
                       "velocity-integral")
    return AnalyticResult(
        factor=factor, action=path.action,
        aux={"velocity_integral": integral})
