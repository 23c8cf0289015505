"""Boundary Jacobi determinants without solving the boundary value problem.

The quadratic fluctuation operator of a path is characterized by the
matrix boundary problem

    Bddot(t) + Omega2(t) B(t) = 0,   B(t_a) = 0,   B(t_b) = 1,

whose initial slope Bdot(t_a) carries the whole determinant:

    F = sqrt(det M) / (2 pi i hbar T)^(D/2) * sqrt(det(T Bdot(t_a))),
    T = t_b - t_a.

The normalization det(T Bdot(t_a)) -> 1 for Omega2 = 0 anchors the free
particle exactly.  By linearity the boundary solution is obtained from the
seeded initial problem B_raw(t_a) = 0, Bdot_raw(t_a) = 1 through
Bdot(t_a) = B_raw(t_b)^-1, the (D, D) array all three solvers return:

* DirectODE: RK4 on the stacked matrix state [B; Bdot], by the
  precomputed step maps of ``dynamics.linear_rk4``, composed as a tree.
* NeumannSeries(k): truncated iterated-integral series evaluated by
  Gauss-Legendre collocation (spectral antiderivative matrix, built once
  per quadrature order on [-1, 1] and mapped onto the interval).
* TimeOrderedSinh(n): ordered product over n slices of exponentials of the
  block generator [[0, 1], [-Omega2, 0]], multiplied as a pairwise tree
  by ``dynamics._compose``; the upper-right block of the product is
  B_raw(t_b).  Exact for constant Omega2.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial import legendre as npleg

from .dynamics import (DEFAULT_N_STEPS, _compose, linear_rk4,
                       require_nonsingular)
from .errors import FocalPoint, SeriesDivergence
from .fluctuation import FluctuationFactor, prefactor
from .models import along, mass_matrix

DEFAULT_SERIES_ORDER = 8
DEFAULT_QUAD_POINTS = 64
DEFAULT_N_SLICES = 2000


def _omega2_sampler(omega2, t_probe: float):
    """Normalize scalar / matrix / callable frequency input to a sampler
    ts -> (len(ts), D, D) of Omega2 at a 1-D array of times.

    A callable is probed once at ``t_probe`` for D and then read by
    ``models.along``: one call per sampler call when it is marked
    ``models.stacked``, one per time otherwise.
    """
    if callable(omega2):
        d = np.atleast_2d(np.asarray(omega2(t_probe), dtype=float)).shape[0]
        return (lambda ts: along(omega2, ts).reshape(len(ts), d, d)), d
    const = np.atleast_2d(np.asarray(omega2, dtype=float))
    d = const.shape[0]
    return (lambda ts: np.broadcast_to(const, (len(ts), d, d))), d


def _invert_boundary(b_tb: np.ndarray, what: str, duration: float) -> np.ndarray:
    require_nonsingular(b_tb, duration, FocalPoint, f"{what}: B_raw(t_b)")
    return np.linalg.inv(b_tb)


def solve_B_direct(omega2, t_a: float, t_b: float,
                   n_steps: int = DEFAULT_N_STEPS) -> np.ndarray:
    """RK4 on the seeded initial problem, then inversion.

    The state is the stacked (2D, D) array [B; Bdot], from (0, 1) at t_a,
    and the system [B; Bdot]' = [[0, 1], [-Omega2, 0]] [B; Bdot] is
    linear, so ``dynamics.linear_rk4`` steps it by precomputed maps and
    keeps only the running state; Omega2 is read at the distinct stage
    times of each block of steps at once.  ``omega2`` is a scalar, a
    matrix or a callable t -> (D, D).
    """
    w2, d = _omega2_sampler(omega2, t_a)

    def sample(ts):
        gen = np.zeros((len(ts), 2 * d, 2 * d))
        gen[:, :d, d:] = np.eye(d)
        gen[:, d:, :d] = -w2(ts)
        return gen

    b_tb = linear_rk4(sample, np.vstack((np.zeros((d, d)), np.eye(d))),
                      np.linspace(t_a, t_b, n_steps + 1), history=False)[:d]
    return _invert_boundary(b_tb, "DirectODE", t_b - t_a)


@functools.lru_cache(maxsize=1)
def _reference_rule(q: int):
    """Gauss-Legendre nodes, weights and antiderivative matrix on [-1, 1].

    They depend on ``q`` alone, so they are built once per order and kept
    read-only; one entry is kept, since a run uses one ``quad_points``.
    """
    xi, w = npleg.leggauss(q)
    # column j of vinv holds the Legendre coefficients of the interpolant
    # of the j-th unit sample; its antiderivative from -1 is read at xi
    vinv = np.linalg.inv(npleg.legvander(xi, q - 1))
    qxi = npleg.legvander(xi, q) @ npleg.legint(vinv, lbnd=-1.0, axis=0)
    for array in (xi, w, qxi):
        array.flags.writeable = False
    return xi, w, qxi


def _collocation(t_a: float, t_b: float, q: int):
    """Gauss-Legendre nodes, antiderivative matrix and full-interval weights,
    the reference rule mapped affinely onto [t_a, t_b]."""
    xi, w, qxi = _reference_rule(q)
    nodes = t_a + 0.5 * (xi + 1.0) * (t_b - t_a)
    half = 0.5 * (t_b - t_a)
    return nodes, half * qxi, half * w


def solve_B_neumann(omega2, t_a: float, t_b: float,
                    order: int = DEFAULT_SERIES_ORDER,
                    quad_points: int = DEFAULT_QUAD_POINTS) -> np.ndarray:
    """Truncated iterated-integral series for B_raw(t_b), then inversion.

    The m-th term is the 2m-fold nested integral of Omega2 against the
    previous one; terms are accumulated with alternating signs up to
    ``order``.  Raises SeriesDivergence when the final term still grows in
    norm over its predecessor (the series is not yet decreasing at the
    truncation horizon, so the first omitted term does not bound the
    error).  A transient hump at low order is tolerated.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    w2, d = _omega2_sampler(omega2, t_a)
    q = quad_points
    nodes, qmat, wfull = _collocation(t_a, t_b, q)
    w_nodes = w2(nodes)                               # (q, D, D)
    eye = np.eye(d)

    term_nodes = (nodes - t_a)[:, None, None] * eye   # m = 0 term at nodes
    g_tb = (t_b - t_a) * eye
    prev_norm = float(np.linalg.norm(g_tb))

    norm = prev_norm
    for m in range(1, order + 1):
        inner = np.einsum("qij,qjk->qik", w_nodes, term_nodes)
        j_nodes = np.einsum("pq,qik->pik", qmat, inner)
        term_nodes = np.einsum("pq,qik->pik", qmat, j_nodes)
        term_tb = np.einsum("q,qik->ik", wfull, j_nodes)
        prev_norm, norm = norm, float(np.linalg.norm(term_tb))
        sign = -1.0 if m % 2 else 1.0
        g_tb = g_tb + sign * term_tb
        if norm == 0.0:
            break
    if order >= 1 and norm > prev_norm:
        raise SeriesDivergence(
            f"term {order} norm {norm:.3e} exceeds term {order - 1} norm "
            f"{prev_norm:.3e}; series not decreasing at this truncation")

    return _invert_boundary(g_tb, f"NeumannSeries({order})", t_b - t_a)


def _slice_propagators(w: np.ndarray, dt: float) -> np.ndarray:
    """exp(dt [[0, 1], [-W, 0]]) = [[C, S], [-W S, C]] for a stack of W.

    C = cos(sqrt(W) dt) and S = sin(sqrt(W) dt) / sqrt(W) are power series
    in X = -W dt^2, summed on X / 4^s with max |X|_inf / 4^s <= 1 and then
    doubled s times (C <- 2 C C - 1, S <- 2 S C).  No eigenbasis of W is
    formed, so a defective W needs no special case.
    """
    eye = np.eye(w.shape[1])
    x = -w * dt**2
    doublings = max(0, (int(np.frexp(np.abs(x).sum(axis=2).max())[1]) + 1) // 2)
    y = x / 4.0**doublings
    c, s_h = eye, eye      # Horner sums of Y^k/(2k)! and Y^k/(2k+1)!, k <= 10
    for k in range(10, 0, -1):
        c = eye + (y @ c) / ((2 * k - 1) * (2 * k))
        s_h = eye + (y @ s_h) / ((2 * k) * (2 * k + 1))
    sn = s_h * (dt / 2.0**doublings)
    for _ in range(doublings):
        c, sn = 2.0 * c @ c - eye, 2.0 * sn @ c
    return np.block([[c, sn], [-w @ sn, c]])


def solve_B_time_ordered(omega2, t_a: float, t_b: float,
                         n_slices: int = DEFAULT_N_SLICES) -> np.ndarray:
    """Ordered product of per-slice exponentials of [[0, 1], [-Omega2, 0]].

    Omega2 is frozen at each slice midpoint.  The slice propagators are
    multiplied by ``dynamics._compose`` as a pairwise tree, in increment
    form e - 1, which is exact on a fine slicing, where each diagonal
    entry of C lies within a factor 2 of 1.  The raw state (B, Bdot) from
    (0, 1) at t_a ends at the product's right block column, so the
    product's upper-right block, which the 1 does not touch, is
    B_raw(t_b), inverted as in ``solve_B_direct``.
    """
    if n_slices < 1:
        raise ValueError("n_slices must be positive")
    w2, d = _omega2_sampler(omega2, t_a)
    dt = (t_b - t_a) / n_slices
    w = w2(t_a + (np.arange(n_slices) + 0.5) * dt)

    product = _compose(_slice_propagators(w, dt) - np.eye(2 * d))
    return _invert_boundary(product[:d, d:], f"TimeOrderedSinh({n_slices})",
                            t_b - t_a)


def gy_fluctuation_factor(b_dot_a: np.ndarray, mass_metric,
                          hbar: float = 1.0) -> FluctuationFactor:
    """F = sqrt(det M) / (2 pi i hbar T)^(D/2) * sqrt(det(T Bdot(t_a))).

    T^D cancels, so this is ``prefactor`` of slogdet(M Bdot(t_a)).  Raises
    FocalPoint unless its sign is positive (a focal time lies inside the
    interval), and NonSPDMass unless the mass passes ``models.mass_matrix``.
    """
    d = b_dot_a.shape[0]
    return prefactor(*np.linalg.slogdet(mass_matrix(mass_metric, d) @ b_dot_a),
                     d, hbar, "M Bdot(t_a)", error=FocalPoint)
