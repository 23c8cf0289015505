"""Lagrangian models quadratic in velocity.

Every system handled by the toolkit has the form

    L(x, v, t) = 1/2 v.g(x, t).v + v.a(x, t) - V(x, t)

with a symmetric invertible kinetic metric g, a vector potential a and a
scalar potential V.  The conjugate momentum is p = g v + a and the
Hamiltonian obtained by Legendre transform is

    H(x, p, t) = 1/2 (p - a).g^-1.(p - a) + V(x, t).

A model is a bundle of evaluation callbacks plus first derivatives; the
integrators never differentiate symbolically, they only call these hooks.

Every callback takes one point: ``x`` of shape (D,) and a scalar ``t``.
A callback marked with ``stacked`` also takes an ndarray ``x`` of shape
(..., D) and ``t`` a scalar or an array of the same leading shape, and
returns one value per point, stacked on those leading axes.  ``along``
evaluates a callback on a whole grid: one call of a marked callback, a
loop over the points for any other.  The marker sits on each callable,
not on the model, so a callback swapped in by ``dataclasses.replace`` or
wrapped by a caller is called pointwise unless it is marked itself.  The
builtins' closed forms are marked, those built on a user's ``omega2`` or
``stiffness`` callable too; callables a user passes in are not.

A ``one_dim_potential`` callback built on a compiled expression
(``expressions.compile_node``) carries its tree as ``node``, in the same
way, and one built on any other function carries None.  The D = 1 path
pass of a nonlinear run inlines the lines of potential_grad's tree; a
potential_grad without one, swapped in or wrapped included, takes the
general rule, to the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonSPDMass, SingularMetric

# Central first-difference step: the cube root of machine epsilon balances
# the noise floor against truncation.
FD_STEP = float(np.cbrt(np.finfo(float).eps))

# A metric value g is singular when its elimination meets a zero pivot
# (det g is then 0, whatever the bound overflows to) or when |det g| <=
# SINGULAR_METRIC_RTOL * prod_i max_j |g_ij|, decided again in
# logarithms where the products say singular, so that an overflow or an
# underflow does not decide it (diag(1e200, 1e200, 1e200) and
# diag(1e-120, 1e-120, 1e-120) are regular).  Dividing each row by its
# largest entry leaves the test unchanged, so a metric whose coordinates
# differ in scale, such as diag(1, 1e-14), passes; ``invert_metric``,
# ``metric_solve`` and the path pass's float elimination in ``dynamics``
# all apply it.
SINGULAR_METRIC_RTOL = 1e-12


@dataclass(frozen=True)
class LagrangianModel:
    """Callback bundle describing one quadratic-in-velocity system.

    The metric g and the vector potential a carry no explicit time
    dependence: the equations of motion drop d_t g and d_t a, so the ``t``
    argument of their callbacks must not change the result.  The scalar
    potential V may depend on t.

    Parameters
    ----------
    dim : int
        Configuration space dimension D.
    metric : callable
        ``metric(x, t) -> (D, D)`` symmetric invertible kinetic metric.
    metric_grad : callable
        ``metric_grad(x, t) -> (D, D, D)`` with ``[k, i, j] = d g_ij / d x_k``.
    vector_potential : callable
        ``vector_potential(x, t) -> (D,)``.
    vector_potential_grad : callable
        ``vector_potential_grad(x, t) -> (D, D)`` with ``[i, j] = d a_i / d x_j``.
    potential : callable
        ``potential(x, t) -> float``.
    potential_grad : callable
        ``potential_grad(x, t) -> (D,)``.
    potential_hess : callable
        ``potential_hess(x, t) -> (D, D)`` symmetric.
    hbar : float
        Positive scale entering every fluctuation prefactor.
    kinetic_gradients_constant : bool
        True when metric_grad and vector_potential_grad do not depend on x.
        The variational linearization is then exact; otherwise the missing
        second derivatives of g and a are filled in by central differences.
        When metric_grad also vanishes (``metric_is_constant``), a D = 1
        path pass on a compiled expression's dV/dx reads no callback a
        stage; otherwise the flag leaves the path pass alone, which reads
        four callbacks a stage unless ``affine_flow`` is set, and records
        the values of metric, metric_grad and vector_potential_grad for
        the flow step.  The flow step then reads potential_hess alone a
        stage; unflagged, it also reads metric_grad and
        vector_potential_grad at the 2D shifted points of the central
        differences.
    affine_flow : bool
        True when the Euler-Lagrange equations are linear in (x, v): g
        constant, a linear and V quadratic in x, at every t.  The RK4
        endpoint map is then exactly affine in the initial state and the
        variational flow does not depend on the trajectory, so
        ``solve_bvp`` solves the boundary problem from one run, and only
        then is ``energy_hessian_factor`` valid; it reads the endpoint
        energies off the flow.  The flag also picks the integrator: every
        run on such a model is ``dynamics.linear_rk4``, which reads g and
        da once at the start point and Hess V and grad V at x = 0 only;
        the rest follows from linearity.  ``frequency_matrix_along_path``
        reads Hess V at x = 0 too, without interpolating the path.  A
        model that sets it without such equations therefore gets a wrong
        path, flow, energy Hessian and Gelfand-Yaglom frequency,
        silently.  The builtins set it: those affine by construction, and
        ``one_dim_potential`` on an expression of degree <= 2 in x.
    label : str
        Identifier used in serialized reports.
    """

    dim: int
    metric: Callable
    metric_grad: Callable
    vector_potential: Callable
    vector_potential_grad: Callable
    potential: Callable
    potential_grad: Callable
    potential_hess: Callable
    hbar: float = 1.0
    kinetic_gradients_constant: bool = False
    affine_flow: bool = False
    label: str = "custom"


def _check_point(model: LagrangianModel, x, name: str = "x") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError(
            f"{name} has shape {x.shape}, expected ({model.dim},) for model "
            f"{model.label!r}"
        )
    return x


def _require_regular(g: np.ndarray, x, t) -> None:
    """Raise SingularMetric when any metric value in the stack g,
    (..., D, D), read at the points x and times t, is singular by the
    SINGULAR_METRIC_RTOL rule: a zero det, which numpy gives for a zero
    pivot (a zero row among them) whatever the bound overflows to, or
    |det| <= bound.  Where those products say singular, ``slogdet``
    decides again in logarithms, so a det or a bound that overflows or
    underflows does not decide it.  The products come first, as in the
    float elimination, so an inf entry gives its outcome there too: a
    det that underflows to 0 before an inf pivot is NaN and passes,
    where ``slogdet`` alone would read inf <= inf.  A NaN value passes,
    quietly, and no value warns."""
    g = g.reshape((-1,) + g.shape[-2:])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        row_max = np.abs(g).max(axis=-1)
        bound = SINGULAR_METRIC_RTOL * np.prod(row_max, axis=-1)
        det = np.linalg.det(g)
        singular = (det == 0.0) | (np.abs(det) <= bound)
        if np.any(singular):
            sign, log_det = np.linalg.slogdet(g[singular])
            log_bound = (np.log(SINGULAR_METRIC_RTOL)
                         + np.log(row_max[singular]).sum(axis=-1))
            singular[singular] = (sign == 0.0) | (log_det <= log_bound)
    if np.any(singular):
        raise SingularMetric(f"metric singular at x={x}, t={t}")


def metric_solve(model: LagrangianModel, x, t, rhs) -> np.ndarray:
    """Solve g(x, t) y = rhs, raising SingularMetric when g is singular."""
    g = np.asarray(model.metric(x, t), dtype=float)
    _require_regular(g, x, t)
    return np.linalg.solve(g, rhs)


def invert_metric(g, x, t) -> np.ndarray:
    """g^-1 of metric values g, (..., D, D), read at the points x and
    times t, raising SingularMetric when any of them is singular."""
    g = np.asarray(g, dtype=float)
    _require_regular(g, x, t)
    return np.linalg.inv(g)


def metric_is_constant(model: LagrangianModel, x, t) -> bool:
    """True when g is constant: the model is flagged
    ``kinetic_gradients_constant`` and metric_grad vanishes at (x, t)."""
    return (model.kinetic_gradients_constant
            and not np.any(np.asarray(model.metric_grad(x, t))))


def evaluate_lagrangian(model: LagrangianModel, x, v, t) -> float:
    """L = 1/2 v.g.v + v.a - V at one phase point."""
    x = _check_point(model, x)
    v = _check_point(model, v, "v")
    g = model.metric(x, t)
    a = model.vector_potential(x, t)
    return float(0.5 * v @ g @ v + v @ a - model.potential(x, t))


def legendre_momentum(model: LagrangianModel, x, v, t) -> np.ndarray:
    """Conjugate momentum p = g(x, t) v + a(x, t)."""
    x = _check_point(model, x)
    v = _check_point(model, v, "v")
    return np.asarray(model.metric(x, t) @ v + model.vector_potential(x, t), float)


def evaluate_hamiltonian(model: LagrangianModel, x, p, t) -> float:
    """H = 1/2 (p - a).g^-1.(p - a) + V at one phase point.

    Satisfies the duality H(x, p(x, v, t), t) + L(x, v, t) = v.p exactly.
    """
    x = _check_point(model, x)
    p = _check_point(model, p, "p")
    w = p - model.vector_potential(x, t)
    return float(0.5 * w @ metric_solve(model, x, t, w) + model.potential(x, t))


def velocity_from_momentum(model: LagrangianModel, x, p, t) -> np.ndarray:
    """Invert the Legendre map: v = g^-1 (p - a)."""
    x = _check_point(model, x)
    p = _check_point(model, p, "p")
    return metric_solve(model, x, t, p - model.vector_potential(x, t))


def stacked(fn: Callable) -> Callable:
    """Mark ``fn`` as a stacked callback (see the module docstring)."""
    fn.stacked = True
    return fn


def is_stacked(fn) -> bool:
    """True when ``fn`` carries the ``stacked`` marker."""
    return getattr(fn, "stacked", False) is True


def along(fn: Callable, *arrays) -> np.ndarray:
    """``fn`` at each row of ``arrays``, stacked as a float array.

    The arrays share their leading axis, one row per point (the positions
    (N, D) and times (N,) of a grid, or only the times for a callable of
    t).  A marked callback is called once on the whole arrays; any other
    is called once per row.
    """
    if is_stacked(fn):
        return np.asarray(fn(*arrays), dtype=float)
    return np.array([fn(*row) for row in zip(*arrays)], dtype=float)


def _constant(value) -> Callable:
    """A stacked callback equal to ``value`` at every point: a read-only
    broadcast of it over the leading axes of ``x``.  One point returns the
    same read-only view of ``value`` every call, built once; only stacked
    points broadcast."""
    shape = np.shape(value)
    point = np.broadcast_to(value, shape)

    def f(x, t):
        lead = np.shape(x)[:-1]
        return np.broadcast_to(value, lead + shape) if lead else point

    return stacked(f)


# ---------------------------------------------------------------------------
# central second differences


def central_hessian(f: Callable, x, h: float, f0: float) -> np.ndarray:
    """Central second differences of a scalar function f(x) with step h.

    ``f0`` is f(x), which every caller already has.  Diagonal entries use
    the three-point stencil, off-diagonal ones the four-point cross
    stencil; the result is symmetric and exact for quadratic f up to
    roundoff.  Makes 2 n^2 calls of f for n = x.size.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h**2
        for j in range(i):
            ej = np.zeros(n)
            ej[j] = h
            out[i, j] = out[j, i] = (
                f(x + ei + ej) - f(x + ei - ej)
                - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h * h)
    return out


# ---------------------------------------------------------------------------
# builtins


def _symmetric(m: np.ndarray) -> bool:
    """The one symmetry rule of M and K: every entry finite and
    |m - m^T| <= 1e-12 (1 + max |m|), so a NaN fails it."""
    scale = np.max(np.abs(m))
    return bool(np.isfinite(scale)
                and np.max(np.abs(m - m.T)) <= 1e-12 * (1.0 + scale))


def mass_matrix(mass, dim: Optional[int] = None) -> np.ndarray:
    """A scalar (times the identity) or square mass as a (D, D) matrix.

    The one mass rule: raises NonSPDMass unless the matrix passes
    ``_symmetric``, the rule a constant stiffness K shares, and is
    positive definite, and ValueError when its shape disagrees with
    ``dim``.
    """
    m = np.asarray(mass, dtype=float)
    if m.ndim == 0:
        m = float(m) * np.eye(1 if dim is None else dim)
    elif m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("mass must be a scalar or a square matrix")
    elif dim is not None and m.shape != (dim, dim):
        raise ValueError(f"mass matrix shape {m.shape} does not match dim={dim}")
    if not _symmetric(m):
        raise NonSPDMass("mass matrix must be symmetric")
    if not np.all(np.linalg.eigvalsh(m) > 0.0):
        raise NonSPDMass("mass matrix must be positive definite")
    return m


def _constant_metric_model(m: np.ndarray, label: str, hbar: float,
                           potential=None, vector_potential=None,
                           affine_flow: bool = True) -> LagrangianModel:
    """A model on the constant metric ``m``, flagged ``kinetic_gradients_constant``.

    Every builtin is built here, so the flag is set in one place.
    ``potential`` is the callback triple (V, grad V, Hess V) and
    ``vector_potential`` the pair (a, da); either defaults to zero.  The
    metric, its gradient and the zero defaults are stacked.
    """
    d = m.shape[0]
    zero_vec = _constant(np.zeros(d))
    zero_mat = _constant(np.zeros((d, d)))
    if potential is None:
        potential = (_constant(0.0), zero_vec, zero_mat)
    if vector_potential is None:
        vector_potential = (zero_vec, zero_mat)
    return LagrangianModel(
        dim=d,
        metric=_constant(m),
        metric_grad=_constant(np.zeros((d, d, d))),
        vector_potential=vector_potential[0],
        vector_potential_grad=vector_potential[1],
        potential=potential[0],
        potential_grad=potential[1],
        potential_hess=potential[2],
        hbar=hbar,
        kinetic_gradients_constant=True,
        affine_flow=affine_flow,
        label=label,
    )


def free_particle(mass=1.0, dim: Optional[int] = None, hbar: float = 1.0) -> LagrangianModel:
    """Free motion with constant mass matrix M: L = 1/2 v.M.v."""
    m = mass_matrix(mass, dim)
    return _constant_metric_model(m, f"free_particle(D={m.shape[0]})", hbar)


def harmonic_oscillator(
    mass=1.0,
    omega2=None,
    stiffness=None,
    dim: Optional[int] = None,
    hbar: float = 1.0,
) -> LagrangianModel:
    """Oscillator with V(x, t) = 1/2 x.K(t).x and constant mass matrix.

    Exactly one of ``omega2`` and ``stiffness`` must be given.  A constant
    ``omega2`` is the constant stiffness K = omega2 M, so every constant K
    passes one check: a symmetric (D, D) matrix, which refuses a NaN in K
    (a NaN ``omega2``, or an infinite one where M has a zero entry).

    Parameters
    ----------
    omega2 : float or callable, optional
        Scalar squared frequency, possibly time dependent; K(t) = omega2(t) M.
    stiffness : array or callable, optional
        Full symmetric stiffness matrix K(t) (the product of mass and squared
        frequency for anisotropic systems).
    """
    m = mass_matrix(mass, dim)
    d = m.shape[0]
    if (omega2 is None) == (stiffness is None):
        raise ValueError("give exactly one of omega2 and stiffness")
    if callable(omega2):
        scalar = _at_each_time(omega2)

        def k_of_t(t):
            return scalar(t)[..., None, None] * m
    elif callable(stiffness):
        k_of_t = _at_each_time(stiffness)
    else:
        k_arr = np.asarray(stiffness if omega2 is None else float(omega2) * m,
                           dtype=float)
        if k_arr.shape != (d, d) or not _symmetric(k_arr):
            raise ValueError("the stiffness K must be a symmetric (D, D) matrix")
        k_of_t = lambda t: k_arr
    return _constant_metric_model(
        m, f"harmonic_oscillator(D={d})", hbar,
        potential=_quadratic_potential(k_of_t, d))


def _at_each_time(fn: Callable) -> Callable:
    """A user's ``omega2`` or ``stiffness`` callable as a float array
    function of a scalar t or of an array of times.  A marked ``fn`` takes
    the array itself; any other is called with one scalar t at a time, so
    a model read on a grid of times makes one call of its own callback
    and the loop over the times runs here."""
    if is_stacked(fn):
        return lambda t: np.asarray(fn(t), dtype=float)

    def f(t):
        if np.ndim(t) == 0:
            return np.asarray(fn(t), dtype=float)
        values = np.array([fn(s) for s in np.ravel(t)], dtype=float)
        return values.reshape(np.shape(t) + values.shape[1:])

    return f


def _quadratic_potential(k_of_t, d: int):
    """(V, grad V, Hess V) of V = 1/2 x.K(t).x, stacked.

    ``k_of_t(t)`` is K, (D, D) at a scalar t and (..., D, D) at stacked
    t.  Each callback is one body that broadcasts over the leading axes
    of ``x`` (a point given as a list too), so one point and stacked
    points take the same products.
    """

    @stacked
    def potential(x, t):
        x = np.asarray(x, dtype=float)
        return ((0.5 * x)[..., None, :] @ k_of_t(t) @ x[..., None])[..., 0, 0]

    @stacked
    def grad(x, t):
        x = np.asarray(x, dtype=float)
        return (k_of_t(t) @ x[..., None])[..., 0]

    @stacked
    def hess(x, t):
        return np.broadcast_to(k_of_t(t), np.shape(x)[:-1] + (d, d))

    return potential, grad, hess


def magnetic_field(mass: float = 1.0, omega: float = 1.0, dim: int = 2,
                   hbar: float = 1.0) -> LagrangianModel:
    """Charge in a uniform magnetic field, gauge a = (0, -M w x_1, 0, ...).

    ``omega`` is the cyclotron frequency e B / (c M); the coupling strength
    in the gauge term is M omega.  Motion in the remaining D - 2 directions
    is free.
    """
    if dim < 2:
        raise ValueError("magnetic_field needs dim >= 2")
    m = mass_matrix(float(mass), dim)
    coupling = float(mass) * float(omega)
    da = np.zeros((dim, dim))
    da[1, 0] = -coupling

    @stacked
    def a(x, t):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        out[..., 1] = -coupling * x[..., 0]
        return out

    return _constant_metric_model(m, f"magnetic_field(D={dim})", hbar,
                                  vector_potential=(a, _constant(da)))


def one_dim_potential(
    potential: Callable,
    potential_grad: Callable,
    potential_hess: Callable,
    mass: float = 1.0,
    hbar: float = 1.0,
    label: str = "one_dim_potential",
) -> LagrangianModel:
    """One dimensional particle in an arbitrary potential V(x, t).

    The callables take a scalar position and return V, dV/dx and
    d2V/dx2 (``expressions.compile_potential`` gives all three).  A
    callable marked ``stacked`` (the compiled expressions are) takes an
    array of positions too, and its model callback is then stacked.
    The model is ``affine_flow`` when ``potential`` carries a tree
    (``node``) of degree <= 2 in x; without one, or too deep, it is not.
    """
    node = getattr(potential, "node", None)
    try:
        degree = None if node is None else node.degree()
    except RecursionError:
        degree = None
    return _constant_metric_model(
        mass_matrix(float(mass)), label, hbar,
        potential=(_first_coordinate(potential, 0),
                   _first_coordinate(potential_grad, 1),
                   _first_coordinate(potential_hess, 2)),
        affine_flow=degree is not None and degree <= 2)


def _first_coordinate(f: Callable, ndim: int) -> Callable:
    """The model callback (x, t) -> f(x[0], t) for ``f`` of a scalar
    position: a float (``ndim`` 0) or a float array of ``ndim`` axes of
    length 1 at one point.  Stacked when ``f`` is.  One point keeps its
    own branch: there ``x[..., 0]`` is a 0-d array, which sends a compiled
    expression down its numpy path, about 40 times slower per call than a
    float.  The callback carries the tree of a compiled expression ``f``
    as its own ``node``, and None for any other ``f`` (see the module
    docstring)."""

    def callback(x, t):
        if type(x) is np.ndarray and x.ndim > 1:
            return np.asarray(f(x[..., 0], t), dtype=float).reshape(
                x.shape[:-1] + (1,) * ndim)
        y = f(float(x[0]), t)
        return np.array(y, dtype=float, ndmin=ndim) if ndim else float(y)

    callback.node = getattr(f, "node", None)
    return stacked(callback) if is_stacked(f) else callback


BUILTIN_TAGS = {
    "free_particle": {
        "factory": free_particle,
        "params": {"mass": "scalar or (D, D) matrix", "dim": "int"},
    },
    "harmonic_oscillator": {
        "factory": harmonic_oscillator,
        "params": {
            "mass": "scalar or (D, D) matrix",
            "omega2": "scalar squared frequency, or expression in t",
            "stiffness": "(D, D) symmetric matrix, alternative to omega2",
            "dim": "int",
        },
    },
    "magnetic_field": {
        "factory": magnetic_field,
        "params": {"mass": "scalar", "omega": "cyclotron frequency", "dim": "int >= 2"},
    },
    "one_dim_potential": {
        "factory": one_dim_potential,
        "params": {"potential": "expression in x and t", "mass": "scalar"},
    },
}


def builtin_model(tag: str, **params) -> LagrangianModel:
    """Construct a builtin model by tag name."""
    try:
        entry = BUILTIN_TAGS[tag]
    except KeyError:
        raise ValueError(f"unknown builtin tag {tag!r}") from None
    return entry["factory"](**params)
