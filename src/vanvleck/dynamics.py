"""Classical trajectories of quadratic-in-velocity Lagrangians.

The Euler-Lagrange equations are integrated with a fixed-step classical
Runge-Kutta scheme (RK4) on a deterministic uniform grid, and two-point
boundary problems are solved by Newton shooting on the initial velocity.
The shooting Jacobian comes from the variational (Jacobi) flow propagated
alongside the trajectory with the same RK4 stages, so it is the derivative
of the discrete endpoint map to machine precision and Newton converges
quadratically on each grid.

Linear systems.  ``linear_rk4`` steps Y' = M(t) Y by precomputed step
maps: each block of STEP_MAP_BLOCK steps samples M once at its 2b + 1
stage times and builds its maps in ``_rk4_step_maps``, and ``_compose``
multiplies them as a balanced tree of batched products, in increment
form S - 1: every prefix product when the history is kept, the block's
total otherwise, so there is no Python product per step and rounding
grows like log n, not n.  An affine system carries its forcing in
homogeneous coordinates.

One Euler-Lagrange run (``_rk4_run``) serves every integration: it
carries (x, v) and m >= 0 tangent columns (``integrate_ivp`` is a run
with m = 0, a Newton iterate one with m = 2D).  On a model flagged
``affine_flow`` (a linear builtin, or an expression potential of degree
at most 2 in x) the run is ``linear_rk4`` on [(x, v), tangents], reading
potential_hess and potential_grad at x = 0.  The endpoint map is then
exactly affine, so Newton's first correction is exact and is applied by
superposition of the first run's tangent columns: one run gives the path
and its flow.

Any other model runs in two passes, one block of STEP_MAP_BLOCK steps at
a time, so beside its output a run holds one block.  The path pass steps
(x, v) alone, in one emitted loop per rule over the block's steps, with
the four RK4 stages written out, the state in Python float locals and
the classical RK4 order of operations, so its path is the same bits as a
numpy RK4 stepper's.  One emitter, ``_pass_lines``, writes that loop, its
stage states and its update for both rules; a rule supplies only the
lines of a stage and what a step pushes onto the record.  Every record
starts each step with that step's (x, v), so the run's history is the
first 2D floats of each step's record, whatever the rule.  Each stage
computes only the acceleration, with no numpy.linalg call, by one of two
rules:

- D = 1 on a constant metric, with a potential_grad that carries a
  compiled expression's dV/dx tree as ``node``: (-1/g) V', with -1/g
  from ``models.invert_metric`` once a run.  The loop steps the two
  floats x, v with four renamed copies of the tree's straight-line lines
  inlined (``expressions.straight_line``), so a stage makes no call; it
  is built at the model's first run and kept for its others.  Its record
  holds five floats a step, (x, v, x2, x3, x4): the step's state and the
  positions of its other three stages, and the flow reads the stage
  times off the grid.
- Every other model, a D = 1 potential_grad without a tree (a user's
  callable, a wrapped callback) and a tree too deep to emit included:
  the general rule.  Four callbacks are read once a stage at a (D,)
  ndarray, and the generalized force F and g acc = F are computed by
  one Gaussian elimination with partial pivoting, in straight-line lines
  per dimension (``_stage_lines``) written into the loop at each stage,
  which is emitted and compiled once per process per D.  Its record
  holds one row a stage, (x, v, t, acc) and the metric, metric_grad and
  vector_potential_grad values, and its flow step reads them there, not
  from the callbacks again.  In D = 1 on a constant metric it gives the
  first rule's bits, (-V') (1/g), but for the sign of an exactly zero
  acceleration.

As the path pass finishes each block, one flow step reads the
linearization once from the block's record, as a stack, so it reads
only potential_hess and, on a position-dependent metric, metric_grad and
vector_potential_grad at the 2D shifted points of its central
differences.  It advances the tangent block by the composed step maps of
that linear system, one product a block, keeping only its value at t_b.
``el_linearization`` is the same linearization at any points, reading
the metric callbacks itself.  Every generated source holds names, not
numbers, and is compiled once per text and run by
``expressions.run_generated``.

An unseeded solve seeds each grid from a solve on a grid COARSE_FACTOR
times coarser, which is seeded the same way down to MIN_COARSE_STEPS,
so the Newton iterations from the straight line run on the coarsest
grid and each finer grid takes about two runs.  The first of them takes
a chord step with the next coarser flow's shooting Jacobian, which
differs from this grid's by O(h^4), so it makes no flow pass; the
second is a Newton iterate with this grid's own flow.  The flow
Phi(t_b) of the accepted iterate is kept on the path, so every later
consumer of the Jacobi system reads it instead of integrating it again.
The action is Simpson quadrature on the grid, which matches the
integrator order, computed the first time it is read.
"""

from __future__ import annotations

import array
import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, SingularMetric, SingularShootingJacobian
from .expressions import (POINT_FUNCTIONS, indented, run_generated,
                          straight_line)
from .models import (FD_STEP, SINGULAR_METRIC_RTOL, LagrangianModel, along,
                     evaluate_hamiltonian, invert_metric, legendre_momentum,
                     metric_is_constant)

DEFAULT_N_STEPS = 1000
DEFAULT_TOL = 1e-10
# Newton's tol is floored at TOL_ULPS ulps of the largest endpoint
# coordinate, so a tol below the endpoint's roundoff still converges
TOL_ULPS = 4
DEFAULT_MAX_ITER = 50

# an unseeded solve seeds each grid of at least COARSE_FACTOR *
# MIN_COARSE_STEPS steps from a solve on n_steps // COARSE_FACTOR steps,
# which follows the same rule: 1000 steps solve on 14, 124, then 1000
COARSE_FACTOR = 8
MIN_COARSE_STEPS = 14

# |det M| below this times scale^D marks a boundary Jacobi matrix singular
CAUSTIC_DET_THRESHOLD = 1e-12

# ``linear_rk4`` and the two passes of a nonlinear run step this many
# steps at a time
STEP_MAP_BLOCK = 256


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid samples of one initial value solution."""

    times: np.ndarray       # (n + 1,)
    positions: np.ndarray   # (n + 1, D)
    velocities: np.ndarray  # (n + 1, D)


@dataclass(frozen=True)
class ClassicalPath:
    """A converged boundary value solution plus derived endpoint data.

    Attributes
    ----------
    times, positions, velocities : ndarray
        Trajectory samples on the uniform grid, ``positions[0] == x_a``.
    action : float
        Simpson quadrature of the Lagrangian along the samples, with the
        first order endpoint-miss correction ``- p_b . (x(t_b) - x_b)`` so
        the value stays differentiable in the endpoints to machine
        precision (the raw miss is below ``bvp_residual`` anyway).
        Computed on first read and cached, so a caller that reads only
        the flow or the endpoint data, as the Hessian and fluctuation
        routes do, does not pay for it.
    p_a, p_b : ndarray
        Conjugate momenta at the endpoints.
    energy_a : float
        Hamiltonian at the initial endpoint.
    bvp_residual : float
        Max-norm endpoint miss of the accepted Newton iterate.
    flow : ndarray
        Variational flow Phi(t_b), shape (2D, 2D): the discrete RK4
        derivative of the endpoint state (x(t_b), v(t_b)) with respect to
        the initial state (x_a, v_a), integrated along the accepted
        trajectory.  Its ``[:D, D:]`` block is the shooting Jacobian
        dx_b/dv_a.
    """

    model: LagrangianModel
    x_a: np.ndarray
    x_b: np.ndarray
    t_a: float
    t_b: float
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    p_a: np.ndarray
    p_b: np.ndarray
    energy_a: float
    bvp_residual: float
    flow: np.ndarray

    @functools.cached_property
    def action(self) -> float:
        traj = Trajectory(self.times, self.positions, self.velocities)
        return (simpson_action(self.model, traj)
                - float(self.p_b @ (self.positions[-1] - self.x_b)))

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def duration(self) -> float:
        return self.t_b - self.t_a

    @property
    def v_a(self) -> np.ndarray:
        return self.velocities[0]

    @property
    def v_b(self) -> np.ndarray:
        return self.velocities[-1]


# ---------------------------------------------------------------------------
# Euler-Lagrange right-hand side and its linearization


def _matvec(mat, vec) -> np.ndarray:
    """``mat @ vec`` of matrices (..., N, N) and vectors (..., N), stacked
    on broadcast leading axes."""
    return (mat @ vec[..., None])[..., 0]


def _read(fn, x, t, shape: tuple) -> np.ndarray:
    """Callback ``fn`` at the points x (..., D) and times t (...), read by
    ``models.along`` and shaped (...) + ``shape``."""
    values = along(fn, x.reshape(-1, x.shape[-1]), t.reshape(-1))
    return values.reshape(x.shape[:-1] + shape)


def _kinetic_force(dg, da, v) -> np.ndarray:
    """Generalized force without the -grad V term,

        F_i = 1/2 v.(d_i g).v - (d_k g_ij) v_k v_j + (da^T - da).v,

    from ``dg = metric_grad`` (..., D, D, D), ``da =
    vector_potential_grad`` (..., D, D) and v (..., D), stacked on
    broadcast leading axes.  F is linear in (dg, da), so given their
    x-derivatives on one more axis m, with v broadcast over it, it returns
    ``d_m F`` as row m.
    """
    dgv = _matvec(dg, v[..., None, :])
    return (0.5 * _matvec(dgv, v) - _matvec(dgv.swapaxes(-1, -2), v)
            + _matvec(da.swapaxes(-1, -2) - da, v))


def _kinetic_force_x(model: LagrangianModel, x, v, t) -> np.ndarray:
    """x-Jacobian of ``_kinetic_force`` at fixed v, by central differences.

    Only metric_grad and vector_potential_grad are differenced, at the 2D
    shifted stacks x +- h e_m with h = FD_STEP max(1, |x|_inf) per point;
    the stacked differences d_m dg and d_m da are contracted with v once.
    """
    d = x.shape[-1]
    h = FD_STEP * np.maximum(1.0, np.abs(x).max(axis=-1))
    ddg = np.empty(x.shape[:-1] + (d, d, d, d))
    dda = np.empty(x.shape[:-1] + (d, d, d))
    for m in range(d):
        step = np.zeros_like(x)
        step[..., m] = h
        ddg[..., m, :, :, :] = np.subtract(
            _read(model.metric_grad, x + step, t, (d, d, d)),
            _read(model.metric_grad, x - step, t, (d, d, d)))
        dda[..., m, :, :] = np.subtract(
            _read(model.vector_potential_grad, x + step, t, (d, d)),
            _read(model.vector_potential_grad, x - step, t, (d, d)))
    force_x = _kinetic_force(ddg, dda, v[..., None, :]).swapaxes(-1, -2)
    return force_x / (2.0 * h[..., None, None])


def el_linearization(model: LagrangianModel, x, v, t, acc):
    """Phase-space Jacobian blocks of the acceleration.

    ``x`` and ``v`` are one point (D,) or a stack (..., D), ``t`` a time
    or times of the same leading shape, and ``acc`` the acceleration a run
    has already computed at these points, stacked the same way.  Returns
    ``(jx, jv)``, stacked the same way, with ``jx = d acc / d x`` and
    ``jv = d acc / d v``.  It reads metric_grad, vector_potential_grad
    and metric at the points, each by ``models.along``, one call per
    stack when it is stacked, and hands them to ``_linearization``, which
    the general rule's flow step calls with the values its path pass
    recorded.  So one call reads metric and potential_hess once each,
    metric_grad and vector_potential_grad once, plus 2D times when the
    model is not flagged ``kinetic_gradients_constant``, and
    potential_grad never.  A singular metric at any point raises
    SingularMetric.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:-1])
    d = model.dim
    dg = _read(model.metric_grad, x, t, (d, d, d))
    da = _read(model.vector_potential_grad, x, t, (d, d))
    g = _read(model.metric, x, t, (d, d))
    return _linearization(model, x, v, t, acc, g, dg, da)


def _linearization(model: LagrangianModel, x, v, t, acc, g, dg, da):
    """``el_linearization`` from the metric values g (..., D, D),
    metric_grad dg (..., D, D, D) and vector_potential_grad da (..., D, D)
    at the points x.  The potential contribution to jx is analytic
    (potential_hess), and ``acc`` enters the g^-1 variation term.  The
    x-derivatives of metric_grad and vector_potential_grad vanish for
    models flagged ``kinetic_gradients_constant``; otherwise only those
    two callbacks are central-differenced (``_kinetic_force_x``), at 2D
    shifted stacks.
    """
    d = model.dim
    gi = invert_metric(g, x, t)

    dgv = _matvec(dg, v[..., None, :])
    vdg = _matvec(np.moveaxis(dg, -3, -1), v[..., None, :])
    dfdv = dgv - dgv.swapaxes(-1, -2) - vdg + (da.swapaxes(-1, -2) - da)

    dfdx = -_read(model.potential_hess, x, t, (d, d))
    if not model.kinetic_gradients_constant:
        dfdx = dfdx + _kinetic_force_x(model, x, v, t)
    # variation of g^-1: d acc / d x_m -= g^-1 (d_m g) acc
    dfdx = dfdx - _matvec(dg, acc[..., None, :]).swapaxes(-1, -2)
    return gi @ dfdx, gi @ dfdv


def _names(prefix: str, shape: tuple) -> list:
    """The local names ``prefix_i_j...`` of an array's entries, in C order."""
    return [prefix + "".join(f"_{i}" for i in index)
            for index in np.ndindex(*shape)]


def _target(prefix: str, shape: tuple) -> str:
    """An assignment target that unpacks nested lists of ``shape`` into
    the locals ``prefix_i_j...``."""
    if not shape:
        return prefix
    return "[" + ", ".join(_target(f"{prefix}_{i}", shape[1:])
                           for i in range(shape[0])) + "]"


def _stage_lines(d: int, v: list, acc: list, fail: str) -> list:
    """The general rule at one stage in dimension d, as unindented lines:
    from the stage's velocity, the locals named ``v``, and the values of
    metric, metric_grad, vector_potential_grad and potential_grad, the
    locals g_i_j and its elimination copy e_i_j, dg_k_i_j, da_i_j and
    grad_i, the acceleration into the locals named ``acc``, with the
    statement ``fail`` run where g is singular.

    The lines compute the generalized force

        F_i = sum_m (curl_im + sum_j (1/2 d_i g_mj - d_m g_ij) v_j) v_m
              - d_i V,

    with ``curl = da^T - da``, each sum from 0.0 in index order, and
    solve g acc = F by one Gaussian elimination with partial pivoting
    (the first row of strictly largest |entry| pivots), multiplying by
    the reciprocal pivots, so in D = 1 it is F (1/g).  det g is the
    product of the pivots.  g is singular by ``models``'s rule, and runs
    ``fail`` before the back substitution: a zero pivot, caught at its
    step whatever an overflowing det before it makes of the product, or
    |det g| <= SINGULAR_METRIC_RTOL * prod_i max_j |g_ij|, decided again
    in logarithms where the products say singular, so that a det or a
    bound that overflows or underflows does not decide it.  A NaN entry
    passes quietly.  Every entry is a local name and a row swap rebinds
    names, so the lines have no loop, no subscript and no call but
    ``abs``, ``max`` and, on a product test that fails, ``log``.
    """
    span = range(d)

    def swap(k: int, i: int) -> str:
        upper = [f"e_{k}_{j}" for j in range(k, d)] + [f"r_{k}"]
        lower = [f"e_{i}_{j}" for j in range(k, d)] + [f"r_{i}"]
        return f"{', '.join(upper + lower)} = {', '.join(lower + upper)}"

    lines = []
    for i in span:
        force = "0.0"
        for m in span:
            s = f"(da_{m}_{i} - da_{i}_{m})"
            for j in span:
                s = f"({s} + (0.5 * dg_{i}_{m}_{j} - dg_{m}_{i}_{j}) * {v[j]})"
            force = f"({force} + {s} * {v[m]})"
        lines.append(f"r_{i} = {force} - grad_{i}")
    row_max = [", ".join(f"abs(g_{i}_{j})" for j in span) for i in span]
    if d > 1:
        row_max = [f"max({m})" for m in row_max]
    lines.append("bound = " + " * ".join(["RTOL", *row_max]))
    for k in span:
        below = range(k + 1, d)
        if len(below) == 1:
            lines += [f"if abs(e_{k + 1}_{k}) > abs(e_{k}_{k}):",
                      f"    {swap(k, k + 1)}"]
        elif below:
            lines += [f"p = {k}", f"top = abs(e_{k}_{k})"]
            for i in below:
                lines += [f"new = abs(e_{i}_{k})", "if new > top:",
                          f"    p = {i}", "    top = new"]
            for i in below:
                lines += [f"{'if' if i == k + 1 else 'elif'} p == {i}:",
                          f"    {swap(k, i)}"]
        lines += [f"det = {'det * ' if k else ''}e_{k}_{k}",
                  f"if e_{k}_{k} == 0.0:", f"    {fail}",
                  f"q_{k} = 1.0 / e_{k}_{k}"]
        for i in below:
            lines.append(f"m = e_{i}_{k} * q_{k}")
            lines += [f"e_{i}_{j} = e_{i}_{j} - m * e_{k}_{j}"
                      for j in range(k + 1, d)]
            lines.append(f"r_{i} = r_{i} - m * r_{k}")
    log_det = " + ".join(f"log(abs(e_{k}_{k}))" for k in span)
    log_bound = " + ".join(["LOG_RTOL", *(f"log({m})" for m in row_max)])
    lines += [f"if abs(det) <= bound and {log_det} <= {log_bound}:",
              f"    {fail}"]
    for i in reversed(span):
        s = f"r_{i}"
        for j in range(i + 1, d):
            s = f"({s} - e_{i}_{j} * {acc[j]})"
        lines.append(f"{acc[i]} = {s} * q_{i}")
    return lines


_RULE_SCOPE = {"abs": abs, "max": max, "log": math.log,
               "RTOL": SINGULAR_METRIC_RTOL,
               "LOG_RTOL": math.log(SINGULAR_METRIC_RTOL)}


def _singular(x, t) -> SingularMetric:
    """The error of a metric singular at the point x and time t."""
    return SingularMetric(f"metric singular at x={x}, t={t}")


# The four RK4 stages of a step from t: each stage's time, and the factor
# of h that takes the state to it from the stage before (none for the
# first).  The state of stage s is y + factor * k_(s-1), k = (v, acc).
_STAGES = (("t", None), ("tm", "half"), ("tm", "half"), ("te", "h"))


def _pass_lines(d: int, params: str, stage, push, timed: bool) -> list:
    """The lines of ``path_pass(<params>, y, starts)``, the path pass in
    dimension d of either rule.

    It steps ``y``, 2D floats (x, v), by one RK4 step of size ``h`` (in
    ``params``) from each start time in ``starts``, every value in a
    local: the stage states y + (h/2) k and y + h k and the update
    y + (h/6) (k1 + 2 k2 + 2 k3 + k4), in that order of operations, so the
    path is the same bits as a numpy RK4 stepper's.  ``stage(s, t, x, v,
    acc)`` gives the lines of stage s, at the time named ``t``, that
    compute the locals named ``acc`` from the stage state's locals named
    ``x`` and ``v``, and ``push(xs, vs)`` the lines that end a step, from
    the names of all four stages' states.  The stage times tm and te are
    computed only when ``timed``.  Returns the float64 record that the
    pass's ``push`` fills, and the last state.
    """
    x0, v0 = _names("x", (d,)), _names("v", (d,))
    body = ["tm = t + half", "te = t + h"] if timed else []
    xs, vs, accs = [x0], [v0], []
    for s, (t, factor) in enumerate(_STAGES, 1):
        if factor:
            xs.append(_names(f"x{s}", (d,)))
            vs.append(_names(f"v{s}", (d,)))
            body += [f"{y} = {y0} + {factor} * {k}" for y, y0, k in zip(
                xs[-1] + vs[-1], x0 + v0, vs[-2] + accs[-1])]
        accs.append(_names(f"a{s}", (d,)))
        body += stage(s, t, xs[-1], vs[-1], accs[-1])
    body += push(xs, vs)
    body += [f"{y} = {y} + sixth * ({k[0]} + 2.0 * {k[1]} + 2.0 * {k[2]}"
             f" + {k[3]})"
             for y, k in zip(x0 + v0, [*zip(*vs), *zip(*accs)])]
    state = ", ".join(x0 + v0)
    return [f"def path_pass({params}, y, starts):",
            f"    {state} = y",
            "    half, sixth = 0.5 * h, h / 6.0",
            "    record = doubles('d')",
            "    push = record.fromlist",
            "    for t in starts:",
            *indented(body, 2),
            f"    return record, [{state}]"]


@functools.cache
def _general_pass(d: int):
    """The general rule's path pass in dimension d, emitted by
    ``_pass_lines`` and compiled once per process per d:
    ``path_pass(h, metric, metric_grad, vector_potential_grad,
    potential_grad, y, starts)``.

    Each stage reads the four callbacks once each, in that order, at its
    x as a (D,) ndarray, takes each value into Python floats once, runs
    the lines of ``_stage_lines`` and pushes its row of the record of
    ``_general_rule``; a singular g raises SingularMetric.
    """
    def stage(s, t, x, v, acc):
        row = [*x, *v, t, *acc, *_names("g", (d, d)),
               *_names("dg", (d, d, d)), *_names("da", (d, d))]
        g, dg, da, grad = (
            f"asarray({callback}(point, {t}), float).tolist()"
            for callback in ("metric", "metric_grad",
                             "vector_potential_grad", "potential_grad"))
        return [f"point = array(({', '.join(x)},))",
                f"{_target('g', (d, d))} = {_target('e', (d, d))} = {g}",
                f"{_target('dg', (d, d, d))} = {dg}",
                f"{_target('da', (d, d))} = {da}",
                f"{_target('grad', (d,))} = {grad}",
                *_stage_lines(d, v, acc, f"raise singular(point, {t})"),
                f"push([{', '.join(row)}])"]

    lines = _pass_lines(d, "h, metric, metric_grad, vector_potential_grad,"
                        " potential_grad", stage, lambda xs, vs: [], True)
    scope = {**_RULE_SCOPE, "array": np.array, "asarray": np.asarray,
             "float": float, "doubles": array.array, "singular": _singular}
    return run_generated(lines, f"<path pass, D = {d}>", scope)["path_pass"]


def _general_rule(model: LagrangianModel, h: float):
    """``(path_pass, jacobians)`` of one run on any model.

    ``path_pass(y, starts)`` is ``_general_pass`` with the step h and the
    model's four callbacks.  Its record holds one row a stage, four a
    step, each the locals (x, v, t, acc, g, dg, da), each array in C
    order, so a step's first row starts with its (x, v).  ``jacobians(rows, starts)`` is ``_linearization``
    on the block's 4b stage rows, with the recorded x, v, t and acc and
    g, dg and da as views of them, so it reads only potential_hess and
    the 2D shifted stacks of ``_kinetic_force_x``, and inverts the
    recorded g.
    """
    d = model.dim
    path_pass = functools.partial(
        _general_pass(d), h, model.metric, model.metric_grad,
        model.vector_potential_grad, model.potential_grad)
    at_dg = 3 * d + 1 + d * d
    at_da = at_dg + d ** 3

    def jacobians(rows, starts):
        stages = rows.reshape(4 * len(rows), -1)
        return _linearization(
            model, stages[:, :d], stages[:, d:2 * d], stages[:, 2 * d],
            stages[:, 2 * d + 1:3 * d + 1],
            stages[:, 3 * d + 1:at_dg].reshape(-1, d, d),
            stages[:, at_dg:at_da].reshape(-1, d, d, d),
            stages[:, at_da:].reshape(-1, d, d))

    return path_pass, jacobians


def _emit_one_dim_pass(node):
    """The D = 1 path pass for the dV/dx tree ``node``, emitted by
    ``_pass_lines``: ``path_pass(h, neg_recip, y, starts)``.

    The acceleration at each stage is ``neg_recip * dV/dx``, from four
    renamed copies of ``expressions.straight_line``'s lines of ``node``,
    its constants bound in the pass's globals.  Each step pushes the
    record of ``_one_dim_rule``.
    """
    constants = {}

    def stage(s, t, x, v, acc):
        dv, result, named = straight_line(node, x[0], t, f"d{s}_")
        constants.update(named)
        return [*dv, f"{acc[0]} = neg_recip * {result}"]

    def push(xs, vs):
        return [f"push([{', '.join(xs[0] + vs[0] + [x for x, in xs[1:]])}])"]

    lines = _pass_lines(1, "h, neg_recip", stage, push, node.uses("t"))
    scope = {**POINT_FUNCTIONS, **constants, "doubles": array.array}
    return run_generated(lines, "<path pass, D = 1>", scope)["path_pass"]


# the emitted D = 1 path pass, or None, of each potential_grad that lives
_ONE_DIM_PASSES = weakref.WeakKeyDictionary()


def _one_dim_pass(grad):
    """The emitted D = 1 path pass of the potential_grad ``grad``, or
    None.

    A compiled expression's dV/dx, a ``grad`` that carries its tree as
    ``node``, is inlined: its pass is emitted at its model's first run
    and kept, for as long as ``grad`` lives, for every later run.  Any
    other ``grad``, and a tree too deep to emit this far down the stack,
    which its parse accepted, gives None.
    """
    node = getattr(grad, "node", None)
    if node is None:
        return None
    if grad not in _ONE_DIM_PASSES:
        try:
            _ONE_DIM_PASSES[grad] = _emit_one_dim_pass(node)
        except RecursionError:
            _ONE_DIM_PASSES[grad] = None
    return _ONE_DIM_PASSES[grad]


def _one_dim_rule(model: LagrangianModel, x, t, h: float):
    """``(path_pass, jacobians)`` of one run in D = 1 where
    ``_one_dim_pass`` emits a pass for potential_grad and the metric is
    constant (``metric_is_constant`` at (x, t)), or None.

    The acceleration is the float product ``neg_recip * dV/dx``, with
    ``neg_recip`` = -1/g from ``models.invert_metric`` once per run, so
    the general rule's bits (-V') (1/g) but for the sign of an exactly
    zero acceleration.  ``path_pass`` is the emitted pass, whose record
    holds five floats a step, (x, v, x2, x3, x4): the step's (x, v) and
    its other stages' positions.  ``jacobians(rows, starts)`` is
    (-1/g) V'' and 0, with V'' one stacked potential_hess read at the
    stage positions ``rows[:, (0, 2, 3, 4)]`` and the stage times t,
    t + h/2, t + h/2 and t + h of the block's start times ``starts``, the
    path pass's own operations on them.
    """
    loop = _one_dim_pass(model.potential_grad) if model.dim == 1 else None
    if loop is None or not metric_is_constant(model, x, t):
        return None
    neg_recip = -float(invert_metric(model.metric(x, t), x, t)[0, 0])
    half = 0.5 * h

    def jacobians(rows, starts):
        tm = starts + half
        times = np.stack((starts, tm, tm, starts + h), axis=-1)
        jx = neg_recip * _read(model.potential_hess,
                               rows[:, (0, 2, 3, 4)].reshape(-1, 1),
                               times.reshape(-1), (1, 1))
        return jx, np.zeros_like(jx)

    return functools.partial(loop, h, neg_recip), jacobians


# ---------------------------------------------------------------------------
# fixed-step RK4: step maps of a linear system, and one Euler-Lagrange run


def _step_size(times) -> float:
    """Step of the uniform grid ``times``, which needs at least 8 steps."""
    if len(times) < 9:
        raise ValueError("n_steps must be at least 8")
    return (times[-1] - times[0]) / (len(times) - 1)


def _rk4_step_maps(m1, m2, m3, m4, h: float) -> np.ndarray:
    """RK4 step maps of the linear system y' = M(t) y.

    ``m1`` to ``m4``, each of shape (b, N, N), sample M at the four RK4
    stages of b consecutive steps (at t, t + h/2, t + h/2 and t + h; a
    system whose M depends on the state as well is sampled at the stage
    states of its path).  The classical RK4 step of this system is the
    linear map y -> S y with

        K1 = M1, K2 = M2 (1 + h/2 K1), K3 = M3 (1 + h/2 K2),
        K4 = M4 (1 + h K3), S = 1 + h/6 (K1 + 2 K2 + 2 K3 + K4).

    Returns the increments ``S - 1``, shape (b, N, N), which ``_compose``
    multiplies: S itself would round away the low bits of the increment
    at every step, an error that grows like n eps.
    """
    eye = np.eye(m1.shape[-1])
    k2 = m2 @ (eye + 0.5 * h * m1)
    k3 = m3 @ (eye + 0.5 * h * k2)
    k4 = m4 @ (eye + h * k3)
    return (h / 6.0) * (m1 + 2.0 * k2 + 2.0 * k3 + k4)


def _compose(q: np.ndarray, prefix: bool = False) -> np.ndarray:
    """Products of the maps 1 + q_k, in increment form.

    ``q`` holds the increments q_k = S_k - 1 of b consecutive maps, shape
    (b, N, N), q_0 applied first.  Two increments compose as

        (1 + q_later) (1 + q_earlier) = 1 + q_later + q_earlier
                                          + q_later q_earlier,

    which never rounds a small increment against 1.  The product is
    associative, so the chain is multiplied as a balanced tree: rounding
    grows like log b, not b, and each level is one batched matmul.  With
    ``prefix`` returns every Q_k, 1 + Q_k = (1 + q_k) ... (1 + q_0),
    shape (b, N, N), by doubling the reach of each Q_k, ceil(log2 b)
    levels; otherwise only the total Q_{b-1}, shape (N, N), by pairing
    neighbours, an odd last one carried up a level.  ``q`` is not
    changed.
    """
    if prefix:
        q = q.copy()
        s = 1
        while s < len(q):
            later, earlier = q[s:], q[:-s]
            q[s:] = later + earlier + later @ earlier
            s *= 2
        return q
    while len(q) > 1:
        later, earlier = q[1::2], q[:-1:2]
        pairs = later + earlier + later @ earlier
        q = pairs if len(q) % 2 == 0 else np.concatenate((pairs, q[-1:]))
    return q[0]


def linear_rk4(sample, y0, times, history: bool = True) -> np.ndarray:
    """Classical RK4 of Y' = M(t) Y by precomputed step maps.

    ``sample(ts)`` returns M at an array of stage times, shape
    (len(ts), N, N).  An affine system Y' = M Y + c is stepped in
    homogeneous coordinates: c is the last column of M, and the last row
    of the state is constant.  Each block of STEP_MAP_BLOCK steps samples
    M once at its own 2b + 1 stage times (grid points and midpoints; a
    block boundary is read by both blocks) and builds the maps of
    ``_rk4_step_maps``, with the midpoint sample as both middle stages,
    so the memory beside the result does not grow with n.  ``_compose``
    multiplies the block's maps as a tree: with the history, the state
    after its step j is y + Q_j y from every prefix increment Q_j, one
    batched product; without it, y + Q y from the block's total Q.
    Returns the state at every grid time, shape ``(n + 1,) + y0.shape``,
    or with ``history=False`` only the last one.
    """
    h = _step_size(times)
    n = len(times) - 1
    y = np.asarray(y0, dtype=float)
    ys = None
    if history:
        ys = np.empty((n + 1,) + y.shape)
        ys[0] = y
    for k in range(0, n, STEP_MAP_BLOCK):
        b = min(STEP_MAP_BLOCK, n - k)
        ts = np.empty(2 * b + 1)
        ts[0::2] = times[k:k + b + 1]
        ts[1::2] = times[k:k + b] + 0.5 * h
        gen = sample(ts)
        maps = _rk4_step_maps(gen[:-2:2], gen[1::2], gen[1::2], gen[2::2], h)
        if history:
            ys[k + 1:k + b + 1] = y + _compose(maps, prefix=True) @ y
            y = ys[k + b]
        else:
            y = y + _compose(maps) @ y
    return ys if history else y


def _affine_sampler(model: LagrangianModel, x, t):
    """``linear_rk4``'s sampler of the EL system of an ``affine_flow`` model.

    The metric is constant and the vector potential linear, so g^-1 and
    jv = g^-1 (da^T - da) are computed once, at (x, t).  The potential is
    quadratic in x, so acc = acc0(t) + jx(t) x + jv v with
    jx = -g^-1 Hess V(0, t) and acc0 = -g^-1 grad V(0, t): potential_hess
    and potential_grad at x = 0 and every stage time of a block, one call
    each when they are stacked (``models.along``).  The state is
    (x, v, 1) in homogeneous coordinates, so M = [[0, 1, 0],
    [jx, jv, acc0], [0, 0, 0]], of side 2D + 1.
    """
    d = model.dim
    gi = invert_metric(model.metric(x, t), x, t)
    da = np.asarray(model.vector_potential_grad(x, t))
    jv = gi @ (da.T - da)

    def sample(ts):
        origin = np.zeros((len(ts), d))
        hess = along(model.potential_hess, origin, ts).reshape(len(ts), d, d)
        grad = along(model.potential_grad, origin, ts).reshape(len(ts), d)
        gen = np.zeros((len(ts), 2 * d + 1, 2 * d + 1))
        gen[:, :d, d:2 * d] = np.eye(d)
        gen[:, d:2 * d, :d] = gi @ -hess
        gen[:, d:2 * d, d:2 * d] = jv
        gen[:, d:2 * d, -1] = -grad @ gi.T
        return gen

    return sample


def _rk4_run(model: LagrangianModel, x0, v0, t_a: float, t_b: float,
             n_steps: int, flow: bool):
    """Integrate the EL system from (x0, v0), with its flow when ``flow``.

    The tangent block vblock, (2D, m), starts as the identity, m = 2D,
    with ``flow`` and as an empty block, m = 0, without; its columns are
    propagated through the linearized flow evaluated at the RK4 stage
    points of the base trajectory.  Returns ``(times, states, tangents)``:
    the grid, the (n_steps + 1, 2D) history of (x, v) and the tangent
    block at the grid times the run keeps, of which ``tangents[-1]`` is
    vblock(t_b), the flow Phi(t_b) or an empty block.

    On an ``affine_flow`` model the system is linear and ``linear_rk4``
    steps the (2D, 1 + m) state [(x, v), vblock] by precomputed maps, with
    one more row (1, 0, ..., 0) that carries the forcing; ``tangents`` is
    then the block at every grid time, shape (n_steps + 1, 2D, m), which
    Newton's superposition reads.  Every other model runs in two passes,
    one block of STEP_MAP_BLOCK steps at a time (see the module
    docstring): the rule, ``_one_dim_rule`` where it is not None and
    ``_general_rule`` otherwise, gives the pair (path pass, Jacobian
    read), in one place.  The path pass starts from the list
    ``x.tolist() + v.tolist()`` with a float h; its record, a flat
    float64 array, is one row a step that starts with the step's (x, v),
    so ``rows[:, :2D]`` fills the block's rows of the history.  A flow
    step (``_flow_step``) then advances vblock by the RK4 steps of the
    linearized system on those same stages, read from the record as a
    stack, and ``tangents`` is vblock(t_b) alone, shape (1, 2D, m).  A
    run with m = 0 takes no flow step.  From the first block whose path
    ends non-finite on, a run takes no flow step, and its tangent block
    is NaN.
    """
    d = model.dim
    x = np.asarray(x0, dtype=float)
    v = np.asarray(v0, dtype=float)
    if x.shape != (d,) or v.shape != (d,):
        raise ValueError(f"state shapes {x.shape}, {v.shape} do not match dim={d}")
    vblock = np.eye(2 * d, 2 * d if flow else 0)
    times = np.linspace(t_a, t_b, n_steps + 1)
    if model.affine_flow:
        y0 = np.hstack((np.concatenate((x, v))[:, None], vblock))
        y0 = np.vstack((y0, np.eye(1, y0.shape[1])))
        ys = linear_rk4(_affine_sampler(model, x, t_a), y0, times)[:, :-1]
        return times, ys[:, :, 0], ys[:, :, 1:]
    h = float(_step_size(times))
    path_pass, jacobians = (_one_dim_rule(model, x, t_a, h)
                            or _general_rule(model, h))
    y = x.tolist() + v.tolist()
    starts = times[:-1]
    states = np.empty((n_steps + 1, 2 * d))
    for k in range(0, n_steps, STEP_MAP_BLOCK):
        block = starts[k:k + STEP_MAP_BLOCK]
        record, y = path_pass(y, block.tolist())
        rows = np.frombuffer(record).reshape(len(block), -1)
        states[k:k + len(block)] = rows[:, :2 * d]
        if flow and not all(map(math.isfinite, y)):
            flow, vblock = False, np.full(vblock.shape, np.nan)
        elif flow:
            vblock = _flow_step(*jacobians(rows, block), vblock, h)
    states[-1] = y
    return times, states, vblock[None]


def _flow_step(jx, jv, vblock, h: float) -> np.ndarray:
    """vblock advanced over one block of a path pass, from the Jacobian
    blocks (jx, jv) of its RK4 stages, four a step, stacked (4b, D, D).
    One ``_rk4_step_maps`` call on M = [[0, 1], [jx, jv]] and one
    ``_compose`` of its maps give vblock + Q vblock."""
    d = len(vblock) // 2
    gen = np.zeros((len(jx), 2 * d, 2 * d))
    gen[:, :d, d:] = np.eye(d)
    gen[:, d:, :d] = jx
    gen[:, d:, d:] = jv
    per_stage = gen.reshape(-1, 4, 2 * d, 2 * d).swapaxes(0, 1)
    return vblock + _compose(_rk4_step_maps(*per_stage, h)) @ vblock


def _trajectory(times: np.ndarray, states: np.ndarray) -> Trajectory:
    """Split an (n + 1, 2D) history of (x, v) into a Trajectory."""
    d = states.shape[1] // 2
    return Trajectory(times, np.ascontiguousarray(states[:, :d]),
                      np.ascontiguousarray(states[:, d:]))


def integrate_ivp(model: LagrangianModel, x0, v0, t_a: float, t_b: float,
                  n_steps: int = DEFAULT_N_STEPS) -> Trajectory:
    """Integrate the Euler-Lagrange equations from (x0, v0).

    One ``_rk4_run`` without the flow.

    Parameters
    ----------
    n_steps : int
        Number of uniform RK4 steps, at least 8.

    Returns
    -------
    Trajectory
        Samples at the n_steps + 1 grid times.
    """
    times, states, _ = _rk4_run(model, x0, v0, t_a, t_b, n_steps, False)
    return _trajectory(times, states)


# ---------------------------------------------------------------------------
# quadrature and the singular-Jacobian test


def simpson(samples, h: float) -> float:
    """Composite Simpson rule over uniform samples with spacing h.

    The number of intervals, ``len(samples) - 1``, must be even.
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples) - 1
    if n % 2 != 0:
        raise ValueError("Simpson quadrature needs an even number of steps")
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * weights @ samples)


def simpson_action(model: LagrangianModel, traj: Trajectory) -> float:
    """Simpson's rule over the Lagrangian samples; grid count must be even.

    The callbacks are read along the whole grid by ``models.along``.
    """
    n = len(traj.times) - 1
    x, v, t = traj.positions, traj.velocities, traj.times
    g = along(model.metric, x, t)
    lag = (np.sum(((0.5 * v)[:, None, :] @ g)[:, 0] * v, axis=1)
           + np.sum(v * along(model.vector_potential, x, t), axis=1)
           - along(model.potential, x, t))
    return simpson(lag, (t[-1] - t[0]) / n)


def require_nonsingular(mat: np.ndarray, duration: float, error: type,
                        what: str) -> None:
    """Raise ``error`` when the (D, D) Jacobi matrix ``mat`` is singular.

    The test is |det mat| < CAUSTIC_DET_THRESHOLD * scale^D with
    scale = max(T, |mat|_F / sqrt(D)).  The free flow gives mat = T 1, so
    the duration T floors the scale: a pure Frobenius scale would
    self-normalize a nearly singular 1x1 matrix, and the floor keeps the
    test meaningful when the matrix collapses at a caustic.
    """
    d = mat.shape[0]
    det = float(np.linalg.det(mat))
    scale = max(duration, float(np.linalg.norm(mat)) / np.sqrt(d))
    if abs(det) < CAUSTIC_DET_THRESHOLD * scale**d:
        raise error(f"{what} singular (det={det:.3e}) over an interval of "
                    f"length {duration}")


# ---------------------------------------------------------------------------
# boundary value problem


def _newton(model: LagrangianModel, x_a, x_b, t_a: float, t_b: float, v0,
            n_steps: int, tol: float, max_iter: int,
            must_step: np.ndarray | None = None):
    """Newton shooting on one grid of ``n_steps`` RK4 steps from ``v0``.

    Returns ``(traj, flow, res)`` of the accepted iterate.  ``must_step``
    is None or the (2D, 2D) flow of a coarser solve that ended at ``v0``.
    When it is given, the first iterate is never accepted, whatever its
    endpoint miss, so it runs with no tangent columns and takes a chord
    step with that flow's Pxv block; Newton then runs on this grid as
    without it, so the accepted iterate's flow is this grid's own.  On a
    model flagged ``affine_flow`` the first correction dv = -Pxv^-1 miss
    is exact: the path from v0 + dv is the run's base column plus its
    velocity tangent columns times dv, and the flow is the run's, since
    it does not depend on the trajectory, so no second run is made.
    """
    d = model.dim
    tol = max(tol, TOL_ULPS * math.ulp(np.max(np.abs([x_a, x_b]))))
    best_res = np.inf
    chord = must_step
    for iteration in range(1, max_iter + 1):
        times, states, tangents = _rk4_run(model, x_a, v0, t_a, t_b, n_steps,
                                           chord is None)
        miss = states[-1, :d] - x_b
        res = float(np.max(np.abs(miss)))
        if not np.isfinite(res):
            raise NoConvergence(iteration, best_res)
        best_res = min(best_res, res)
        flow = tangents[-1] if chord is None else chord
        if res <= tol and chord is None:
            return _trajectory(times, states), flow.copy(), res
        jac = flow[:d, d:]
        require_nonsingular(jac, t_b - t_a, SingularShootingJacobian,
                            "shooting Jacobian dx(t_b)/dv0")
        dv = -np.linalg.solve(jac, miss)
        if model.affine_flow:
            states = states + tangents[:, :, d:] @ dv
            return (_trajectory(times, states), flow.copy(),
                    float(np.max(np.abs(states[-1, :d] - x_b))))
        v0 = v0 + dv
        chord = None
    raise NoConvergence(max_iter, best_res)


def _cascade(model: LagrangianModel, x_a, x_b, t_a: float, t_b: float, v0,
             n_steps: int, tol: float, max_iter: int, coarse: bool):
    """``_newton`` on ``n_steps`` steps from ``v0``, first seeded, when
    ``coarse`` and the grid has at least ``COARSE_FACTOR * MIN_COARSE_STEPS``
    steps, by this same solve on ``n_steps // COARSE_FACTOR`` steps (rounded
    down to even).  Returns ``(traj, flow, res)``."""
    chord = None
    if coarse and n_steps >= COARSE_FACTOR * MIN_COARSE_STEPS:
        try:
            seed, seed_flow, _ = _cascade(model, x_a, x_b, t_a, t_b, v0,
                                          n_steps // COARSE_FACTOR // 2 * 2,
                                          tol, max_iter, True)
        except (NoConvergence, SingularShootingJacobian, SingularMetric):
            pass
        else:
            if not np.array_equal(seed.velocities[0], v0):
                chord = seed_flow
            v0 = seed.velocities[0]
    return _newton(model, x_a, x_b, t_a, t_b, v0, n_steps, tol, max_iter,
                   must_step=chord)


def solve_bvp(model: LagrangianModel, x_a, x_b, t_a: float, t_b: float,
              v0_guess=None, n_steps: int = DEFAULT_N_STEPS,
              tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
              ) -> ClassicalPath:
    """Newton shooting for the two-point boundary problem.

    On a model flagged ``affine_flow`` the solve is one variational run
    from the seed: a miss within ``tol`` is accepted as it stands,
    otherwise ``_newton`` applies its exact first correction by
    superposition and returns, and no coarse grid runs.

    On any other model, without a ``v0_guess``, each grid of at least
    ``COARSE_FACTOR * MIN_COARSE_STEPS`` steps is seeded by the same solve
    on ``n_steps // COARSE_FACTOR`` steps (rounded down to even), so the
    default 1000 steps solve on 14, then 124, then 1000 steps, and only
    the coarsest grid starts from the straight-line velocity.  A coarser
    answer that moved the seed is handed to ``_newton`` as ``must_step``
    with its flow: the finer grid's first run carries no tangent columns
    and takes a chord step with the coarser Pxv, and Newton then runs on
    the finer grid, so each grid's accepted iterate is a Newton iterate
    of its own endpoint map with its own flow.  When a coarser grid keeps
    the seed, or raises NoConvergence, SingularShootingJacobian or
    SingularMetric, the next finer grid starts from the straight-line
    velocity exactly as without a coarser grid.

    Parameters
    ----------
    v0_guess : array, optional
        Initial velocity seed; defaults to the straight-line velocity
        (x_b - x_a) / (t_b - t_a).  A given seed skips the coarser grids.
    n_steps : int
        Even number of RK4 steps (Simpson action quadrature).
    tol : float
        Max-norm endpoint tolerance, on each grid; see ``TOL_ULPS``.
    max_iter : int
        Newton iteration budget of each grid; an ``affine_flow`` model
        uses one iteration of it.

    Raises
    ------
    NoConvergence
        Iteration budget exhausted, or an endpoint miss that is not finite
        (raised at once, since Newton cannot recover from it); carries the
        best residual seen.
    SingularShootingJacobian
        dx(t_b)/dv0 singular at an iterate (conjugate endpoints).
    """
    if not t_b > t_a:
        raise ValueError("t_b must be larger than t_a")
    if n_steps % 2 != 0:
        raise ValueError("n_steps must be even")
    d = model.dim
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    if x_a.shape != (d,) or x_b.shape != (d,):
        raise ValueError(f"endpoint shapes do not match dim={d}")

    v0 = (np.asarray(v0_guess, dtype=float).copy() if v0_guess is not None
          else (x_b - x_a) / (t_b - t_a))
    traj, flow, res = _cascade(model, x_a, x_b, t_a, t_b, v0, n_steps, tol,
                               max_iter, v0_guess is None
                               and not model.affine_flow)

    p_a = legendre_momentum(model, traj.positions[0], traj.velocities[0], t_a)
    p_b = legendre_momentum(model, traj.positions[-1], traj.velocities[-1], t_b)
    energy_a = evaluate_hamiltonian(model, traj.positions[0], p_a, t_a)
    return ClassicalPath(
        model=model, x_a=x_a, x_b=x_b, t_a=float(t_a), t_b=float(t_b),
        times=traj.times, positions=traj.positions, velocities=traj.velocities,
        p_a=p_a, p_b=p_b, energy_a=energy_a, bvp_residual=res,
        flow=flow,
    )


# ---------------------------------------------------------------------------
# lookups along a stored path


def _bracket(times: np.ndarray, t):
    """Index k of the grid step [times[k], times[k + 1]] holding each t."""
    if (np.any(np.less(t, times[0] - 1e-12))
            or np.any(np.greater(t, times[-1] + 1e-12))):
        raise ValueError(f"t={t} outside path interval [{times[0]}, {times[-1]}]")
    k = np.searchsorted(times, t, side="right") - 1
    return np.clip(k, 0, len(times) - 2)


def state_at(path, t):
    """Cubic Hermite interpolation of (x, v) between grid samples.

    ``t`` is one time, giving (D,) arrays, or a 1-D array of times, giving
    (len(t), D) arrays.
    """
    times = path.times
    k = _bracket(times, t)
    # one row of weights per time, broadcast against the (D,) samples
    h = (times[k + 1] - times[k])[..., None]
    s = (t - times[k])[..., None] / h
    x0, x1 = path.positions[k], path.positions[k + 1]
    v0, v1 = path.velocities[k], path.velocities[k + 1]
    h00 = 2 * s**3 - 3 * s**2 + 1
    h10 = s**3 - 2 * s**2 + s
    h01 = -2 * s**3 + 3 * s**2
    h11 = s**3 - s**2
    x = h00 * x0 + h10 * h * v0 + h01 * x1 + h11 * h * v1
    v = ((6 * s**2 - 6 * s) * (x0 - x1) / h
         + (3 * s**2 - 4 * s + 1) * v0 + (3 * s**2 - 2 * s) * v1)
    return x, v
