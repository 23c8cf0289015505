from __future__ import annotations

import array
import functools
import math

import numpy as np
import pytest

from vanvleck import (ActionHessian, LagrangianModel, dynamics,
                      free_particle, harmonic_oscillator, magnetic_field,
                      one_dim_potential, solve_bvp)
from vanvleck.cli import build_model
from vanvleck.dynamics import el_linearization
from vanvleck.errors import SingularMetric
from vanvleck.hessian import flow_seed
from vanvleck.models import (SINGULAR_METRIC_RTOL, central_hessian,
                             metric_is_constant)


def make_quartic(mass: float = 1.0, hbar: float = 1.0):
    """Anharmonic 1D benchmark V(x) = x^4 / 4 with analytic derivatives."""
    return one_dim_potential(
        potential=lambda x, t: 0.25 * x ** 4,
        potential_grad=lambda x, t: x ** 3,
        potential_hess=lambda x, t: 3.0 * x * x,
        mass=mass,
        hbar=hbar,
        label="quartic",
    )


def make_polar_free_particle(mass: float = 1.0, hbar: float = 1.0):
    """Free particle in plane polar coordinates q = (r, phi).

    g = diag(m, m r^2) depends on position, so this model runs the
    ``kinetic_gradients_constant=False`` branch of the linearization.
    ``demos/polar_free_particle.py`` builds the same model.
    """
    zero2 = np.zeros(2)
    zero22 = np.zeros((2, 2))

    def metric_grad(q, t):
        dg = np.zeros((2, 2, 2))
        dg[0, 1, 1] = 2.0 * mass * q[0]
        return dg

    return LagrangianModel(
        dim=2,
        metric=lambda q, t: np.diag([mass, mass * q[0] ** 2]),
        metric_grad=metric_grad,
        vector_potential=lambda q, t: zero2,
        vector_potential_grad=lambda q, t: zero22,
        potential=lambda q, t: 0.0,
        potential_grad=lambda q, t: zero2,
        potential_hess=lambda q, t: zero22,
        hbar=hbar,
        label="polar_free_particle",
    )


def make_curled_metric(mass: float = 1.0, b: float = 0.7, c: float = 0.3):
    """Position-dependent metric with a nonlinear, curl-carrying a.

    g = diag(m, m (1 + x0^2)) and a = (0, b x0 + c x0^3): the field
    da_1/dx_0 = b + 3 c x0^2 varies along x0, so the linearization needs
    second derivatives of both g and a.
    """
    zero2 = np.zeros(2)
    zero22 = np.zeros((2, 2))

    def metric_grad(x, t):
        dg = np.zeros((2, 2, 2))
        dg[0, 1, 1] = 2.0 * mass * x[0]
        return dg

    def vector_potential_grad(x, t):
        da = np.zeros((2, 2))
        da[1, 0] = b + 3.0 * c * x[0] ** 2
        return da

    return LagrangianModel(
        dim=2,
        metric=lambda x, t: np.diag([mass, mass * (1.0 + x[0] ** 2)]),
        metric_grad=metric_grad,
        vector_potential=lambda x, t: np.array([0.0, b * x[0] + c * x[0] ** 3]),
        vector_potential_grad=vector_potential_grad,
        potential=lambda x, t: 0.0,
        potential_grad=lambda x, t: zero2,
        potential_hess=lambda x, t: zero22,
        label="curled_metric",
    )


def make_skewed_metric(mass: float = 1.0):
    """D = 3 position-dependent, non-diagonal metric with a curl.

    g = m [[1 + x0^2/10, 3/2 + x1/5, 1/5], [3/2 + x1/5, 4 + 3 x2^2/10,
    3 x0/10], [1/5, 3 x0/10, 2 + x1^2/10]] is positive definite near the
    origin, and its largest first-column entry is off the diagonal, so
    elimination with partial pivoting swaps rows.  a = (2 x1 x2/5,
    -3 x0/10 + x2^2/10, x0 x1/5) carries a position-dependent field, and
    V = (x0^2 + 2 x1^2 + x2^2/2)/2 + x0 x1 x2/10.
    """

    def metric(x, t):
        return mass * np.array([
            [1.0 + 0.1 * x[0] ** 2, 1.5 + 0.2 * x[1], 0.2],
            [1.5 + 0.2 * x[1], 4.0 + 0.3 * x[2] ** 2, 0.3 * x[0]],
            [0.2, 0.3 * x[0], 2.0 + 0.1 * x[1] ** 2]])

    def metric_grad(x, t):
        dg = np.zeros((3, 3, 3))
        dg[0, 0, 0] = 0.2 * x[0]
        dg[0, 1, 2] = dg[0, 2, 1] = 0.3
        dg[1, 0, 1] = dg[1, 1, 0] = 0.2
        dg[1, 2, 2] = 0.2 * x[1]
        dg[2, 1, 1] = 0.6 * x[2]
        return mass * dg

    def vector_potential(x, t):
        return np.array([0.4 * x[1] * x[2], -0.3 * x[0] + 0.1 * x[2] ** 2,
                         0.2 * x[0] * x[1]])

    def vector_potential_grad(x, t):
        return np.array([[0.0, 0.4 * x[2], 0.4 * x[1]],
                         [-0.3, 0.0, 0.2 * x[2]],
                         [0.2 * x[1], 0.2 * x[0], 0.0]])

    def potential(x, t):
        return (0.5 * (x[0] ** 2 + 2.0 * x[1] ** 2 + 0.5 * x[2] ** 2)
                + 0.1 * x[0] * x[1] * x[2])

    def potential_grad(x, t):
        return np.array([x[0] + 0.1 * x[1] * x[2], 2.0 * x[1] + 0.1 * x[0] * x[2],
                         0.5 * x[2] + 0.1 * x[0] * x[1]])

    def potential_hess(x, t):
        return np.array([[1.0, 0.1 * x[2], 0.1 * x[1]],
                         [0.1 * x[2], 2.0, 0.1 * x[0]],
                         [0.1 * x[1], 0.1 * x[0], 0.5]])

    return LagrangianModel(
        dim=3, metric=metric, metric_grad=metric_grad,
        vector_potential=vector_potential,
        vector_potential_grad=vector_potential_grad, potential=potential,
        potential_grad=potential_grad, potential_hess=potential_hess,
        label="skewed_metric",
    )


def action_hessian_fd(path) -> ActionHessian:
    """Independent oracle: ``central_hessian`` of A(z) over re-solved BVPs.

    The stencil runs once over the stacked endpoints z = (x_a, x_b) of the
    solved ``path``, so the three blocks are slices of one (2D, 2D) Hessian
    and the oracle solves 8 D^2 + 1 boundary problems to 1e-12 on the
    path's grid.  The step is 1e-4 * max(1, |x_b - x_a|).  Every stencil
    solve is seeded with the stored flow's first-order prediction
    ``flow_seed``, so all of them land on the same branch of the classical
    flow, and on an ``affine_flow`` model each accepts its first run.  The
    seed only picks Newton's starting point: the blocks come from the
    re-solved actions alone.
    """
    model, t_a, t_b, n_steps = path.model, path.t_a, path.t_b, path.n_steps
    h = 1e-4 * max(1.0, float(np.linalg.norm(path.x_b - path.x_a)))
    d = model.dim

    def action(z):
        return solve_bvp(model, z[:d], z[d:], t_a, t_b,
                         v0_guess=flow_seed(path, z[:d], z[d:]),
                         n_steps=n_steps, tol=1e-12).action

    z = np.concatenate((path.x_a, path.x_b))
    hess = central_hessian(action, z, h, action(z))
    return ActionHessian(mixed=-hess[:d, d:], aa=hess[:d, :d], bb=hess[d:, d:])


def rk4(rhs, y0, times) -> np.ndarray:
    """Classical RK4 of y' = rhs(t, y) on the uniform grid ``times``.

    The state may have any shape; returns the state at every grid time,
    shape ``(len(times),) + y0.shape``.  The numpy stepper of the
    oracles: the package's path pass steps Python floats in the same
    order of operations.
    """
    h = (times[-1] - times[0]) / (len(times) - 1)
    ys = np.empty((len(times),) + y0.shape)
    ys[0] = y = y0
    for k, t in enumerate(times[:-1]):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        ys[k + 1] = y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return ys


def step_through(maps, y) -> np.ndarray:
    """The state after each of the maps 1 + q_k, applied one at a time as
    y <- y + q_k y, from ``maps`` of shape (b, N, N) and y of shape
    (N, m); returns shape (b, N, m).  The sequential loop of the oracles:
    the package composes the maps as a tree (``dynamics._compose``).
    """
    out = np.empty((len(maps),) + y.shape)
    for inc, o in zip(maps, out):
        o[...] = y = y + inc @ y
    return out


def loop_force(dg, da, grad, v) -> list:
    """The generalized force of the general acceleration rule, by loops,

        F_i = sum_m (curl_im + sum_j (1/2 d_i g_mj - d_m g_ij) v_j) v_m
              - d_i V,

    with ``curl = da^T - da``, from metric_grad dg, vector_potential_grad
    da and potential_grad grad as nested lists of floats and the D floats
    v.  The oracle of ``dynamics._stage_rule``'s force: the loops it was
    emitted from, in the same order of operations.
    """
    span = range(len(v))
    force = []
    for i in span:
        dg_i, da_i = dg[i], da[i]
        f = 0.0
        for m in span:
            dg_im, dg_mi = dg_i[m], dg[m][i]
            s = da[m][i] - da_i[m]
            for j in span:
                s += (0.5 * dg_im[j] - dg_mi[j]) * v[j]
            f += s * v[m]
        force.append(f - grad[i])
    return force


def loop_solve(g: list, rhs: list, x, t) -> list:
    """g^-1 rhs as D floats, from the metric values g, a (D, D) nested
    list of floats read at (x, t), and rhs, D floats; both are overwritten.

    The oracle of ``dynamics._stage_rule``'s elimination, by the loops it
    was emitted from: one Gaussian elimination with partial pivoting on g
    and rhs together, multiplying by the reciprocal pivots.  A zero pivot
    or det, or |det g| <= SINGULAR_METRIC_RTOL * prod_i max_j |g_ij|,
    raises SingularMetric before the back substitution.
    """
    d = len(g)
    bound = SINGULAR_METRIC_RTOL
    for row in g:
        bound *= max(map(abs, row))
    det = 1.0
    for k in range(d):
        p = k
        for i in range(k + 1, d):
            if abs(g[i][k]) > abs(g[p][k]):
                p = i
        if p != k:
            g[k], g[p] = g[p], g[k]
            rhs[k], rhs[p] = rhs[p], rhs[k]
        pivot = g[k]
        det *= pivot[k]
        # a zero pivot is singular, whatever an overflowing det makes of it
        if pivot[k] == 0.0 or det == 0.0:
            raise SingularMetric(f"metric singular at x={x}, t={t}")
        recip = pivot[k] = 1.0 / pivot[k]
        for i in range(k + 1, d):
            row = g[i]
            m = row[k] * recip
            for j in range(k + 1, d):
                row[j] -= m * pivot[j]
            rhs[i] -= m * rhs[k]
    if abs(det) <= bound:
        raise SingularMetric(f"metric singular at x={x}, t={t}")
    for i in range(d - 1, -1, -1):
        row = g[i]
        s = rhs[i]
        for j in range(i + 1, d):
            s -= row[j] * rhs[j]
        rhs[i] = s * row[i]
    return rhs


def _floats(value) -> list:
    return np.asarray(value, dtype=float).tolist()


def loop_linearization(model):
    """``dynamics._general_linearization`` of the loop rule, with nothing
    recorded: ``stage(y, t)`` reads the four callbacks at x and returns
    (t, x, v, acc) with acc from ``loop_force`` and ``loop_solve``, and
    ``jacobians(stages)`` is ``el_linearization`` on a block's rows,
    which reads metric, metric_grad and vector_potential_grad again.
    """
    d = model.dim

    def stage(y, t):
        x = np.array(y[:d])
        g = _floats(model.metric(x, t))
        force = loop_force(_floats(model.metric_grad(x, t)),
                           _floats(model.vector_potential_grad(x, t)),
                           _floats(model.potential_grad(x, t)), y[d:])
        return [t, *y, *loop_solve(g, force, x, t)]

    def jacobians(stages):
        return el_linearization(model, stages[:, 1:d + 1],
                                stages[:, d + 1:2 * d + 1], stages[:, 0],
                                stages[:, 2 * d + 1:3 * d + 1])

    return stage, jacobians


def one_dim_linearization(model, x, t):
    """``(dv, neg_recip, jacobians)`` of one run in D = 1 on a constant
    metric, or None: the D = 1 rule of the two-pass run before its path
    pass was emitted, kept as an oracle.  ``dv`` is
    ``potential_grad.scalar``, or potential_grad read at a (1,) ndarray,
    and ``jacobians`` reads the stage rows of ``path_pass``."""
    if model.dim != 1 or not metric_is_constant(model, x, t):
        return None
    g = np.asarray(model.metric(x, t), dtype=float).tolist()
    rest = dynamics._stage_rule(1)(t, [0.0, 0.0], g, [[[0.0]]], [[0.0]],
                                   [-1.0])
    if rest is None:
        raise SingularMetric(f"metric singular at x={x}, t={t}")
    neg_recip = -rest[3]
    grad = model.potential_grad
    dv = getattr(grad, "scalar", None)
    if dv is None:
        def dv(x, t):
            return grad(np.array([x]), t)[0]

    def jacobians(stages):
        jx = neg_recip * dynamics._read(model.potential_hess, stages[:, 1:2],
                                        stages[:, 0], (1, 1))
        return jx, np.zeros_like(jx)

    return dv, neg_recip, jacobians


def general_linearization(model):
    """``(stage, jacobians)`` of the general rule, a stage a call:
    ``stage(y, t)`` reads the four callbacks at x and returns
    ``dynamics._stage_rule``'s row, and ``jacobians(stages)`` is
    ``dynamics._linearization`` on a block's rows.  The general rule of
    the two-pass run before its path pass was emitted, kept as an
    oracle."""
    d = model.dim
    rule = dynamics._stage_rule(d)

    def stage(y, t):
        x = np.array(y[:d])
        row = rule(t, y, _floats(model.metric(x, t)),
                   _floats(model.metric_grad(x, t)),
                   _floats(model.vector_potential_grad(x, t)),
                   _floats(model.potential_grad(x, t)))
        if row is None:
            raise SingularMetric(f"metric singular at x={x}, t={t}")
        return row

    def jacobians(stages):
        at_dg = 3 * d + 1 + d * d
        at_da = at_dg + d ** 3
        return dynamics._linearization(
            model, stages[:, 1:d + 1], stages[:, d + 1:2 * d + 1],
            stages[:, 0], stages[:, 2 * d + 1:3 * d + 1],
            stages[:, 3 * d + 1:at_dg].reshape(-1, d, d),
            stages[:, at_dg:at_da].reshape(-1, d, d, d),
            stages[:, at_da:].reshape(-1, d, d))

    return stage, jacobians


def path_pass(stage, y: list, starts: list, h: float):
    """RK4 of the state ``y``, a list of 2D floats (x, v), one step from
    each of the start times ``starts``, with ``stage(y, t)`` giving a
    stage's row, a list of floats that starts (t, x, v, acc).  Returns
    the flat float64 record of the rows, four a step, and the last state.
    The general rule's path pass before it was emitted, kept as an
    oracle."""
    d = len(y) // 2
    half, sixth = 0.5 * h, h / 6.0
    record = array.array("d")
    push = record.fromlist

    def slope(y, t):
        row = stage(y, t)
        push(row)
        return row[d + 1:3 * d + 1]   # (v, acc)

    for t in starts:
        k1 = slope(y, t)
        k2 = slope([a + half * b for a, b in zip(y, k1)], t + half)
        k3 = slope([a + half * b for a, b in zip(y, k2)], t + half)
        k4 = slope([a + h * b for a, b in zip(y, k3)], t + h)
        y = [a + sixth * (p + 2.0 * q + 2.0 * r + s)
             for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
    return record, y


def one_dim_path_pass(dv, neg_recip: float, y: list, starts: list,
                      h: float):
    """``path_pass`` in D = 1, on the two floats x, v of ``y``, with the
    acceleration ``neg_recip * float(dv(x, t))``, one call of ``dv`` a
    stage; each step pushes its four stage rows (t, x, v, acc).  The D = 1
    path pass before it was emitted, kept as an oracle."""
    x, v = y
    half, sixth = 0.5 * h, h / 6.0
    record = array.array("d")
    push = record.fromlist
    for t in starts:
        tm, te = t + half, t + h
        a1 = neg_recip * float(dv(x, t))
        x2, v2 = x + half * v, v + half * a1
        a2 = neg_recip * float(dv(x2, tm))
        x3, v3 = x + half * v2, v + half * a2
        a3 = neg_recip * float(dv(x3, tm))
        x4, v4 = x + h * v3, v + h * a3
        a4 = neg_recip * float(dv(x4, te))
        push([t, x, v, a1, tm, x2, v2, a2, tm, x3, v3, a3, te, x4, v4, a4])
        x = x + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    return record, [x, v]


def pass_rk4_run(model, x0, v0, t_a, t_b, n_steps, flow,
                 general=general_linearization):
    """Oracle of ``dynamics._rk4_run`` off ``affine_flow``: the two-pass
    run with the path passes above, one call a stage, whose records the
    Jacobians read as four rows a step.  ``general`` gives the
    ``(stage, jacobians)`` pair off the D = 1 constant metric."""
    d = model.dim
    x = np.asarray(x0, dtype=float)
    v = np.asarray(v0, dtype=float)
    vblock = np.eye(2 * d, 2 * d if flow else 0)
    times = np.linspace(t_a, t_b, n_steps + 1)
    h = float(dynamics._step_size(times))
    one_dim = one_dim_linearization(model, x, t_a)
    if one_dim is None:
        stage, jacobians = general(model)
        step = functools.partial(path_pass, stage)
    else:
        dv, neg_recip, jacobians = one_dim
        step = functools.partial(one_dim_path_pass, dv, neg_recip)
    y = x.tolist() + v.tolist()
    starts = times[:-1]
    states = np.empty((n_steps + 1, 2 * d))
    for k in range(0, n_steps, dynamics.STEP_MAP_BLOCK):
        block = starts[k:k + dynamics.STEP_MAP_BLOCK].tolist()
        record, y = step(y, block, h)
        stages = np.frombuffer(record).reshape(4 * len(block), -1)
        states[k:k + len(block)] = stages[::4, 1:2 * d + 1]
        if flow and not all(map(math.isfinite, y)):
            flow, vblock = False, np.full(vblock.shape, np.nan)
        elif flow:
            vblock = dynamics._flow_step(*jacobians(stages), vblock, h)
    states[-1] = y
    return times, states, vblock[None]


def combined_rk4_run(model, x0, v0, t_a, t_b, n_steps, vblock0):
    """Independent oracle of one Euler-Lagrange run: ``rk4`` on the
    (2D, 1 + m) state [(x, v), vblock], with the path pass's acceleration
    rule (the loop rule of ``loop_linearization`` off the D = 1 constant
    metric) and ``el_linearization`` at one point in each stage.

    Column 0 is the path and columns 1..m the tangent block, both at
    every grid time: returns ``(times, ys)`` with ys of shape
    (n_steps + 1, 2D, 1 + m).  Every model runs it, ``affine_flow`` or
    not, so it checks both the step maps and the two-pass run.
    """
    d = model.dim
    y0 = np.hstack((np.concatenate((np.asarray(x0, float),
                                    np.asarray(v0, float)))[:, None],
                    np.asarray(vblock0, dtype=float)))
    times = np.linspace(t_a, t_b, n_steps + 1)
    one_dim = one_dim_linearization(model, y0[:d, 0], t_a)
    if one_dim is None:
        stage = loop_linearization(model)[0]

        def acceleration(y, t):
            return stage(y, t)[2 * d + 1:]
    else:
        dv, neg_recip, _ = one_dim

        def acceleration(y, t):   # the D = 1 rule: (-1/g) V' in floats
            return [neg_recip * float(dv(y[0], t))]

    def rhs(t, y):
        dy = np.empty_like(y)
        dy[:d] = y[d:]
        acc = np.array(acceleration(y[:, 0].tolist(), t))
        jx, jv = el_linearization(model, y[:d, 0], y[d:, 0], t, acc)
        dy[d:, 0] = acc
        dy[d:, 1:] = jx @ y[:d, 1:] + jv @ y[d:, 1:]
        return dy

    return times, rk4(rhs, y0, times)


def _expression_model(text):
    model, _ = build_model(
        {"tag": "one_dim_potential", "params": {"potential": text}}, 1.0)
    return model


# models flagged affine_flow, with a boundary problem (x_a, x_b, t_b)
# from t_a = 0 on each
AFFINE_CASES = [
    (free_particle(mass=1.5), [0.2], [1.1], 0.9),
    (harmonic_oscillator(omega2=1.0), [0.0], [1.0], 1.2),
    (harmonic_oscillator(mass=[[2.0, 0.3], [0.3, 1.0]],
                         stiffness=[[1.0, 0.2], [0.2, 3.0]]),
     [0.1, -0.2], [0.7, 0.4], 1.1),
    (harmonic_oscillator(omega2=lambda t: (1 + 0.2 * math.sin(t)) ** 2),
     [0.3], [-0.4], 1.3),
    (magnetic_field(mass=1.5, omega=0.8, dim=3), [0.1, 0.0, -0.3],
     [1.0, -0.5, 0.2], 1.4),
    # expression potentials of degree 2, flagged by their degree
    *[(_expression_model(text), x_a, x_b, t_b) for text, x_a, x_b, t_b in [
        ("0.5*x^2", [0.0], [1.0], 1.2),
        ("x^2 + t*x/4", [0.2], [-0.5], 0.9),
        ("0.3*(1 + 0.2*sin(t))*(x - 0.5)^2", [0.0], [1.0], 1.5)]],
]
AFFINE_IDS = ["free", "ho1", "ho2-matrix-mass", "time-dependent-omega2",
              "magnetic-3", "expression-ho", "expression-driven",
              "expression-time-dependent"]


@pytest.fixture
def quartic():
    return make_quartic()


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim))
    return a @ a.T + 0.3 * np.eye(dim)


CRITERION_LINES: list[str] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    CRITERION_LINES.append(f"[criterion-{number}] {verdict} {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(CRITERION_LINES):
        terminalreporter.write_line(line)
