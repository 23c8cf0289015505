"""Seeded workloads, their output gates and exact references.

Every workload is a closed loop with one client: the next item starts
when the previous one has returned.  Item ``i`` of a run is drawn from
``numpy.random.default_rng([seed, i])`` inside stratum ``i % cycle``, so
the same seed gives the same items, and every run meets every stratum,
so a run's figures come from the same kinds of item on every seed.
All items sit inside the caustic-free window of their model, so every
item is expected to pass its gate.  Items run at the program's default
step count (``n_steps`` 1000, as in the demo configs), so the layers
weigh in a run as they do in a user's.

The program only sees the generated inputs: the CLI workloads get a
config file and an in-process ``vanvleck.cli.main`` call, ``polar`` gets
library calls.  Functions are looked up on their module at call time, so
the wrappers the traced run installs are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import vanvleck
import vanvleck.cli

ROUTE_TOL = 1e-6      # a route against the closed form, or two routes
EXACT_TOL = 1e-10     # the program's closed form against the benchmark's
MOMENTUM_TOL = 1e-8   # junction momentum jump on verify (CLI default)
POLAR_TOL = 1e-8      # polar action and F, and vvpm against general

ALL_METHODS = ["vvpm", "general", "energy-hessian", "gelfand-yaglom",
               "short-time", "dalembert", "analytic"]
# Routes are requested only inside their documented domain.  dalembert
# needs a time-independent potential: vanvleck 0.1.0 accepts it on a
# time-dependent omega2 and returns a factor 3.7% off the other routes
# with exit 0 (a known bug).  Its docstring formula is the unit-mass form
# and the code drops the mass (off by sqrt(m), a known bug), so the
# scenarios that request it have m = 1.  There is no closed form for a
# time-dependent frequency.
TIME_DEPENDENT_METHODS = ["vvpm", "general", "energy-hessian",
                          "gelfand-yaglom", "short-time"]
COUPLED_METHODS = ["vvpm", "general", "energy-hessian", "gelfand-yaglom",
                   "short-time", "analytic"]
# factor strata: (scenario, Gelfand-Yaglom solver, largest mode phase
# omega*T in units of pi).  Each band sits inside the caustic-free window
# omega*T < pi, and each solver runs on one kind of scenario, so a run of
# a few items meets every solver and every kind; time-ordered takes the
# time-dependent frequency, which is what it is built for.
FACTOR_STRATA = (("ho1", "direct", 0.3), ("ho1_td", "time-ordered", 0.5),
                 ("ho2", "neumann", 0.7))
# On verify, phases up to 0.3 pi keep Newton's run count the same for
# every draw, so an item's work, and the timing, does not depend on the
# seed.
VERIFY_BANDS = (0.2, 0.25, 0.3)
POLAR_BANDS = (0.45, 0.8, 1.15)   # |theta_b - theta_a| in radians


class GateError(Exception):
    """An item's output failed its check."""


class Context:
    """Where an item writes its config, and the tracer of a traced pass."""

    def __init__(self, workdir: str, tracer=None):
        self.workdir = workdir
        self.tracer = tracer

    def span(self, name: str):
        """A span of the traced pass; nothing when untraced."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)


def _rng(seed: int, index: int):
    return np.random.default_rng([seed, index])


def _phase(rng, band: float) -> float:
    return math.pi * band * (1.0 + 0.01 * rng.uniform(-1.0, 1.0))


def _rel(value: complex, ref: complex) -> float:
    return abs(value - ref) / abs(ref)


def fresnel(dim: int, hbar: float) -> complex:
    """(2 pi i hbar)^(-D/2) with the principal root of i."""
    return (2.0 * math.pi * hbar) ** (-0.5 * dim) * np.exp(-0.25j * math.pi * dim)


def oscillator_reference(mass: float, stiffness, duration: float,
                         hbar: float) -> complex:
    """Closed-form F of V = x.K.x / 2 with scalar mass, by normal modes."""
    omegas = np.sqrt(np.linalg.eigvalsh(np.asarray(stiffness)) / mass)
    dim = len(omegas)
    ratio = np.prod(np.sqrt(omegas * duration / np.sin(omegas * duration)))
    return fresnel(dim, hbar) * (mass / duration) ** (0.5 * dim) * ratio


def _run_cli(command: str, cfg: dict, ctx: Context, extra=()) -> str:
    path = os.path.join(ctx.workdir, "item.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(cfg, handle)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with ctx.span("cli"):
            code = vanvleck.cli.main([command, "--config", path, *extra])
    if code != 0:
        raise GateError(f"exit code {code}: "
                        f"{err.getvalue().strip() or out.getvalue()[:300]}")
    return out.getvalue()


def _parse_report(text: str) -> dict:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GateError(f"report does not parse: {exc}") from exc
    if "error" in report:
        raise GateError(f"report carries an error: {report['error']}")
    return report


# ---------------------------------------------------------------------------
# factor: every valid route on harmonic-oscillator scenarios


def _monotone_endpoints(rng, omega: float, duration: float):
    """Endpoints of a path x = A sin(omega (t - c)) that never turns.

    The phase window of width omega*T < pi is centred near the zero of
    the sine, so the velocity keeps its sign (dalembert's domain); the
    centre offset stays small, which keeps the slowest velocity, and so
    dalembert's quadrature error, nearly the same for every seed.
    """
    half = 0.5 * omega * duration
    offset = float(rng.uniform(-0.02, 0.02))
    amplitude = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))
    return ([amplitude * math.sin(offset - half)],
            [amplitude * math.sin(offset + half)])


def factor_item(seed: int, index: int) -> dict:
    rng = _rng(seed, index)
    kind, solver, band = FACTOR_STRATA[index % len(FACTOR_STRATA)]
    phase = _phase(rng, band)
    mass = float(rng.uniform(0.5, 2.0))
    hbar = float(rng.uniform(0.5, 1.5))
    duration = float(rng.uniform(0.5, 1.5))
    t_a = 0.0
    stiffness = None
    if kind == "ho1":
        mass = 1.0   # dalembert drops the mass, see ALL_METHODS
        omega = phase / duration
        x_a, x_b = _monotone_endpoints(rng, omega, duration)
        params = {"mass": mass, "omega2": omega * omega, "dim": 1}
        stiffness = [[mass * omega * omega]]
        methods = ALL_METHODS
    elif kind == "ho1_td":
        eps = float(rng.uniform(0.1, 0.4))
        nu = float(rng.uniform(0.5, 3.0))
        w2 = (phase / duration) ** 2 / (1.0 + eps)   # max omega * T = phase
        params = {"mass": mass, "dim": 1,
                  "omega2": f"{w2!r} * (1 + {eps!r} * sin({nu!r} * t))"}
        t_a = float(rng.uniform(0.0, 1.0))
        x_a = [float(rng.uniform(-1.0, 1.0))]
        x_b = [float(rng.uniform(-1.0, 1.0))]
        methods = TIME_DEPENDENT_METHODS
    else:
        w_hi = phase / duration
        w_lo = w_hi * float(rng.uniform(0.3, 0.9))
        angle = float(rng.uniform(0.2, 1.3))
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        k = mass * rot @ np.diag([w_hi ** 2, w_lo ** 2]) @ rot.T
        stiffness = (0.5 * (k + k.T)).tolist()
        params = {"mass": mass, "stiffness": stiffness, "dim": 2}
        x_a = [float(v) for v in rng.uniform(-1.0, 1.0, size=2)]
        x_b = [float(v) for v in rng.uniform(-1.0, 1.0, size=2)]
        methods = COUPLED_METHODS
    config = {
        "model": {"tag": "harmonic_oscillator", "params": params},
        "x_a": x_a, "x_b": x_b, "t_a": t_a, "t_b": t_a + duration,
        "hbar": hbar, "methods": methods,
        "numerics": {"gy_solver": solver},
    }
    return {"config": config, "stiffness": stiffness, "mass": mass,
            "dim": len(x_a), "duration": duration, "hbar": hbar}


def run_factor(item: dict, ctx: Context):
    text = _run_cli("factor", item["config"], ctx)
    report = _parse_report(text)
    methods = item["config"]["methods"]
    factors = report["factors"]
    if set(factors) != set(methods):
        raise GateError(f"routes {sorted(factors)} != requested {sorted(methods)}")
    values = {name: complex(f["re"], f["im"]) for name, f in factors.items()}
    if not all(np.isfinite(v) for v in values.values()):
        raise GateError("non-finite factor")
    dim, mass, hbar = item["dim"], item["mass"], item["hbar"]
    free = fresnel(dim, hbar) * (mass / item["duration"]) ** (0.5 * dim)
    if _rel(values["short-time"], free) > EXACT_TOL:
        raise GateError("short-time factor is not the free-particle value")
    routes = {k: v for k, v in values.items() if k != "short-time"}

    accuracy = None
    if item["stiffness"] is not None:
        ref = oscillator_reference(mass, item["stiffness"], item["duration"], hbar)
        errors = {name: _rel(value, ref) for name, value in routes.items()}
        if errors.get("analytic", 0.0) > EXACT_TOL:
            raise GateError(f"analytic off the closed form by {errors['analytic']:.3e}")
        accuracy = max(errors.values())
        if accuracy > ROUTE_TOL:
            raise GateError(f"route off the closed form: {errors}")

    # short-time is an asymptotic anchor, off by design at finite T
    deviations = {pair: dev for pair, dev in report["pairwise_deviations"].items()
                  if "short-time" not in pair.split("|")}
    if len(deviations) != len(routes) * (len(routes) - 1) // 2:
        raise GateError("pairwise deviations do not cover every route pair")
    agreement = max(deviations.values())
    if agreement > ROUTE_TOL:
        raise GateError(f"routes disagree: {deviations}")
    return accuracy, agreement, len(text.encode())


# ---------------------------------------------------------------------------
# verify: splitting identity on anharmonic expression potentials


def verify_item(seed: int, index: int) -> dict:
    rng = _rng(seed, index)
    mass = float(rng.uniform(0.5, 2.0))
    quad = float(rng.uniform(0.0, 1.0))
    quartic = float(rng.uniform(0.1, 1.0))
    x_a = float(rng.uniform(-0.5, 0.5))
    x_b = x_a + float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.2))
    # V'' <= omega_max^2 m on a cushion around the endpoints, so by Sturm
    # comparison no conjugate point lies within phase / omega_max
    reach = max(abs(x_a), abs(x_b)) + 0.5
    omega_max = math.sqrt((2.0 * quad + 12.0 * quartic * reach ** 2) / mass)
    duration = _phase(rng, VERIFY_BANDS[index % 3]) / omega_max
    t_mid = [float(rng.uniform(0.15, 0.85)) * duration]
    config = {
        "model": {"tag": "one_dim_potential",
                  "params": {"mass": mass,
                             "potential": f"{quad!r} * x^2 + {quartic!r} * x^4"}},
        "x_a": [x_a], "x_b": [x_b], "t_b": duration, "t_mid": t_mid,
    }
    return {"config": config}


def run_verify(item: dict, ctx: Context):
    text = _run_cli("verify", item["config"], ctx)
    report = _parse_report(text)
    t_mid = item["config"]["t_mid"]
    reps = report["reports"]
    if not report["all_passed"] or len(reps) != len(t_mid):
        raise GateError("splitting identity not met at every split")
    accuracy = agreement = 0.0
    for rep, t in zip(reps, t_mid):
        if rep["t_mid"] != t or not rep["passed"]:
            raise GateError(f"split at t_mid={t} did not pass")
        identity = max(rep["factor_residual"], rep["jacobian_identity_residual"])
        if identity > ROUTE_TOL or rep["momentum_mismatch"] > MOMENTUM_TOL:
            raise GateError(f"split at t_mid={t} is off: {rep}")
        accuracy = max(accuracy, identity)
        agreement = max(agreement, rep["momentum_mismatch"],
                        rep["action_additivity_residual"]
                        / (1.0 + abs(rep["diagnostic"]["action_full"])))
    return accuracy, agreement, len(text.encode())


# ---------------------------------------------------------------------------
# polar: library pipeline on a position-dependent metric


def polar_model(mass: float, hbar: float):
    """Free particle in polar coordinates (r, theta): g = diag(m, m r^2)."""
    zero_vec = np.zeros(2)
    zero_mat = np.zeros((2, 2))

    def metric(x, t):
        return np.diag([mass, mass * x[0] ** 2])

    def metric_grad(x, t):
        dg = np.zeros((2, 2, 2))
        dg[0, 1, 1] = 2.0 * mass * x[0]
        return dg

    return vanvleck.LagrangianModel(
        dim=2, metric=metric, metric_grad=metric_grad,
        vector_potential=lambda x, t: zero_vec,
        vector_potential_grad=lambda x, t: zero_mat,
        potential=lambda x, t: 0.0,
        potential_grad=lambda x, t: zero_vec,
        potential_hess=lambda x, t: zero_mat,
        hbar=hbar, kinetic_gradients_constant=False,
        label="polar_free_particle")


def polar_reference(item: dict) -> dict:
    """Exact action, endpoint Hessian blocks and F in polar coordinates.

    A = m (r_a^2 + r_b^2 - 2 r_a r_b cos d) / (2T), d = theta_b - theta_a;
    F_polar = F_cart sqrt(r_a r_b) (DeWitt, Rev. Mod. Phys. 29, 377).
    """
    m, duration = item["mass"], item["duration"]
    r_a, r_b = item["r_a"], item["r_b"]
    d = item["theta_b"] - item["theta_a"]
    c, s, k = math.cos(d), math.sin(d), m / duration
    return {
        "action": 0.5 * k * (r_a ** 2 + r_b ** 2 - 2.0 * r_a * r_b * c),
        "mixed": np.array([[k * c, -k * r_b * s], [k * r_a * s, k * r_a * r_b * c]]),
        "aa": np.array([[k, -k * r_b * s], [-k * r_b * s, k * r_a * r_b * c]]),
        "bb": np.array([[k, k * r_a * s], [k * r_a * s, k * r_a * r_b * c]]),
        "factor": fresnel(2, item["hbar"]) * k * math.sqrt(r_a * r_b),
    }


def polar_item(seed: int, index: int) -> dict:
    rng = _rng(seed, index)
    # radii in [0.9, 1.3] and |d| <= 1.18 keep the straight path in the
    # plane at least 0.7 away from the coordinate singularity r = 0
    r_a, r_b = (float(r) for r in rng.uniform(0.9, 1.3, size=2))
    d = float(rng.choice([-1.0, 1.0])) * (
        POLAR_BANDS[index % 3] + 0.03 * float(rng.uniform(-1.0, 1.0)))
    theta_a = float(rng.uniform(-math.pi, math.pi))
    return {"mass": float(rng.uniform(0.5, 2.0)), "hbar": float(rng.uniform(0.5, 1.5)),
            "duration": float(rng.uniform(0.5, 2.0)), "r_a": r_a, "r_b": r_b,
            "theta_a": theta_a, "theta_b": theta_a + d}


def run_polar(item: dict, ctx: Context):
    mass, hbar, duration = item["mass"], item["hbar"], item["duration"]
    model = polar_model(mass, hbar)
    if ctx.tracer is not None:
        model = ctx.tracer.instrument_model(model)
    q_a = [item["r_a"], item["theta_a"]]
    q_b = [item["r_b"], item["theta_b"]]
    path = vanvleck.solve_bvp(model, q_a, q_b, 0.0, duration)
    hess = vanvleck.action_hessian_jacobi(path)
    factor = vanvleck.vvpm_factor(hess, hbar=hbar).value

    ref = polar_reference(item)
    block_err = max(np.linalg.norm(getattr(hess, b) - ref[b]) / np.linalg.norm(ref[b])
                    for b in ("mixed", "aa", "bb"))
    exact_err = max(_rel(path.action, ref["action"]), _rel(factor, ref["factor"]))
    if block_err > ROUTE_TOL or exact_err > POLAR_TOL:
        raise GateError(f"polar off the oracle: blocks {block_err:.3e}, "
                        f"action/F {exact_err:.3e}")

    # the velocity-gradient route reads the same flow through the same
    # FD metric branch, so polar stays clear of the constant-metric code
    general = vanvleck.general_factor(path).value
    agreement = _rel(general, factor)
    if agreement > POLAR_TOL:
        raise GateError(f"general and vvpm differ by {agreement:.3e}")
    return max(block_err, exact_err), agreement, 0


class Workload:
    """Item generator and gate of one workload."""

    def __init__(self, name, cycle, make, run, imports):
        self.name = name
        self.cycle = cycle      # strata; a run covers each at least once
        self.make = make
        self.run = run
        self.imports = imports  # what a fresh interpreter imports at setup


WORKLOADS = {w.name: w for w in (
    Workload("factor", 3, factor_item, run_factor, "vanvleck, vanvleck.cli"),
    Workload("verify", 3, verify_item, run_verify, "vanvleck, vanvleck.cli"),
    Workload("polar", 3, polar_item, run_polar, "vanvleck"),
)}
