"""Batch front end: JSON-configured scenarios, machine-readable reports.

Subcommands
-----------
factor   compute the fluctuation factor of one scenario by each requested
         method and report pairwise deviations.
verify   split the interval at one or more junction times and report the
         recombination residuals.
sweep    tabulate |F| and phase over a cartesian grid of one or two
         scalar parameters (CSV).
models   list the builtin model tags and their parameters.

Exit codes: 0 success, 1 config error or bad command line (nothing is
written), 2 numerical failure (the error name lands in the report).
Reports are byte-stable JSON (``dumps_canonical``): 2-space indent, sorted
keys, raw UTF-8 strings, floats in their shortest round-trip form and a
final newline, the bytes ``json.dumps(report, sort_keys=True, indent=2,
ensure_ascii=False)`` would give.  An inf or NaN in a report is refused as
NonFiniteResult (exit 2).
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import io
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .analytic import (free_particle_factor, harmonic_constant_factor,
                       magnetic_factor, one_dim_dalembert_factor)
from .composition import verify_composition
from .dynamics import (DEFAULT_MAX_ITER, DEFAULT_N_STEPS, DEFAULT_TOL,
                       ClassicalPath, solve_bvp)
from .errors import ConfigError, NonFiniteResult, NonSPDMass, VanVleckError
from .expressions import (TOO_DEEP, compile_node, compile_potential,
                          parse_expression)
from .fluctuation import (FluctuationFactor, energy_hessian_factor,
                          general_factor, short_time_factor, vvpm_factor)
from .gelfand_yaglom import (DEFAULT_N_SLICES, DEFAULT_QUAD_POINTS,
                             DEFAULT_SERIES_ORDER, gy_fluctuation_factor,
                             solve_B_direct, solve_B_neumann,
                             solve_B_time_ordered)
from .hessian import action_hessian_jacobi, frequency_matrix_along_path
from .models import BUILTIN_TAGS, LagrangianModel, builtin_model, stacked

METHOD_IDS = ("vvpm", "general", "energy-hessian", "gelfand-yaglom",
              "short-time", "dalembert", "analytic")
PATH_METHODS = {"vvpm", "general", "energy-hessian", "gelfand-yaglom",
                "dalembert"}
GY_SOLVERS = ("direct", "neumann", "time-ordered")

NUMERICS_DEFAULTS = {
    "n_steps": DEFAULT_N_STEPS,
    "tol": DEFAULT_TOL,
    "max_iter": DEFAULT_MAX_ITER,
    "series_order": DEFAULT_SERIES_ORDER,
    "quad_points": DEFAULT_QUAD_POINTS,
    "n_slices": DEFAULT_N_SLICES,
    "gy_solver": "direct",
}

# Upper bounds of the dimension and of the counts that size arrays.  Each
# count's bound comes from the largest array it sizes (float64) at
# D = MAX_DIM: the RK4 state history of a path on an ``affine_flow`` model,
# (n_steps + 1, 2D + 1, 1 + 2D) with its homogeneous row, is 392 B a step,
# 39 MB at the bound (65 MB at D = 4, which is why the dimension stops at
# 3), while any other model's run holds its (n_steps + 1, 2D) history, 48 B
# a step, and one block of STEP_MAP_BLOCK steps; a q x q Neumann
# collocation matrix is 8 MB at the bound, and a solve holds two: the
# reference rule on [-1, 1], which stays cached for the process, one q at
# a time, and its copy scaled to the interval; the time-ordered slice
# propagator stack, (n_slices, 2D, 2D), is 288 B a slice, 29 MB at the
# bound.
# A sweep keeps every row (a dict of a few dozen floats, under 2 KB) until
# its CSV is written, so its row count, the product of the parameter
# counts, is bounded too: under 20 MB at the bound.  ``verify`` keeps
# every split's report (nested dicts of about 40 floats, about 5 KB, and
# 1.5 KB of report text) until it writes them, so its count of ``t_mid``
# entries is bounded as well: under 10 MB at the bound.
MAX_DIM = 3
MAX_N_STEPS = 100_000
MAX_QUAD_POINTS = 1_000
MAX_N_SLICES = 100_000
MAX_SWEEP_ROWS = 10_000
MAX_SPLITS = 1_000

MAX_SERIALIZED_SAMPLES = 256


# ---------------------------------------------------------------------------
# canonical JSON


_escape = json.encoder.encode_basestring


def _not_finite(value) -> NonFiniteResult:
    return NonFiniteResult(
        "a report value is not finite: Out of range float values are not "
        f"JSON compliant: {float.__repr__(value)}")


def _array_template(shape: tuple, indent: str) -> str:
    """The text of a float array of ``shape`` at ``indent`` with ``{}`` in
    place of each entry, in ``ravel`` order."""
    if not shape:
        return "{}"
    inner = indent + "  "
    rows = ("," + inner).join([_array_template(shape[1:], inner)] * shape[0])
    return "[" + inner + rows + indent + "]"


def _write(obj, indent: str, out: list) -> None:
    """Append the canonical text of ``obj`` to ``out``; ``indent`` is the
    newline and indentation of the line ``obj`` starts on."""
    if isinstance(obj, str):
        out.append(_escape(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise _not_finite(obj)
        out.append(float.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _escape(key) + ": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim and obj.size:
            finite = np.isfinite(obj)
            if not finite.all():
                raise _not_finite(obj[~finite][0])
            out.append(_array_template(obj.shape, indent).format(
                *map(float.__repr__, obj.ravel().tolist())))
        else:   # empty, 0-d, integer, bool or object arrays
            _write(obj.tolist(), indent, out)
    elif isinstance(obj, np.integer):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """The report text of ``obj``: the bytes of ``json.dumps(obj,
    sort_keys=True, indent=2, allow_nan=False, ensure_ascii=False)`` plus a
    newline, with ndarrays written as their ``tolist()`` and numpy integers
    and bools as Python ones.

    Floats are written in their shortest round-trip form (``float.__repr__``)
    and strings by json's own escaper.  A float array is checked for
    inf/NaN once and written through one format template, instead of one
    encoder call per entry as json's pure-Python indent encoder does.  An
    inf or NaN raises NonFiniteResult, naming the first one met; a non-str
    key or a value of any other type raises TypeError.
    """
    out = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _writable(out_path: Optional[str]) -> Optional[str]:
    """``out_path`` once it opens for appending, which keeps its text: an
    unwritable path is a config error before any computation."""
    if out_path not in (None, "-"):
        try:
            with open(out_path, "a", encoding="utf-8"):
                pass
        except (OSError, ValueError) as exc:   # ValueError: a NUL byte
            raise ConfigError(f"cannot write {out_path!r}: "
                              f"{getattr(exc, 'strerror', None) or exc}") from exc
    return out_path


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# config parsing


def _check_keys(cfg: dict, allowed, where: str) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _vector(value, name: str) -> np.ndarray:
    if _is_number(value):
        return np.array([float(value)])
    if isinstance(value, list) and all(_is_number(v) for v in value):
        return np.asarray(value, dtype=float)
    raise ConfigError(f"{name} must be a number or a list of numbers")


def _matrix(value: list, name: str) -> np.ndarray:
    if value and all(isinstance(row, list) and len(row) == len(value[0])
                     and all(_is_number(v) for v in row) for row in value):
        return np.asarray(value, dtype=float)
    raise ConfigError(f"{name} must be a number or a list of equal-length "
                      "lists of numbers")


def _scalar(cfg: dict, key: str, where: str, default=None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing key {key!r} in {where}")
        return float(default)
    value = cfg[key]
    if not _is_number(value):
        raise ConfigError(f"{key} must be a number")
    return float(value)


def _time_expression(text: str):
    """A frequency expression as a float, or as a callable of t if it uses t."""
    node = parse_expression(text)
    try:
        uses_x, uses_t, f = node.uses("x"), node.uses("t"), compile_node(node)
    except RecursionError as exc:
        raise ConfigError(TOO_DEEP) from exc
    if uses_x:
        raise ConfigError("a time-dependent frequency may not depend on x")
    if uses_t:
        return stacked(lambda t: f(0.0, t))
    try:
        value = float(f(0.0, 0.0))
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise ConfigError(f"frequency {text!r} is not a number: {exc}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"frequency {text!r} is not finite")
    return value


def _parse_numerics(cfg: dict) -> dict:
    _check_keys(cfg, set(NUMERICS_DEFAULTS), "numerics")
    numerics = dict(NUMERICS_DEFAULTS)
    for key, value in cfg.items():
        if key == "gy_solver":
            if value not in GY_SOLVERS:
                raise ConfigError(f"gy_solver must be one of {GY_SOLVERS}")
            numerics[key] = value
        elif key in ("n_steps", "max_iter", "series_order", "quad_points",
                     "n_slices"):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ConfigError(f"{key} must be a nonnegative integer")
            numerics[key] = value
        else:
            if not _is_number(value):
                raise ConfigError(f"{key} must be a number")
            numerics[key] = float(value)
    n_steps = numerics["n_steps"]
    if n_steps < 8 or n_steps % 2 != 0:
        raise ConfigError("n_steps must be an even integer of at least 8")
    if not numerics["tol"] > 0.0:
        raise ConfigError("tol must be positive")
    for key in ("max_iter", "series_order", "quad_points", "n_slices"):
        if numerics[key] < 1:
            raise ConfigError(f"{key} must be at least 1")
    for key, bound in (("n_steps", MAX_N_STEPS),
                       ("quad_points", MAX_QUAD_POINTS),
                       ("n_slices", MAX_N_SLICES)):
        if numerics[key] > bound:
            raise ConfigError(f"{key} must be at most {bound}")
    return numerics


def build_model(model_cfg: dict, hbar: float):
    """Instantiate a builtin from its config block.

    Returns the model plus the coerced parameter dict (used by the
    closed-form dispatch, which needs the raw numbers back).
    """
    _check_keys(model_cfg, {"tag", "params"}, "model")
    tag = model_cfg.get("tag")
    if not isinstance(tag, str) or tag not in BUILTIN_TAGS:
        raise ConfigError(
            f"unknown model tag {tag!r}; available: {sorted(BUILTIN_TAGS)}")
    params = model_cfg.get("params", {})
    _check_keys(params, set(BUILTIN_TAGS[tag]["params"]),
                f"model.params for {tag!r}")
    coerced = {}
    for key, value in params.items():
        if key == "potential":
            if not isinstance(value, str):
                raise ConfigError("potential must be an expression string")
            v, dv, d2v = compile_potential(value)
            coerced["potential"] = v
            coerced["potential_grad"] = dv
            coerced["potential_hess"] = d2v
        elif key == "omega2" and isinstance(value, str):
            coerced[key] = _time_expression(value)
        elif key in ("mass", "stiffness") and isinstance(value, list):
            coerced[key] = _matrix(value, key)
            if max(coerced[key].shape) > MAX_DIM:
                raise ConfigError(
                    f"a matrix {key} may be at most {MAX_DIM}x{MAX_DIM}")
        elif key == "dim":
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError("dim must be an integer")
            if not 1 <= value <= MAX_DIM:
                raise ConfigError(f"dim must be between 1 and {MAX_DIM}")
            coerced[key] = value
        else:
            if not _is_number(value):
                raise ConfigError(f"model parameter {key!r} must be a number")
            coerced[key] = float(value)
    try:
        return builtin_model(tag, hbar=hbar, **coerced), coerced
    except (ValueError, TypeError, NonSPDMass) as exc:
        raise ConfigError(f"cannot build model {tag!r}: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    """One validated factor scenario; ``raw`` is the config verbatim."""

    raw: dict
    model: LagrangianModel
    tag: str
    params: dict
    x_a: np.ndarray
    x_b: np.ndarray
    t_a: float
    t_b: float
    hbar: float
    methods: tuple
    numerics: dict
    output: Optional[str]

    @property
    def duration(self) -> float:
        return self.t_b - self.t_a


_SCENARIO_KEYS = {"model", "x_a", "x_b", "t_a", "t_b", "hbar", "methods",
                  "numerics", "output"}


def parse_scenario(cfg: dict, require_methods: bool = True,
                   extra_keys=()) -> Scenario:
    _check_keys(cfg, _SCENARIO_KEYS | set(extra_keys), "config")
    if "model" not in cfg:
        raise ConfigError("missing key 'model' in config")
    hbar = _scalar(cfg, "hbar", "config", default=1.0)
    if hbar <= 0.0:
        raise ConfigError("hbar must be positive")
    model, params = build_model(cfg["model"], hbar)
    x_a = _vector(cfg.get("x_a", [0.0] * model.dim), "x_a")
    x_b = _vector(cfg.get("x_b", [0.0] * model.dim), "x_b")
    if x_a.shape != (model.dim,) or x_b.shape != (model.dim,):
        raise ConfigError(
            f"endpoints must have {model.dim} components for this model")
    t_a = _scalar(cfg, "t_a", "config", default=0.0)
    t_b = _scalar(cfg, "t_b", "config")
    if not t_b > t_a:
        raise ConfigError("t_b must be larger than t_a")
    numerics = _parse_numerics(cfg.get("numerics", {}))
    output = cfg.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("output must be a path string")

    # every command checks a given list; only verify may omit it or leave
    # it empty, and it checks no method against the model
    methods = cfg.get("methods", [])
    if (not isinstance(methods, list) or (require_methods and not methods)
            or not all(isinstance(m, str) for m in methods)):
        raise ConfigError("methods must be a nonempty list of strings"
                          if require_methods else
                          "methods must be a list of strings")
    for method in methods:
        if method not in METHOD_IDS:
            raise ConfigError(
                f"unknown method {method!r}; available: {METHOD_IDS}")
        if methods.count(method) > 1:
            raise ConfigError(f"method {method!r} is named twice")
    if require_methods:
        tag = cfg["model"]["tag"]
        if "dalembert" in methods:
            if model.dim != 1:
                raise ConfigError(
                    "method 'dalembert' needs a one-dimensional model")
            potential = params.get("potential")
            if callable(params.get("omega2")) or (
                    potential is not None and potential.node.uses("t")):
                raise ConfigError(
                    "method 'dalembert' needs a time-independent potential")
        if "analytic" in methods:
            if tag == "one_dim_potential":
                raise ConfigError(
                    "method 'analytic' has no closed form for expression "
                    "potentials")
            if tag == "harmonic_oscillator" and callable(params.get("omega2")):
                raise ConfigError(
                    "method 'analytic' needs a constant frequency")
            # the builder took exactly one of omega2 and a symmetric stiffness
            if tag == "harmonic_oscillator" and (
                    params["omega2"] if "omega2" in params
                    else np.linalg.eigvalsh(params["stiffness"])[0]) <= 0.0:
                raise ConfigError("method 'analytic' needs positive normal-"
                                  "mode frequencies: omega2 > 0 or a positive "
                                  "definite stiffness")
        if ("gelfand-yaglom" in methods and tag == "magnetic_field"
                and params.get("omega", 1.0) != 0.0):
            raise ConfigError("method 'gelfand-yaglom' needs a vanishing "
                              "magnetic field: omega 0")
        if "energy-hessian" in methods and not model.affine_flow:
            raise ConfigError(
                "method 'energy-hessian' needs linear Euler-Lagrange "
                "equations: a potential of degree at most 2 in x")
    return Scenario(raw=copy.deepcopy(cfg), model=model,
                    tag=cfg["model"]["tag"], params=params, x_a=x_a, x_b=x_b,
                    t_a=t_a, t_b=t_b, hbar=hbar, methods=tuple(methods),
                    numerics=numerics, output=output)


# ---------------------------------------------------------------------------
# factor computation


def _solve_scenario_path(scenario: Scenario) -> ClassicalPath:
    numerics = scenario.numerics
    return solve_bvp(scenario.model, scenario.x_a, scenario.x_b,
                     scenario.t_a, scenario.t_b,
                     n_steps=numerics["n_steps"], tol=numerics["tol"],
                     max_iter=numerics["max_iter"])


def _gy_factor(scenario: Scenario, path: ClassicalPath) -> FluctuationFactor:
    omega2 = frequency_matrix_along_path(path)
    numerics = scenario.numerics
    solver = numerics["gy_solver"]
    if solver == "direct":
        b_dot_a = solve_B_direct(omega2, path.t_a, path.t_b,
                                 n_steps=numerics["n_steps"])
    elif solver == "neumann":
        b_dot_a = solve_B_neumann(omega2, path.t_a, path.t_b,
                                  order=numerics["series_order"],
                                  quad_points=numerics["quad_points"])
    else:
        b_dot_a = solve_B_time_ordered(omega2, path.t_a, path.t_b,
                                       n_slices=numerics["n_slices"])
    mass = np.asarray(path.model.metric(path.x_a, path.t_a), dtype=float)
    return gy_fluctuation_factor(b_dot_a, mass, hbar=scenario.hbar)


def _analytic_result(scenario: Scenario):
    mass = np.asarray(scenario.model.metric(scenario.x_a, scenario.t_a),
                      dtype=float)
    if scenario.tag == "free_particle":
        return free_particle_factor(mass, scenario.duration, scenario.hbar,
                                    x_a=scenario.x_a, x_b=scenario.x_b)
    if scenario.tag == "harmonic_oscillator":
        if "stiffness" in scenario.params:
            omega2 = np.linalg.solve(mass, scenario.params["stiffness"])
        else:
            omega2 = scenario.params["omega2"]
        return harmonic_constant_factor(mass, omega2, scenario.duration,
                                        scenario.hbar, x_a=scenario.x_a,
                                        x_b=scenario.x_b)
    return magnetic_factor(scenario.params.get("mass", 1.0),
                           scenario.params.get("omega", 1.0),
                           scenario.model.dim, scenario.duration,
                           scenario.hbar, x_a=scenario.x_a, x_b=scenario.x_b)


def compute_factors(scenario: Scenario):
    """All requested factors, the path (if one was needed), analytic extras."""
    path = None
    if PATH_METHODS & set(scenario.methods):
        path = _solve_scenario_path(scenario)
    factors = {}
    analytic_extras = None
    for method in scenario.methods:
        if method == "vvpm":
            factors[method] = vvpm_factor(action_hessian_jacobi(path),
                                          hbar=scenario.hbar)
        elif method == "general":
            factors[method] = general_factor(path)
        elif method == "energy-hessian":
            factors[method] = energy_hessian_factor(path)
        elif method == "gelfand-yaglom":
            factors[method] = _gy_factor(scenario, path)
        elif method == "short-time":
            factors[method] = short_time_factor(
                scenario.model, scenario.x_a, scenario.t_a, scenario.duration)
        elif method == "dalembert":
            result = one_dim_dalembert_factor(path)
            factors[method] = result.factor
        else:
            result = _analytic_result(scenario)
            factors[method] = result.factor
            analytic_extras = {"action": result.action,
                               "aux": {k: v for k, v in result.aux.items()}}
    return factors, path, analytic_extras


def pairwise_deviations(factors: dict) -> dict:
    out = {}
    for first, second in itertools.combinations(sorted(factors), 2):
        a, b = factors[first].value, factors[second].value
        out[f"{first}|{second}"] = abs(a - b) / max(abs(a), abs(b))
    return out


def path_to_dict(path: ClassicalPath, full_grid: bool) -> dict:
    n = len(path.times)
    if full_grid or n <= MAX_SERIALIZED_SAMPLES:
        idx = np.arange(n)
    else:
        # n > MAX_SERIALIZED_SAMPLES, so the index spacing exceeds 1 and
        # the rounded indices strictly increase
        idx = np.round(
            np.linspace(0, n - 1, MAX_SERIALIZED_SAMPLES)).astype(int)
    return {
        "t": path.times[idx],
        "x": path.positions[idx],
        "v": path.velocities[idx],
        "action": path.action,
        "p_a": path.p_a,
        "p_b": path.p_b,
        "energy_a": path.energy_a,
        "bvp_residual": path.bvp_residual,
        "n_steps": path.n_steps,
    }


def _error_report(command: str, cfg: dict, exc: Exception) -> dict:
    return {"command": command, "config": cfg,
            "error": {"name": type(exc).__name__, "message": str(exc)}}


_NUMERICAL_ERRORS = (VanVleckError, ValueError, ArithmeticError,
                     np.linalg.LinAlgError)


def run_factor(scenario: Scenario, full_grid: bool = False) -> dict:
    factors, path, analytic_extras = compute_factors(scenario)
    report = {
        "command": "factor",
        "config": scenario.raw,
        "factors": {name: f.as_dict() for name, f in factors.items()},
        "pairwise_deviations": pairwise_deviations(factors),
        "path": path_to_dict(path, full_grid) if path is not None else None,
    }
    if analytic_extras is not None:
        report["analytic"] = analytic_extras
    return report


def cmd_factor(cfg: dict, out_path: Optional[str], full_grid: bool) -> int:
    scenario = parse_scenario(cfg)
    out_path = _writable(out_path or scenario.output)
    try:
        text = dumps_canonical(run_factor(scenario, full_grid))
    except _NUMERICAL_ERRORS as exc:
        _emit(dumps_canonical(_error_report("factor", scenario.raw, exc)),
              out_path)
        return 2
    _emit(text, out_path)
    return 0


# ---------------------------------------------------------------------------
# verify


_VERIFY_KEYS = {"t_mid", "thresholds"}


def cmd_verify(cfg: dict, out_path: Optional[str]) -> int:
    scenario = parse_scenario(cfg, require_methods=False,
                              extra_keys=_VERIFY_KEYS)
    if "t_mid" not in cfg:
        raise ConfigError("missing key 't_mid' in config")
    t_mid_values = cfg["t_mid"]
    if isinstance(t_mid_values, (int, float)):
        t_mid_values = [t_mid_values]
    if not isinstance(t_mid_values, list) or not t_mid_values:
        raise ConfigError("t_mid must be a number or a nonempty list")
    if len(t_mid_values) > MAX_SPLITS:
        raise ConfigError(f"t_mid may list at most {MAX_SPLITS} split times")
    for t_mid in t_mid_values:
        if not _is_number(t_mid):
            raise ConfigError("t_mid entries must be numbers")
        if not scenario.t_a < t_mid < scenario.t_b:
            raise ConfigError(
                f"t_mid={t_mid} must lie strictly between t_a and t_b")
    thresholds_cfg = cfg.get("thresholds", {})
    _check_keys(thresholds_cfg, {"factor", "momentum"}, "thresholds")
    factor_tol = _scalar(thresholds_cfg, "factor", "thresholds", default=1e-6)
    momentum_tol = _scalar(thresholds_cfg, "momentum", "thresholds",
                           default=1e-8)
    for key, value in (("factor", factor_tol), ("momentum", momentum_tol)):
        if not value > 0.0:
            raise ConfigError(f"thresholds.{key} must be positive")
    out_path = _writable(out_path or scenario.output)

    reports = []
    try:
        full = _solve_scenario_path(scenario)
        for t_mid in t_mid_values:
            rep = verify_composition(full, float(t_mid), tol=factor_tol,
                                     momentum_tol=momentum_tol)
            reports.append(asdict(rep) | {"passed": rep.passed})
        all_passed = all(rep["passed"] for rep in reports)
        text = dumps_canonical({
            "command": "verify",
            "config": scenario.raw,
            "reports": reports,
            "all_passed": all_passed,
        })
    except _NUMERICAL_ERRORS as exc:
        _emit(dumps_canonical(_error_report("verify", scenario.raw, exc)),
              out_path)
        return 2
    _emit(text, out_path)
    return 0 if all_passed else 2


# ---------------------------------------------------------------------------
# sweep


_SWEEP_PARAM_KEYS = {"name", "start", "stop", "count"}


def _parse_sweep_block(cfg: dict, scenario: Scenario) -> list:
    _check_keys(cfg, {"parameters"}, "sweep")
    parameters = cfg.get("parameters")
    if not isinstance(parameters, list) or not 1 <= len(parameters) <= 2:
        raise ConfigError("sweep.parameters must list one or two parameters")
    # dim, potential and stiffness take no float, and an omega2 beside a
    # stiffness builds no model, so a sweep of them fails every row
    unsweepable = {"dim", "potential", "stiffness"} | (
        {"omega2"} if "stiffness" in scenario.params else set())
    sweepable = {"T", "hbar"} | {
        f"model.{p}" for p in BUILTIN_TAGS[scenario.tag]["params"]
        if p not in unsweepable}
    blocks = []
    rows = 1
    for block in parameters:
        _check_keys(block, _SWEEP_PARAM_KEYS, "sweep parameter")
        name = block.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigError("sweep parameter needs a name")
        if name not in sweepable:
            raise ConfigError(
                f"cannot sweep {name!r}; use one of {sorted(sweepable)}")
        if any(name == seen for seen, _, _, _ in blocks):
            raise ConfigError(f"sweep parameter {name!r} is named twice")
        start = _scalar(block, "start", "sweep parameter")
        stop = _scalar(block, "stop", "sweep parameter")
        count = block.get("count")
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ConfigError("sweep parameter count must be a positive integer")
        rows *= count
        if rows > MAX_SWEEP_ROWS:
            raise ConfigError(
                f"a sweep may have at most {MAX_SWEEP_ROWS} rows, the "
                "product of its parameter counts")
        blocks.append((name, start, stop, count))
    return [(name, np.linspace(start, stop, count))
            for name, start, stop, count in blocks]


def _apply_overrides(cfg: dict, overrides) -> dict:
    patched = copy.deepcopy(cfg)
    for name, value in overrides:
        if name == "T":
            patched["t_b"] = patched.get("t_a", 0.0) + value
        elif name == "hbar":
            patched["hbar"] = value
        else:
            patched.setdefault("model", {}).setdefault("params", {})[
                name[len("model."):]] = value
    return patched


def _sweep_row(cfg: dict, overrides) -> dict:
    row = {name: value for name, value in overrides}
    try:
        scenario = parse_scenario(_apply_overrides(cfg, overrides))
        factors, path, _ = compute_factors(scenario)
        # inside the guard: the path computes its action on first read
        action = path.action if path is not None else None
    except (ConfigError,) + _NUMERICAL_ERRORS as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    for name, factor in factors.items():
        row[f"{name}_magnitude"] = factor.magnitude
        row[f"{name}_phase"] = factor.phase
    deviations = pairwise_deviations(factors)
    row["max_deviation"] = max(deviations.values()) if deviations else 0.0
    row["action"] = action
    row["error"] = ""
    return row


def cmd_sweep(cfg: dict, out_path: Optional[str]) -> int:
    if "sweep" not in cfg:
        raise ConfigError("missing key 'sweep' in config")
    base = copy.deepcopy(cfg)
    base.pop("sweep")
    scenario = parse_scenario(base)  # validate before running
    sweep_params = _parse_sweep_block(cfg["sweep"], scenario)
    out_path = _writable(out_path or scenario.output)

    names = [name for name, _ in sweep_params]
    grids = [grid for _, grid in sweep_params]
    rows = [_sweep_row(base, list(zip(names, map(float, values))))
            for values in itertools.product(*grids)]

    method_columns = []
    for method in sorted(scenario.methods):
        method_columns += [f"{method}_magnitude", f"{method}_phase"]
    header = names + method_columns + ["max_deviation", "action", "error"]
    # csv writes a Python float as its shortest round-trip repr and None
    # as an empty cell, and quotes a cell that holds a comma
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        cells = [row.get(column, "") for column in header]
        writer.writerow([float(c) if isinstance(c, float) else c
                         for c in cells])
    _emit(text.getvalue(), out_path)
    return 0


# ---------------------------------------------------------------------------
# models


def cmd_models(out_path: Optional[str]) -> int:
    out_path = _writable(out_path)
    report = {"builtins": {
        tag: {"params": dict(entry["params"])}
        for tag, entry in BUILTIN_TAGS.items()
    }}
    _emit(dumps_canonical(report), out_path)
    return 0


# ---------------------------------------------------------------------------
# entry point


def _reject_constant(name: str):
    raise ConfigError(f"config contains the non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError(f"config number {text} overflows a double")
    return value


def _bounded_int(text: str) -> int:
    # a double holds integers up to about 1.8e308, i.e. 309 digits
    if len(text.lstrip("-")) > 308:
        raise ConfigError(
            f"config integer with {len(text)} characters overflows a double")
    return int(text)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cfg = json.load(handle, parse_constant=_reject_constant,
                            parse_float=_finite_float, parse_int=_bounded_int)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:   # ValueError: a NUL byte, not UTF-8
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path!r} nests too deeply: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that raises ConfigError where it would print usage and
    exit 2; subparsers inherit the class, ``--help`` still exits 0."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _parser() -> _ArgumentParser:
    """The command-line parser, built on the first ``main`` call and reused;
    each ``parse_args`` returns a fresh namespace."""
    parser = _ArgumentParser(
        prog="vanvleck",
        description="Semiclassical fluctuation factors from JSON scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="compute fluctuation factors")
    p_factor.add_argument("--config", required=True)
    p_factor.add_argument("--out", default=None)
    p_factor.add_argument("--full-grid", action="store_true",
                          help="serialize every trajectory sample")

    p_verify = sub.add_parser("verify", help="check the splitting identity")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="tabulate factors over a grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)

    p_models = sub.add_parser("models", help="list builtin model tags")
    p_models.add_argument("--out", default=None)
    return parser


# An overflow gives inf, and inf - inf or 0 * inf gives NaN downstream;
# neither warns, so the run ends in a typed error (NoConvergence, a
# NonFiniteResult from the report, ...): exit 2 with nothing on stderr,
# whether or not warnings are errors.
@np.errstate(over="ignore", invalid="ignore")
def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "factor":
            return cmd_factor(_load_config(args.config), args.out,
                              args.full_grid)
        if args.command == "verify":
            return cmd_verify(_load_config(args.config), args.out)
        if args.command == "sweep":
            return cmd_sweep(_load_config(args.config), args.out)
        return cmd_models(args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
