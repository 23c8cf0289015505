"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files: ``install`` replaces
each traced public function of vanvleck by a wrapper at every use site
(every module attribute that is the function, since modules bind names
with ``from .x import y``), and wraps the callbacks of every model the
public constructors return.  A name that a later version of vanvleck no
longer has is skipped, and the metrics it feeds are reported as absent
with a note instead of failing the run.

RK4 stages are counted at the model-callback boundary, so they survive
refactors of the integrator: every stage calls ``potential_grad`` once,
and every variational stage calls ``potential_hess`` once.  A callback is
attributed to the innermost open span.  A variational run starts
whenever the time passed to ``potential_hess`` goes back within a span
(by more than roundoff).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time

from measure import self_times

# (module, attribute, span name) of each function timed as a span.
SPAN_TARGETS = (
    ("vanvleck.dynamics", "solve_bvp", "dynamics.solve_bvp"),
    ("vanvleck.hessian", "action_hessian_jacobi", "hessian.jacobi"),
    ("vanvleck.hessian", "frequency_matrix_along_path", "hessian.frequency_matrix"),
    ("vanvleck.fluctuation", "energy_hessian_factor", "fluctuation.energy_hessian"),
    ("vanvleck.fluctuation", "general_factor", "fluctuation.general"),
    ("vanvleck.gelfand_yaglom", "solve_B_direct", "gelfand_yaglom.direct"),
    ("vanvleck.gelfand_yaglom", "solve_B_neumann", "gelfand_yaglom.neumann"),
    ("vanvleck.gelfand_yaglom", "solve_B_time_ordered", "gelfand_yaglom.time_ordered"),
    ("vanvleck.composition", "verify_composition", "composition.split"),
    ("vanvleck.analytic", "free_particle_factor", "analytic"),
    ("vanvleck.analytic", "harmonic_constant_factor", "analytic"),
    ("vanvleck.analytic", "magnetic_factor", "analytic"),
    ("vanvleck.analytic", "one_dim_dalembert_factor", "analytic"),
    ("vanvleck.cli", "_load_config", "cli.parse"),
    ("vanvleck.cli", "parse_scenario", "cli.parse"),
    ("vanvleck.cli", "dumps_canonical", "cli.report"),
    ("vanvleck.cli", "format_float", "cli.report"),
    ("vanvleck.cli", "_emit", "cli.report"),
)
# Functions only counted: (module, attribute, counter).
COUNT_TARGETS = (("vanvleck.gelfand_yaglom", "expm", "expm_calls"),)
# Public model constructors whose models get instrumented callbacks.
CONSTRUCTORS = tuple(("vanvleck.models", name) for name in (
    "free_particle", "harmonic_oscillator", "magnetic_field",
    "one_dim_potential", "builtin_model"))

# Spans whose first argument is the Jacobi frequency callable.
OMEGA2_SPANS = frozenset(name for _, _, name in SPAN_TARGETS
                         if name.startswith("gelfand_yaglom."))
# potential_hess calls inside these spans evaluate Omega^2, not RK4 stages.
NON_STAGE_SPANS = OMEGA2_SPANS | {"hessian.frequency_matrix"}
# Stage times never go back within one RK4 run, except by the roundoff
# between t_k + h and the next grid time.
RUN_RESTART_TOL = 1e-9

# Which end-to-end metric each per-layer metric should move, and where;
# units and directions are in BENCHMARK.json.
LAYER_MOVES = {
    "dynamics.rk4_stages": "items_per_s on factor and verify",
    "dynamics.variational_stages": "items_per_s on factor and verify",
    "dynamics.stage_us": "items_per_s on factor and verify (80-120 us/stage traced); not on polar (about 200, FD metric branch)",
    "dynamics.bvp_solves": "items_per_s everywhere, most on verify",
    "dynamics.newton_iters": "items_per_s everywhere, most on verify",
    "dynamics.flow_runs": "items_per_s everywhere, most on verify",
    "dynamics.self_s": "items_per_s everywhere, most on verify",
    "hessian.jacobi_calls": "items_per_s on verify (3 per split)",
    "hessian.jacobi_s": "items_per_s on verify",
    "fluctuation.energy_hessian_s": "items_per_s on factor only",
    "fluctuation.stencil_bvp_solves": "items_per_s on factor only",
    "fluctuation.general_s": "items_per_s on factor only",
    "gelfand_yaglom.direct_s": "item_s_p50, items_per_s on factor only",
    "gelfand_yaglom.neumann_s": "item_s_p50, items_per_s on factor only",
    "gelfand_yaglom.time_ordered_s": "item_s_p50, items_per_s on factor only",
    "gelfand_yaglom.omega2_evals": "item_s_p50, items_per_s on factor only",
    "gelfand_yaglom.expm_calls": "item_s_p50, items_per_s on factor only",
    "composition.split_s": "items_per_s on verify only",
    "composition.bvp_solves_per_split": "items_per_s on verify only",
    "composition.jacobi_per_split": "items_per_s on verify only",
    "models.callback_calls": "items_per_s on verify most, factor via time-dependent omega2",
    "models.callback_s": "items_per_s on verify most, factor via time-dependent omega2",
    "analytic.s": "nothing: closed forms stay negligible",
    "cli.parse_s": "item_s_p50 on factor; not on polar",
    "cli.report_s": "item_s_p50 on factor; not on polar",
    "cli.report_bytes": "item_s_p50 on factor; not on polar",
    "cli.self_s": "item_s_p50 on factor; not on polar",
    "trace.overhead_s": "nothing: traced minus untraced wall time",
    "trace.overhead_frac": "nothing: overhead over untraced wall time",
}

# Metrics that need a traced name; absent when none of the names exists.
_MODEL_SOURCES = tuple(f"{m}.{a}" for m, a in CONSTRUCTORS)
METRIC_SOURCES = {
    **{name: _MODEL_SOURCES for name in (
        "dynamics.rk4_stages", "dynamics.variational_stages",
        "dynamics.stage_us", "dynamics.flow_runs", "models.callback_calls",
        "models.callback_s")},
    "dynamics.bvp_solves": ("vanvleck.dynamics.solve_bvp",),
    "dynamics.newton_iters": ("vanvleck.dynamics.solve_bvp",),
    "dynamics.self_s": ("vanvleck.dynamics.solve_bvp",),
    "hessian.jacobi_calls": ("vanvleck.hessian.action_hessian_jacobi",),
    "hessian.jacobi_s": ("vanvleck.hessian.action_hessian_jacobi",),
    "fluctuation.energy_hessian_s": ("vanvleck.fluctuation.energy_hessian_factor",),
    "fluctuation.stencil_bvp_solves": ("vanvleck.fluctuation.energy_hessian_factor",),
    "fluctuation.general_s": ("vanvleck.fluctuation.general_factor",),
    "gelfand_yaglom.direct_s": ("vanvleck.gelfand_yaglom.solve_B_direct",),
    "gelfand_yaglom.neumann_s": ("vanvleck.gelfand_yaglom.solve_B_neumann",),
    "gelfand_yaglom.time_ordered_s": ("vanvleck.gelfand_yaglom.solve_B_time_ordered",),
    "gelfand_yaglom.omega2_evals": tuple(f"vanvleck.gelfand_yaglom.{a}" for a in (
        "solve_B_direct", "solve_B_neumann", "solve_B_time_ordered")),
    "gelfand_yaglom.expm_calls": ("vanvleck.gelfand_yaglom.expm",),
    "composition.split_s": ("vanvleck.composition.verify_composition",),
    "composition.bvp_solves_per_split": ("vanvleck.composition.verify_composition",),
    "composition.jacobi_per_split": ("vanvleck.composition.verify_composition",),
    "cli.parse_s": ("vanvleck.cli._load_config", "vanvleck.cli.parse_scenario"),
    "cli.report_s": ("vanvleck.cli.dumps_canonical", "vanvleck.cli.format_float",
                     "vanvleck.cli._emit"),
}


class Span:
    """One timed call; callbacks made while it is innermost are folded in."""

    __slots__ = ("name", "parent", "start", "end", "callback_s",
                 "callback_calls", "stages", "var_stages", "runs", "last_t")

    def __init__(self, name: str, parent, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.callback_s = 0.0
        self.callback_calls = 0
        self.stages = 0
        self.var_stages = 0
        self.runs = 0
        self.last_t = None


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counts = {"omega2_evals": 0, "expm_calls": 0}
        self.absent = {}
        self.notes = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append(Span(name, parent, self.clock()))
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        if self.stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def traced(self, name: str, fn, count_omega2: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_omega2 and args and callable(args[0]):
                args = (tracer.counted(args[0], "omega2_evals"),) + args[1:]
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return wrapper

    def counted(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- model callbacks --------------------------------------------------

    def _callback(self, name: str, fn):
        clock = self.clock
        spans = self.spans
        stack = self.stack
        is_stage = name == "potential_grad"
        is_hess = name == "potential_hess"

        def wrapper(x, t):
            start = clock()
            try:
                return fn(x, t)
            finally:
                elapsed = clock() - start
                if stack:
                    span = spans[stack[-1]]
                    span.callback_s += elapsed
                    span.callback_calls += 1
                    if is_stage:
                        span.stages += 1
                    elif is_hess and span.name not in NON_STAGE_SPANS:
                        span.var_stages += 1
                        last = span.last_t
                        if last is None or t < last - RUN_RESTART_TOL * (1.0 + abs(last)):
                            span.runs += 1
                        span.last_t = t

        wrapper.perfbench_traced = True
        return wrapper

    def instrument_model(self, model):
        """The model with every callable field wrapped; idempotent."""
        if getattr(model.potential_grad, "perfbench_traced", False):
            return model
        changes = {f.name: self._callback(f.name, getattr(model, f.name))
                   for f in dataclasses.fields(model)
                   if callable(getattr(model, f.name))}
        return dataclasses.replace(model, **changes)

    def _constructor(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.instrument_model(fn(*args, **kwargs))

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every target at every use site among ``modules``.

        ``modules`` maps module names (``vanvleck``, ``vanvleck.cli``, ...)
        to module objects.
        """
        found = set()
        targets = ([(m, a, lambda fn, n=n: self.traced(
            n, fn, count_omega2=n in OMEGA2_SPANS)) for m, a, n in SPAN_TARGETS]
            + [(m, a, lambda fn, k=k: self.counted(fn, k))
               for m, a, k in COUNT_TARGETS]
            + [(m, a, self._constructor) for m, a in CONSTRUCTORS])
        for module_name, attr, make in targets:
            original = getattr(modules.get(module_name), attr, None)
            if original is None:
                self.notes.append(f"{module_name}.{attr} not found; not traced")
                continue
            found.add(f"{module_name}.{attr}")
            wrapper = make(original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for metric, sources in METRIC_SOURCES.items():
            if not any(source in found for source in sources):
                self.absent[metric] = f"absent: {' / '.join(sources)} not found"

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self, n_items: int, extra: dict) -> dict:
        """Per-layer values per item (per split for composition).

        ``extra`` supplies the values measured outside the spans (report
        bytes and tracing overhead).
        """
        spans = self.spans
        selfs = self_times([(s.start, s.end, s.parent) for s in spans])
        selfs = [value - s.callback_s for value, s in zip(selfs, spans)]

        def ancestors(span):
            while span.parent is not None:
                span = spans[span.parent]
                yield span.name

        total = {}
        count = {}
        self_total = {}
        for span, own in zip(spans, selfs):
            count[span.name] = count.get(span.name, 0) + 1
            self_total[span.name] = self_total.get(span.name, 0.0) + own
            if span.name not in ancestors(span):
                total[span.name] = (total.get(span.name, 0.0)
                                    + span.end - span.start)

        def under(name, ancestor):
            return sum(1 for s in spans
                       if s.name == name and ancestor in ancestors(s))

        stages = sum(s.stages for s in spans)
        stage_time = sum(own + s.callback_s
                         for s, own in zip(spans, selfs) if s.stages)
        newton = sum(s.runs for s in spans if s.name == "dynamics.solve_bvp")
        splits = count.get("composition.split", 0)
        per = 1.0 / n_items
        values = {
            "dynamics.rk4_stages": stages * per,
            "dynamics.variational_stages": sum(s.var_stages for s in spans) * per,
            "dynamics.stage_us": 1e6 * stage_time / stages if stages else 0.0,
            "dynamics.bvp_solves": count.get("dynamics.solve_bvp", 0) * per,
            "dynamics.newton_iters": newton * per,
            "dynamics.flow_runs": (sum(s.runs for s in spans) - newton) * per,
            "dynamics.self_s": self_total.get("dynamics.solve_bvp", 0.0) * per,
            "hessian.jacobi_calls": count.get("hessian.jacobi", 0) * per,
            "hessian.jacobi_s": total.get("hessian.jacobi", 0.0) * per,
            "fluctuation.energy_hessian_s": total.get("fluctuation.energy_hessian", 0.0) * per,
            "fluctuation.stencil_bvp_solves": under(
                "dynamics.solve_bvp", "fluctuation.energy_hessian") * per,
            "fluctuation.general_s": total.get("fluctuation.general", 0.0) * per,
            "gelfand_yaglom.direct_s": total.get("gelfand_yaglom.direct", 0.0) * per,
            "gelfand_yaglom.neumann_s": total.get("gelfand_yaglom.neumann", 0.0) * per,
            "gelfand_yaglom.time_ordered_s": total.get("gelfand_yaglom.time_ordered", 0.0) * per,
            "gelfand_yaglom.omega2_evals": self.counts["omega2_evals"] * per,
            "gelfand_yaglom.expm_calls": self.counts["expm_calls"] * per,
            "composition.split_s": (total.get("composition.split", 0.0) / splits
                                    if splits else 0.0),
            "composition.bvp_solves_per_split": (under(
                "dynamics.solve_bvp", "composition.split") / splits if splits else 0.0),
            "composition.jacobi_per_split": (under(
                "hessian.jacobi", "composition.split") / splits if splits else 0.0),
            "models.callback_calls": sum(s.callback_calls for s in spans) * per,
            "models.callback_s": sum(s.callback_s for s in spans) * per,
            "analytic.s": total.get("analytic", 0.0) * per,
            "cli.parse_s": total.get("cli.parse", 0.0) * per,
            "cli.report_s": total.get("cli.report", 0.0) * per,
            "cli.self_s": self_total.get("cli", 0.0) * per,
        }
        values.update(extra)
        return {name: 0.0 if name in self.absent else float(values[name])
                for name in LAYER_MOVES}
