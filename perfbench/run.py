"""Benchmark of vanvleck: one workload, one seed, one run.

    python3 perfbench/run.py --workload factor --seed 1 --seconds 28 --trace 0

Run it from anywhere; it measures the checkout it sits in, importing the
package from ``src/`` of that checkout (it exits nonzero without
printing a result when there is none).  Everything runs in this one
process, except the fresh interpreters that time the import.

``--trace 0`` prints every end-to-end metric: it times the import, runs a
warm-up item, then runs seeded items in a closed loop for ``--seconds``,
and at least one item of every stratum, gating every output.
``--trace 1`` prints every per-layer metric: it runs a fixed list of
items once untraced and once traced, so the counts repeat exactly on a
seed, and the difference of the two times is the tracing overhead.

Every end-to-end time, and the tracing overhead, is a wall time brought
to a fixed reference speed by the probe in speed.py, which samples the
CPU's speed while the item or import runs; the raw wall times are in the
detail line.  Span times of the traced run are raw wall times, which include
the probe's own share of about 1%.

End-to-end metrics (``--trace 0``):

    setup_s           median time to import vanvleck (and vanvleck.cli for
                      the CLI workloads) in a fresh interpreter, of
                      SETUP_REPEATS interpreters
    items_per_s       items completed per second in the timed pass, at an
                      equal mix of strata: one over the mean over strata
                      of each stratum's mean item time
    item_s_p50        median item time within each stratum, averaged
    ok_frac           share of gated items that passed, warm-up included
    accuracy_digits   -log10 of each item's error against an exact reference,
                      capped at 16, averaged within each stratum and then
                      over strata
    agreement_digits  the same for the deviation between computed routes
    peak_rss_mb       peak resident memory of this process

Per-layer metrics (``--trace 1``) are listed, with the end-to-end metric
each should move, in ``LAYER_MOVES`` of tracing.py.  Units come from
BENCHMARK.json at the root of the checkout.

The last line of standard output is the result (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it records the
run's conditions, sample counts, notes and failures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
if __name__ == "__main__":
    # single-threaded BLAS, set before numpy is first imported
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

from measure import digits, stratified, timing_summary  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import LAYER_MOVES, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("factor", "verify", "polar")
SETUP_REPEATS = 5
WARMUP_INDEX = 1_000_000


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_import_seconds(imports: str):
    """Time of ``import <imports>`` in a fresh interpreter.

    Returns (time at the reference speed, raw wall time); the probe runs
    in that interpreter, next to the import it times.
    """
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            "from speed import SpeedProbe; probe = SpeedProbe()\n"
            f"with probe: import {imports}\n"
            "print(probe.seconds(), probe.wall)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    scaled, wall = done.stdout.split()[-2:]
    return float(scaled), float(wall)


def _environment() -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            **{var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def _timed_item(workload, item, ctx):
    """Run one gated item.

    Returns (result, failure, probe); the result is (accuracy,
    agreement, report bytes), or None when the item failed.
    """
    with SpeedProbe() as probe, ctx.span("item"):
        try:
            result, failure = workload.run(item, ctx), None
        except Exception as exc:  # every item is gated; a failure is counted
            result, failure = None, f"{type(exc).__name__}: {exc}"
    return result, failure, probe


def _pass(workload, items, ctx):
    """Items one after another: their results, failures, item times at
    the reference speed and raw wall times."""
    results, failures, times, walls = [], [], [], []
    for item in items:
        result, failure, probe = _timed_item(workload, item, ctx)
        results.append(result)
        if failure is not None:
            failures.append(failure)
        times.append(probe.seconds())
        walls.append(probe.wall)
    return results, failures, times, walls


def _closed_loop(workload, seed: int, start: float, seconds: float):
    """Items 0, 1, ... until ``seconds`` have passed and every stratum ran."""
    index = 0
    while index < workload.cycle or time.perf_counter() - start < seconds:
        yield workload.make(seed, index)
        index += 1


def _error_digits(strata, errors) -> float:
    pairs = [(s, digits(e)) for s, e in zip(strata, errors) if e is not None]
    return stratified(pairs, statistics.fmean) if pairs else 0.0


def untraced_run(workload, seed: int, seconds: float, ctx):
    setup, setup_walls = zip(*(fresh_import_seconds(workload.imports)
                               for _ in range(SETUP_REPEATS)))
    _, failures, _, _ = _pass(workload, [workload.make(seed, WARMUP_INDEX)], ctx)

    start = time.perf_counter()
    results, timed_failures, times, walls = _pass(
        workload, _closed_loop(workload, seed, start, seconds), ctx)
    elapsed = time.perf_counter() - start
    failures += timed_failures

    attempted = len(times) + 1
    strata = [i % workload.cycle for i in range(len(results))]
    done = [r or (None, None, 0) for r in results]
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": 1.0 / stratified(zip(strata, times), statistics.fmean),
        "item_s_p50": stratified(zip(strata, times)),
        "ok_frac": (attempted - len(failures)) / attempted,
        "accuracy_digits": _error_digits(strata, (r[0] for r in done)),
        "agreement_digits": _error_digits(strata, (r[1] for r in done)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"items": len(times), "elapsed_s": elapsed,
              "item_s": timing_summary(times),
              "item_wall_s": timing_summary(walls),
              "setup_s_samples": setup, "setup_wall_s_samples": setup_walls}
    return metrics, attempted, failures, detail


def traced_run(workload, seed: int, ctx):
    n_items = workload.cycle    # one item of every stratum
    items = [workload.make(seed, i) for i in range(n_items)]
    _, failures, _, _ = _pass(workload, [workload.make(seed, WARMUP_INDEX)], ctx)
    _, plain_failures, times, _ = _pass(workload, items, ctx)
    plain = sum(times)

    ctx.tracer = Tracer()
    ctx.tracer.install({name: module for name, module in sys.modules.items()
                        if name == "vanvleck" or name.startswith("vanvleck.")})
    results, traced_failures, times, _ = _pass(workload, items, ctx)
    tracer, ctx.tracer = ctx.tracer, None
    traced = sum(times)

    done = [r for r in results if r is not None]
    extra = {"cli.report_bytes": sum(r[2] for r in done) / max(1, len(done)),
             "trace.overhead_s": (traced - plain) / n_items,
             "trace.overhead_frac": (traced - plain) / plain}
    metrics = tracer.layer_metrics(n_items, extra)
    failures += plain_failures + traced_failures
    detail = {"items": n_items, "untraced_s": plain, "traced_s": traced,
              "spans": len(tracer.spans),
              "notes": tracer.notes, "absent": tracer.absent,
              "moves": LAYER_MOVES}
    return metrics, 2 * n_items + 1, failures, detail


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "vanvleck" / "__init__.py").is_file():
        print(f"no vanvleck package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vanvleck
    if Path(vanvleck.__file__).resolve().parent != SRC / "vanvleck":
        print(f"imported vanvleck from {vanvleck.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Context

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    ctx = Context(tempfile.mkdtemp(dir=scratch))
    try:
        if args.trace:
            metrics, attempted, failures, detail = traced_run(
                workload, args.seed, ctx)
        else:
            metrics, attempted, failures, detail = untraced_run(
                workload, args.seed, args.seconds, ctx)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass   # another run still uses it
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=_environment(), failures=failures[:10])
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
