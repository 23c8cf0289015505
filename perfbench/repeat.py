"""Run the benchmark over seeds and report each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10
    python3 perfbench/repeat.py --workload verify --seeds 1-5 --trace 1

Runs ``run.py`` once per workload and seed, one run at a time, and prints
every run's metrics with their units.  Then, per workload and metric, it
prints the median and the interquartile distance as a share of the
median next to the metric's bound in BENCHMARK.json: a change to the
program is judged against that bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import relative_spread

HERE = Path(__file__).resolve().parent


def _seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=900)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for workload in args.workload:
        values = {}
        for seed in _seeds(args.seeds):
            result = _run(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} items failed", file=sys.stderr)
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={entry['value']:.4g} {entry['unit']}"
                for name, entry in result["metrics"].items()), flush=True)
        for name, series in values.items():
            median = statistics.median(series)
            spread = relative_spread(series) if len(series) > 2 and median else 0.0
            bound = bounds.get(name)
            versus = "" if bound is None else f" bound {bound} ({spread / bound:.2f} of it)"
            print(f"{workload} {name}: median {median:.6g} spread {spread:.4f}{versus}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
