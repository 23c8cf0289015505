"""Arithmetic the benchmark reports with: digits, self time, percentiles.

Kept free of numpy and of the vanvleck package so the tests of the
benchmark's own arithmetic run without either.
"""

from __future__ import annotations

import math
import statistics

DIGITS_CAP = 16.0
# A tail percentile is reported only when at least this many samples lie
# beyond it; otherwise one outlier would be the whole estimate.
MIN_TAIL_SAMPLES = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def digits(rel_error: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP (0 counts as exact)."""
    if math.isnan(rel_error):
        raise ValueError("relative error is NaN")
    if rel_error <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return -math.log10(rel_error)


def stratified(pairs, statistic=statistics.median) -> float:
    """Mean over strata of ``statistic`` of each stratum's values.

    The plain median of a mix of item kinds whose costs differ sits on
    the edge between two kinds and jumps between them from run to run,
    and the plain mean moves with how many items of each kind a run
    happened to reach; a statistic inside each kind, averaged over the
    kinds, does neither.  Errors are averaged as digits, not taken as the
    worst item's: inside one kind the error of a single item can range
    over three orders of magnitude from draw to draw (it depends on where
    Newton stopped below its tolerance), so with two or three items of a
    kind in a run the worst one jumps by digits from seed to seed.
    """
    groups = {}
    for stratum, value in pairs:
        groups.setdefault(stratum, []).append(value)
    return statistics.fmean(statistic(v) for v in groups.values())


def covered_length(interval, children) -> float:
    """Length of the part of ``interval`` covered by the ``children``.

    Both are (start, end) pairs; children are clipped to the interval and
    overlapping children are counted once.
    """
    lo, hi = interval
    clipped = sorted((max(lo, s), min(hi, e)) for s, e in children
                     if min(hi, e) > max(lo, s))
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is a sequence of (start, end, parent_index) triples, where
    parent_index is None for a root.  Returns one value per span.
    """
    children = [[] for _ in spans]
    for start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [(end - start) - covered_length((start, end), children[i])
            for i, (start, end, _) in enumerate(spans)]


def tail_percentile(n_samples: int):
    """Highest percentile with at least MIN_TAIL_SAMPLES samples beyond it.

    Returns None when even the median has fewer than that many above it.
    """
    for p in TAIL_PERCENTILES:
        if n_samples * (100.0 - p) / 100.0 >= MIN_TAIL_SAMPLES:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a nonempty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def timing_summary(values) -> dict:
    """Median, the tail percentile the sample count supports, and the count."""
    out = {"p50": statistics.median(values), "samples": len(values)}
    tail = tail_percentile(len(values))
    if tail is not None and tail > 50.0:
        out[f"p{tail:g}"] = percentile(values, tail)
    return out


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
