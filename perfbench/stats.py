"""Percentile and span arithmetic for the benchmark (tested in test_stats.py).

Percentiles are exact nearest-rank values over the raw samples, never
histogram bucket edges. A percentile is *supported* only when at least
MIN_BEYOND samples lie beyond it; unsupported ones are flagged, not
reported as plain numbers. A run's samples may come in segments
(contiguous stretches of the run); the reported value is then the median
of the per-segment percentiles.

A span's self time is its duration minus the part of its interval that
its child spans cover (overlapping children are counted once).
"""

import math
import statistics

MIN_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank q-quantile (0 < q <= 1) of `samples`.

    Returns a dict with the value, the sample count `n`, the number of
    samples ranked beyond the percentile, and whether it is supported.
    An empty sample set gives value 0.0, unsupported.
    """
    if not 0 < q <= 1:
        raise ValueError("q must be in (0, 1]")
    n = len(samples)
    if n == 0:
        return {"value": 0.0, "n": 0, "beyond": 0, "supported": False}
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    return {
        "value": ordered[rank - 1],
        "n": n,
        "beyond": beyond,
        "supported": beyond >= MIN_BEYOND,
    }


def segmented_percentile(segments, q):
    """The median over segments of each segment's q-quantile.

    Supported only when every segment's percentile is supported; `n` is
    the total sample count and `beyond` the smallest per-segment count
    beyond the percentile.
    """
    parts = [percentile(seg, q) for seg in segments if seg]
    if not parts:
        return {"value": 0.0, "n": 0, "beyond": 0, "segments": 0,
                "supported": False}
    return {
        "value": statistics.median(p["value"] for p in parts),
        "n": sum(p["n"] for p in parts),
        "beyond": min(p["beyond"] for p in parts),
        "segments": len(parts),
        "supported": all(p["supported"] for p in parts),
    }


def mean(values):
    return statistics.fmean(values) if values else 0.0


def covered_ns(start, end, intervals):
    """Length of the union of `intervals` clipped to [start, end]."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total = 0
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


def load_spans(path):
    """Reads spans.tsv: id, parent, name, request, start_ns, end_ns."""
    spans = []
    with open(path) as f:
        for line in f:
            sid, parent, name, request, start, end = line.rstrip("\n").split("\t")
            spans.append((int(sid), int(parent), name, int(request),
                          int(start), int(end)))
    return spans


def span_totals(spans):
    """Per span name: {"count", "dur_ns", "self_ns"} summed over spans."""
    children = {}
    for sid, parent, _, _, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals = {}
    for sid, _, name, _, start, end in spans:
        dur = end - start
        self_ns = dur - covered_ns(start, end, children.get(sid, []))
        t = totals.setdefault(name, {"count": 0, "dur_ns": 0, "self_ns": 0})
        t["count"] += 1
        t["dur_ns"] += dur
        t["self_ns"] += self_ns
    return totals
