"""Arithmetic of the qborrow benchmark: percentiles, spreads, span self
time, failure ratio and the parent-vs-change comparison rule.

Kept free of I/O so perfbench/test_benchstats.py can check every rule.
"""

import math
import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values):
    """Interquartile distance as a share of the median (0 for one value
    or a zero median)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def _rank(count, pct):
    """1-based nearest rank of the pct-th percentile among `count`
    samples (rounded first, so 99.9 % of 10000 is rank 9990)."""
    return max(1, math.ceil(round(pct / 100.0 * count, 9)))


def nearest_rank(values, pct):
    """The pct-th percentile by the nearest-rank rule: the smallest
    sample with at least pct % of the samples at or below it."""
    return sorted(values)[_rank(len(values), pct) - 1]


def beyond(count, pct):
    """Samples strictly above the nearest-rank pct-th percentile."""
    return count - _rank(count, pct)


def supported_percentile(count, candidates=(50, 90, 99, 99.9), need=10):
    """The highest candidate percentile with at least `need` samples
    beyond it, or None when even the lowest has fewer."""
    best = None
    for pct in candidates:
        if beyond(count, pct) >= need:
            best = pct
    return best


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Per span name: (total duration, self time), where a span's self
    time is its duration minus the union of its children's intervals
    (children may overlap, e.g. on worker threads)."""
    children = {}
    for span in spans:
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    out = {}
    for index, span in enumerate(spans):
        duration = span["end"] - span["start"]
        own = duration - _covered(children.get(index, []), span["start"],
                                  span["end"])
        total, self_total = out.get(span["name"], (0.0, 0.0))
        out[span["name"]] = (total + duration, self_total + own)
    return out


def fail_ratio(attempted, wrong=0, unknown=0, errors=0, refused=0):
    """(wrong verdicts + Unknown + error frames + refusals) / attempted;
    a refused request counts as failed like any other."""
    if attempted <= 0:
        raise ValueError("nothing attempted")
    return (wrong + unknown + errors + refused) / attempted


def pair_wins(parent, change, better):
    """Count (change wins, parent wins, ties) over paired runs; equal
    values count for neither side."""
    if len(parent) != len(change):
        raise ValueError("pairs need equal counts")
    sign = -1 if better == "lower" else 1
    change_wins = parent_wins = ties = 0
    for p, c in zip(parent, change):
        diff = sign * (c - p)
        if diff > 0:
            change_wins += 1
        elif diff < 0:
            parent_wins += 1
        else:
            ties += 1
    return change_wins, parent_wins, ties


def compare_metric(parent, change, better, bound):
    """Judge one metric of one workload, parent vs change runs.

    Returns a dict with medians, quartiles, pair wins and a status:
    "regression" when the change's median is worse by more than the
    bound; "unresolved" when the parent's own spread exceeds the bound
    (unless every change run beats every parent run); "gain" when the
    change wins at least nine tenths of the pairs and the medians
    differ by more than the parent's interquartile distance; else
    "no change"."""
    pq = quartiles(parent)
    cq = quartiles(change)
    sign = -1 if better == "lower" else 1
    worse_by = -sign * (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
    pairs = min(len(parent), len(change))
    wins = pair_wins(parent[:pairs], change[:pairs], better)
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if worse_by > bound:
        status = "regression"
    elif spread(parent) > bound and not all_better:
        status = "unresolved"
    elif (pairs and wins[0] >= 0.9 * pairs and
          abs(cq[1] - pq[1]) > pq[2] - pq[0]):
        status = "gain"
    else:
        status = "no change"
    return {
        "parent": pq,
        "change": cq,
        "worse_by": worse_by,
        "pairs": pairs,
        "change_wins": wins[0],
        "parent_wins": wins[1],
        "ties": wins[2],
        "status": status,
    }
