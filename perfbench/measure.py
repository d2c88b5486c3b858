"""Arithmetic shared by run.py, the server hook and the tests.

Nothing here imports ``repro``: the hook loads this module inside server
processes, and the tests exercise it on synthetic data.
"""

from __future__ import annotations

import math


def percentile(values, q):
    """The ``q``-th percentile of ``values`` plus the sample count.

    Interpolates linearly between the two nearest order statistics
    (``statistics.quantiles``' inclusive method), which moves less from
    run to run than a nearest-rank pick.  Returns ``(value, samples,
    beyond)``: ``beyond`` is how many samples lie above the percentile,
    so a caller can tell whether a p95 rests on enough tail samples (ten
    or more) to mean anything.  ``value`` is ``None`` without samples.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return None, 0, 0
    position = (count - 1) * q / 100.0
    low = int(math.floor(position))
    high = min(low + 1, count - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    return value, count, sum(1 for sample in ordered if sample > value)


def covered_length(intervals, lo, hi):
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans):
    """Per-span self time: duration minus the interval its children cover.

    ``spans`` is a sequence of ``(span_id, parent_id, layer, start, end)``
    tuples.  Children may overlap each other (a parent that waited on two
    concurrent calls); the union of their intervals, clipped to the
    parent's, is what the parent did not spend itself.  Returns a list of
    ``(layer, self_seconds)`` in input order.
    """
    children = {}
    for span_id, parent_id, _layer, start, end in spans:
        if parent_id is not None:
            children.setdefault(parent_id, []).append((start, end))
    result = []
    for span_id, _parent_id, layer, start, end in spans:
        covered = covered_length(children.get(span_id, ()), start, end)
        result.append((layer, max(0.0, (end - start) - covered)))
    return result

