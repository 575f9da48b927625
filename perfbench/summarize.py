"""Pure helpers of the benchmark: interval maths, span self time, percentiles
and failure counting.

A span is ``(name, start, end, parent)`` where ``parent`` is the index of the
enclosing span in the same list, or ``None`` for a root span.  Nothing here
imports the program under test, so the helpers are unit-tested on their own
(``test_summarize.py``).
"""

from __future__ import annotations

import math
from collections import defaultdict

#: Loss a trial scores when its evaluation fails (mirrors
#: ``repro.core.exploration.FAILED_TRIAL_LOSS``; kept literal so this module
#: stays free of program imports).
FAILED_TRIAL_LOSS = 1e18

#: Percentiles tried, highest first, when choosing a reportable tail.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps counted once."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def clipped(intervals, lo: float, hi: float) -> list:
    """``intervals`` restricted to ``[lo, hi]`` (empty pieces dropped)."""
    out = []
    for a, b in intervals:
        a, b = max(a, lo), min(b, hi)
        if b > a:
            out.append((a, b))
    return out


def children_of(spans) -> dict:
    """``parent index -> [child index, ...]``."""
    kids = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            kids[span[3]].append(i)
    return kids


def self_times(spans) -> list:
    """Per span: its duration minus the union of its children's intervals.

    Children that overlap each other (concurrent work under one parent) are
    subtracted once; a child that sticks out of its parent only counts for
    the part inside it.
    """
    kids = children_of(spans)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        inner = clipped([(spans[k][1], spans[k][2]) for k in kids.get(i, ())], start, end)
        out.append((end - start) - union_length(inner))
    return out


def by_name(spans) -> dict:
    """``name -> {"total", "self", "calls"}`` over every span of that name.

    ``total`` is the union of the name's intervals, so a re-entrant call
    (a span nested inside a span of the same name) is not counted twice.
    ``self`` sums the spans' self times.
    """
    selfs = self_times(spans)
    groups = defaultdict(list)
    for i, span in enumerate(spans):
        groups[span[0]].append(i)
    out = {}
    for name, idx in groups.items():
        out[name] = {
            "total": union_length([(spans[i][1], spans[i][2]) for i in idx]),
            "self": sum(selfs[i] for i in idx),
            "calls": len(idx),
        }
    return out


def unattributed_shares(spans) -> dict:
    """``name -> self / total`` for every span name that has child spans.

    This is the part of a wrapped parent that no wrapped child explains.
    """
    kids = children_of(spans)
    parents = {spans[i][0] for i in kids}
    stats = by_name(spans)
    return {
        name: (stats[name]["self"] / stats[name]["total"]) if stats[name]["total"] > 0 else 0.0
        for name in sorted(parents)
    }


def coverage(spans, lo: float, hi: float) -> float:
    """Share of the window ``[lo, hi]`` that root spans cover."""
    if hi <= lo:
        return 0.0
    roots = [(s[1], s[2]) for s in spans if s[3] is None]
    return union_length(clipped(roots, lo, hi)) / (hi - lo)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile out of range: {p}")
    rank = max(1, math.ceil(p / 100.0 * len(data)))
    return data[rank - 1]


def median(values) -> float:
    """Median (mean of the two middle values for an even count)."""
    data = sorted(values)
    if not data:
        raise ValueError("median of no values")
    mid = len(data) // 2
    if len(data) % 2:
        return float(data[mid])
    return (data[mid - 1] + data[mid]) / 2.0


def tail_percentile(n: int) -> float | None:
    """Highest of :data:`TAIL_PERCENTILES` with at least ten samples beyond it.

    ``None`` when ``n`` samples support none of them (fewer than 20).
    """
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            return p
    return None


def run_failed(outcome: dict) -> bool:
    """Whether one repetition failed: it raised, or its verify report had an
    error, or one of its own output checks failed."""
    return bool(
        outcome.get("error")
        or outcome.get("verify_errors", 0)
        or outcome.get("check_failures")
    )


def count_failures(outcomes) -> tuple:
    """``(attempted, failed)`` over repetition outcomes.

    A repetition that evaluated trials contributes one attempt per trial and
    one failure per trial that scored :data:`FAILED_TRIAL_LOSS`; if the
    repetition itself failed, all of its attempts count as failed.  A
    repetition without trials is one attempt.
    """
    attempted = failed = 0
    for outcome in outcomes:
        losses = outcome.get("trial_losses")
        n = len(losses) if losses else 1
        bad = sum(1 for loss in losses if not loss < FAILED_TRIAL_LOSS) if losses else 0
        if run_failed(outcome):
            bad = n
        attempted += n
        failed += bad
    return attempted, failed
