"""Tests of the benchmark's trace summarizer and recorder.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import Recorder, layer_metrics, serve_metrics  # noqa: E402
from summarize import (  # noqa: E402
    FAILED_TRIAL_LOSS,
    by_name,
    count_failures,
    coverage,
    median,
    percentile,
    self_times,
    tail_percentile,
    unattributed_shares,
    union_length,
)


def test_union_merges_overlaps_and_ignores_empty_intervals():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert union_length([(0, 10), (2, 3), (4, 5)]) == pytest.approx(10.0)


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        ("parent", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a on [3, 4]
    ]
    assert self_times(spans) == pytest.approx([5.0, 3.0, 3.0])


def test_self_time_clips_children_to_parent():
    spans = [("parent", 0.0, 4.0, None), ("late", 3.0, 9.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_nested_wrappers_attribute_time_to_the_innermost():
    # kernels.maze_search inside router.maze inside router.run.
    spans = [
        ("router.run", 0.0, 10.0, None),
        ("router.maze", 1.0, 5.0, 0),
        ("kernels.maze_search", 1.5, 4.5, 1),
        ("router.maze", 6.0, 8.0, 0),
        ("kernels.maze_search", 6.5, 7.5, 3),
    ]
    stats = by_name(spans)
    assert stats["router.run"]["self"] == pytest.approx(4.0)
    assert stats["router.maze"]["total"] == pytest.approx(6.0)
    assert stats["router.maze"]["self"] == pytest.approx(2.0)
    assert stats["kernels.maze_search"]["total"] == pytest.approx(4.0)
    assert stats["kernels.maze_search"]["calls"] == 2
    total_self = sum(s["self"] for s in stats.values())
    assert total_self == pytest.approx(10.0)


def test_reentrant_span_is_not_counted_twice():
    spans = [("f", 0.0, 10.0, None), ("f", 2.0, 5.0, 0)]
    stats = by_name(spans)
    assert stats["f"]["total"] == pytest.approx(10.0)
    assert stats["f"]["self"] == pytest.approx(10.0)
    assert stats["f"]["calls"] == 2


def test_unattributed_share_and_coverage():
    spans = [("p", 0.0, 8.0, None), ("c", 0.0, 6.0, 0), ("q", 9.0, 10.0, None)]
    assert unattributed_shares(spans) == {"p": pytest.approx(0.25)}
    assert coverage(spans, 0.0, 10.0) == pytest.approx(0.9)
    assert coverage(spans, 5.0, 5.0) == 0.0


def test_percentiles_and_tail_selection():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        median([])
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9


def test_failure_counting():
    ok = {"metrics": {}, "verify_errors": 0, "check_failures": []}
    raised = {"error": "Traceback ..."}
    bad_verify = {"metrics": {}, "verify_errors": 2}
    bad_check = {"metrics": {}, "check_failures": ["hpwl is nan"]}
    assert count_failures([ok, ok]) == (2, 0)
    assert count_failures([ok, raised, bad_verify, bad_check]) == (4, 3)
    trials = {"trial_losses": [1.0, FAILED_TRIAL_LOSS, -0.2, float("nan")]}
    assert count_failures([trials]) == (4, 2)
    failed_run = dict(trials, error="shard died")
    assert count_failures([failed_run]) == (4, 4)


def test_recorder_links_parents_per_call():
    module = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    recorder = Recorder()
    recorder.wrap(module, "inner", "inner")
    recorder.wrap(module, "outer", "outer")
    assert module.outer(1) == 4
    assert module.inner(5) == 6
    spans = recorder.closed_spans()
    assert [(s[0], s[3]) for s in spans] == [("outer", None), ("inner", 0), ("inner", None)]
    assert all(s[2] >= s[1] for s in spans)
    assert module.inner.__wrapped__ is inner


def test_recorder_reentrant_calls_nest_and_count_once():
    module = types.SimpleNamespace()

    def countdown(n):
        return 0 if n == 0 else 1 + module.countdown(n - 1)

    module.countdown = countdown
    recorder = Recorder()
    recorder.wrap(module, "countdown", "countdown")
    assert module.countdown(3) == 3
    spans = recorder.closed_spans()
    assert [s[3] for s in spans] == [None, 0, 1, 2]
    stats = by_name(spans)["countdown"]
    assert stats["calls"] == 4
    assert stats["total"] == pytest.approx(spans[0][2] - spans[0][1])
    assert stats["self"] == pytest.approx(stats["total"])


def test_recorder_closes_span_when_the_call_raises():
    module = types.SimpleNamespace(fail=lambda: 1 / 0)
    recorder = Recorder()
    recorder.wrap(module, "fail", "fail")
    with pytest.raises(ZeroDivisionError):
        module.fail()
    assert recorder.closed_spans()[0][2] is not None


def test_serve_metrics_from_job_timestamps():
    jobs = [
        {"submitted_at": 0.0, "started_at": 0.5, "finished_at": 2.5, "cache_hit": False},
        {"submitted_at": 0.0, "started_at": 0.5, "finished_at": 4.5, "cache_hit": False},
        {"submitted_at": 5.0, "started_at": None, "finished_at": 5.1, "cache_hit": True},
    ]
    waves = [(0.0, 4.6), (4.9, 5.1)]
    got = serve_metrics(jobs, waves)
    assert got["serve.queue_wait_p50_s"] == pytest.approx(0.5)
    assert got["serve.job_run_p50_s"] == pytest.approx(2.0)
    assert got["serve.cache_hit_frac"] == pytest.approx(1 / 3)
    assert got["serve.wave_s"] == pytest.approx(4.8)
    assert got["serve.wave_idle_s"] == pytest.approx((4.6 - 3.0) + 0.2)
    assert serve_metrics([jobs[2]], [])["serve.queue_wait_p50_s"] == pytest.approx(0.1)


def test_every_per_layer_metric_is_produced():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    produced = set(layer_metrics(Recorder(), []))
    produced |= set(serve_metrics([], []))
    produced |= {"tpe.trials", "trace_coverage_pct", "trace_overhead_pct"}
    assert {m["name"] for m in bench["per_layer"]} == produced
