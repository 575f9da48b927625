"""Tests of the machine-speed probe's arithmetic and its timer.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from pace import REFERENCE_S, SpeedProbe, read_samples, reference_seconds, slowdown  # noqa: E402


def test_slowdown_is_the_mean_probe_duration_inside_the_interval():
    samples = [(0.0, REFERENCE_S), (1.0, 3 * REFERENCE_S), (5.0, 10 * REFERENCE_S)]
    assert slowdown(samples, 0.0, 2.0) == pytest.approx(2.0)
    assert slowdown(samples, 0.0, 10.0) == pytest.approx(14.0 / 3.0)


def test_slowdown_of_an_interval_without_samples_uses_the_nearest():
    samples = [(0.0, REFERENCE_S), (1.0, 4 * REFERENCE_S)]
    assert slowdown(samples, 0.8, 0.9) == pytest.approx(4.0)
    assert slowdown(samples, 0.1, 0.2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        slowdown([], 0.0, 1.0)


def test_reference_seconds_removes_probe_time_and_slowdown():
    # Work that takes 1 s at reference speed, on a machine twice as slow,
    # interrupted by four probes.
    probe = 2 * REFERENCE_S
    samples = [(0.1 + 0.5 * i, probe) for i in range(4)]
    wall = 2.0 + 4 * probe
    assert reference_seconds(samples, 0.0, wall) == pytest.approx(1.0)
    # At reference speed reference seconds are the wall seconds less probing.
    fast = [(0.1 + 0.5 * i, REFERENCE_S) for i in range(4)]
    assert reference_seconds(fast, 0.0, 2.0) == pytest.approx(2.0 - 4 * REFERENCE_S)


def test_probe_samples_while_the_process_computes():
    speed = SpeedProbe().start()
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            sum(range(1000))
        end = time.perf_counter()
    finally:
        speed.stop()
    count = len(speed.samples)
    assert count >= 5
    assert all(d > 0 for _, d in speed.samples)
    assert 0 < speed.seconds(start, end)
    time.sleep(0.2)
    assert len(speed.samples) == count


def test_probe_writes_samples_that_read_samples_merges(tmp_path):
    with open(tmp_path / "speed-2.txt", "w") as sink:
        speed = SpeedProbe(sink=sink)
        speed._sample(None, None)
        speed._sample(None, None)
    (tmp_path / "speed-1.txt").write_text("0.5 0.001\n")
    (tmp_path / "other.txt").write_text("0.1 0.002\n")
    samples = read_samples(str(tmp_path))
    assert samples[0] == (0.5, 0.001)
    assert samples[1:] == sorted(speed.samples)
