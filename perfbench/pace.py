"""Machine-speed probe: turns wall seconds into seconds at a reference speed.

The benchmark runs on virtual machines whose cores are shared with other
tenants.  Their speed changes by up to a factor of two from one few-second
stretch to the next and drifts over minutes, so raw wall times of the same
work spread by a third.  To take the machine out of the figures, a worker
runs a fixed pure-Python probe every :data:`PERIOD_S` seconds from a
``SIGALRM`` handler, between the program's own bytecodes, and records each
probe's ``(start, duration)``.  The probe's mean duration inside an interval
over :data:`REFERENCE_S` is the machine's slowdown there; the interval's
wall time, less the probes' own time, divided by that slowdown is its
duration in *reference seconds*: the seconds the same work takes when the
probe runs in :data:`REFERENCE_S`.  The program under test never runs the
probe's code, so a change to the program moves reference seconds as it
moves wall seconds, while a change of machine speed moves both the work and
the probe and cancels.

A timer is not inherited by forked processes, so :func:`probe_children`
starts a probe in each process forked later (the service's shard workers)
and has it append its samples to a file, which :func:`read_samples` reads
back; work done in those processes is normalised by their own samples.
"""

from __future__ import annotations

import glob
import os
import signal
import time

#: Seconds between two probes (about 1% of the time goes to probing).
PERIOD_S = 0.05
#: Dictionary updates one probe makes.
PROBE_STEPS = 3000
#: Duration of one probe at the reference speed, seconds: about its duration
#: on a 2-core x86-64 Xeon VM under Python 3.11 in the VM's faster spells, so
#: reference seconds read close to wall seconds there.
REFERENCE_S = 4.0e-4


def probe() -> None:
    """The fixed work whose duration measures the machine's speed."""
    table = {}
    for i in range(PROBE_STEPS):
        key = i & 255
        table[key] = table.get(key, 0) + i


def slowdown(samples, lo: float, hi: float) -> float:
    """Mean probe duration of ``samples`` started in ``[lo, hi)`` over
    :data:`REFERENCE_S`.

    An interval shorter than the probe period may hold no sample; then the
    sample that started nearest to its middle stands for it.
    """
    inside = [d for t, d in samples if lo <= t < hi]
    if not inside:
        if not samples:
            raise ValueError("no speed probe ran")
        mid = (lo + hi) / 2.0
        inside = [min(samples, key=lambda s: abs(s[0] - mid))[1]]
    return sum(inside) / len(inside) / REFERENCE_S


def reference_seconds(samples, lo: float, hi: float) -> float:
    """Duration of ``[lo, hi]`` in reference seconds (see the module doc)."""
    probing = sum(d for t, d in samples if lo <= t < hi)
    return max(hi - lo - probing, 0.0) / slowdown(samples, lo, hi)


class SpeedProbe:
    """Samples the machine's speed in this process from a ``SIGALRM`` timer."""

    def __init__(self, sink=None) -> None:
        self.samples: list = []
        self.sink = sink

    def _sample(self, signum, frame) -> None:
        # The duration is this thread's CPU time, so a probe that another
        # process or thread of this machine preempts still reads the core's
        # speed; a host that slows the core slows the CPU clock alike.
        start, cpu = time.perf_counter(), time.thread_time()
        probe()
        self.samples.append((start, time.thread_time() - cpu))
        if self.sink is not None:
            self.sink.write("%r %r\n" % self.samples[-1])
            self.sink.flush()

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, lo: float, hi: float) -> float:
        """``[lo, hi]`` (``time.perf_counter`` stamps) in reference seconds."""
        return reference_seconds(self.samples, lo, hi)


def probe_children(directory: str) -> None:
    """Start a probe in every process forked from this one from now on; each
    appends its samples to ``directory/speed-<pid>.txt``.

    ``time.perf_counter`` is the system-wide monotonic clock on Linux, so
    the children's sample times compare with this process's.
    """

    def start_in_child() -> None:
        path = os.path.join(directory, f"speed-{os.getpid()}.txt")
        SpeedProbe(sink=open(path, "a")).start()

    os.register_at_fork(after_in_child=start_in_child)


def read_samples(directory: str) -> list:
    """Every sample the children of :func:`probe_children` wrote, by time."""
    samples = []
    for path in glob.glob(os.path.join(directory, "speed-*.txt")):
        with open(path) as handle:
            for line in handle:
                fields = line.split()
                if len(fields) == 2:
                    samples.append((float(fields[0]), float(fields[1])))
    return sorted(samples)
