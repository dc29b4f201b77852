"""Host speed, measured next to the program so the host's drift divides out.

The benchmark's host is a shared VM.  Its co-tenants slow a process by up
to 2x, in CPU time as much as in wall time, in regimes that last from
seconds to minutes — longer than one run.  Each vCPU changes speed on its
own: on 2 vCPUs, a fixed task alternated between about 4.5 ms and 7.2 ms
on each one independently, in states lasting from under a second to
several seconds.  No
statistic over one run's own timings removes a regime that outlasts the
run, so every timed request is paired with the speed of the host around
it.

:func:`reference_task` is fixed work written in the benchmark's own file
and independent of the program: a pure-Python integer loop and numpy calls
on a small array, the two kinds of work the simulator's time goes to
(interpreter-bound stepping and numpy dispatch).  :class:`HostSpeed` times
it (fastest of :data:`REPEATS`) before a request whenever
:data:`INTERVAL_S` has passed since the last probe, and once at the end:
on the one CPU the client is pinned to while it sends in-process
requests, or, for work spread over worker processes, on every CPU the
client may use (their mean).
A request's *standard* duration is its wall-clock duration times
``REFERENCE_S / reference``, where ``reference`` is the mean of the probes
taken within :data:`WINDOW_S` of it: the time the request would have taken
on a host where the reference task takes :data:`REFERENCE_S`.  A change to
the program moves its standard durations; a change of the host's speed
moves request and reference together.
"""

from __future__ import annotations

import bisect
import os
import time
from contextlib import contextmanager
from typing import Callable, List

import numpy as np

#: The reference task's duration on the standard host: the seconds in which
#: every benchmark time is reported (about its fastest on a 2-vCPU Xeon VM).
REFERENCE_S = 0.005
#: Seconds between probes while requests are being sent.
INTERVAL_S = 0.25
#: Repeats of the reference task per probe; a probe is their fastest.
REPEATS = 3
#: A request is scaled by the mean of the probes taken within this many
#: seconds of it.  A CPU's speed flips within a second or two, so one probe
#: says little about the seconds around it; the window's mean follows the
#: regimes that last longer than a request and averages out the flips.
WINDOW_S = 5.0


def reference_task() -> int:
    """Fixed work: an integer loop and small-array numpy arithmetic."""
    total = 0
    for i in range(50_000):
        total += i * i % 7
    values = np.arange(64.0)
    for _ in range(1_200):
        values = np.sqrt(values + 1.0)
    return total + int(values[0])


@contextmanager
def one_cpu():
    """Run the block on one CPU (the lowest the process may use), so that
    the probes time the CPU the requests run on; restore the affinity after."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def time_reference(clock: Callable[[], float] = time.perf_counter) -> float:
    """The fastest of :data:`REPEATS` runs of the reference task, here."""
    best = float("inf")
    for _ in range(REPEATS):
        started = clock()
        reference_task()
        best = min(best, clock() - started)
    return best


class HostSpeed:
    """A timeline of reference-task probes taken between requests.

    With ``every_cpu``, a probe pins the client to each CPU it may use in
    turn, times the reference task there, and restores the client's
    affinity before the next request: the speed of a host whose CPUs all
    do the work.
    """

    def __init__(
        self, every_cpu: bool = False, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.every_cpu = every_cpu
        self.clock = clock
        self.times: List[float] = []
        self.references: List[float] = []

    def probe(self) -> float:
        """Time the reference task now and record it."""
        if self.every_cpu:
            cpus = os.sched_getaffinity(0)
            per_cpu = []
            try:
                for cpu in sorted(cpus):
                    os.sched_setaffinity(0, {cpu})
                    per_cpu.append(time_reference(self.clock))
            finally:
                os.sched_setaffinity(0, cpus)
            reference = sum(per_cpu) / len(per_cpu)
        else:
            reference = time_reference(self.clock)
        self.times.append(self.clock())
        self.references.append(reference)
        return reference

    def maybe_probe(self) -> None:
        """Probe unless the last probe is less than :data:`INTERVAL_S` old."""
        if not self.times or self.clock() - self.times[-1] >= INTERVAL_S:
            self.probe()

    def reference_around(self, start: float, end: float) -> float:
        """Mean of the probes taken within :data:`WINDOW_S` of ``[start, end]``."""
        first = bisect.bisect_left(self.times, start - WINDOW_S)
        last = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.references[first:last]
        if not window:
            raise ValueError(f"no host-speed probe within {WINDOW_S} s of the request")
        return sum(window) / len(window)

    def standard(self, start: float, end: float) -> float:
        """The standard duration of the interval ``[start, end]``."""
        return (end - start) * REFERENCE_S / self.reference_around(start, end)
