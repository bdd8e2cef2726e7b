"""Host speed, measured beside the workload so that times can be scaled to one speed.

Each vCPU of the shared 2-vCPU machine the benchmark was tuned on runs
at two speeds and switches between them every few seconds, each vCPU on
its own: :func:`kernel` takes about 0.27 ms in one speed and 0.42 ms in
the other, with nothing else running. CPU time tracks wall time, so the
core runs slower, and every op slows with it. A run cannot average that
away: how much of a run falls in the slow speed changes from run to run.

So a run also times the kernel, a fixed pure-Python loop of per-key
dict and float work (the kind lglab's engine does) that calls no lglab
code, from a sampler thread that wakes every :data:`PERIOD_S` on the
CPU the ops run on. The kernel creates no object the garbage collector
counts, so it never starts a collection, and the program's heap does
not reach it. A program change cannot move the kernel's time; a change
of host speed moves both. Each timed interval (a :class:`Lap`) is
reported as ``t * REFERENCE_S / k``, where ``k`` is the mean kernel time
sampled during the interval, widened by :data:`MARGIN_S` on each side:
seconds on a host where the kernel takes :data:`REFERENCE_S`. The
sampler holds the interpreter lock for under half a millisecond per
sample, which adds about 1 % to in-process op times.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from dataclasses import dataclass

#: Kernel time the reported seconds are scaled to: the kernel on the
#: 2.0 GHz Xeon vCPU the benchmark was tuned on, in its fast speed.
REFERENCE_S = 0.00027
#: Seconds between two kernel samples.
PERIOD_S = 0.05
#: A lap's samples are those taken during it, or this close to it.
MARGIN_S = 0.1
_KEYS = 384


def kernel(weights: dict) -> float:
    """Renormalise and damp ``weights`` (keys ``0.._KEYS-1``) in place a few times.

    It creates no object the garbage collector counts, so it never starts
    a collection, whatever the size of the program's heap.
    """
    total = 0.0
    for _ in range(4):
        total = 0.0
        for key in range(_KEYS):
            total += weights[key]
        for key in range(_KEYS):
            weights[key] = weights[key] / total * 0.5 + 0.5 / _KEYS
    return total


@dataclass(frozen=True)
class Lap:
    """A timed interval: when it began and its measured seconds."""

    start: float
    seconds: float


class HostClock:
    """A thread that samples the kernel's time through a run.

    Use as a context manager: leaving it stops the thread and waits for it.
    """

    def __init__(self):
        self.times = []  # sample midpoints, perf_counter seconds, ascending
        self.samples = []  # kernel seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-clock", daemon=True)

    def _run(self) -> None:
        weights = {i: 1.0 / (i + 1) for i in range(_KEYS)}
        kernel(weights)  # warm-up, not kept
        while not self._stop.wait(PERIOD_S):
            start = time.perf_counter()
            kernel(weights)
            end = time.perf_counter()
            self.times.append((start + end) / 2)
            self.samples.append(end - start)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def speed_at(self, lap: Lap) -> float:
        """Mean kernel seconds sampled during the lap, widened by MARGIN_S;
        the nearest sample when there is none."""
        lo = bisect.bisect_left(self.times, lap.start - MARGIN_S)
        hi = bisect.bisect_right(self.times, lap.start + lap.seconds + MARGIN_S)
        if hi > lo:
            return statistics.fmean(self.samples[lo:hi])
        middle = lap.start + lap.seconds / 2
        nearest = min((i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
                      key=lambda i: abs(self.times[i] - middle))
        return self.samples[nearest]

    def scaled(self, lap: Lap) -> float:
        """The lap in reference-host seconds."""
        return lap.seconds * REFERENCE_S / self.speed_at(lap)

    @property
    def speed_s(self) -> float:
        """The run's median sample: kernel seconds on this host during the run."""
        return statistics.median(self.samples)
