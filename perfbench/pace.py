"""The machine's pace: how fast it runs plain Python while a worker runs.

A shared VM runs the same code up to twice as slowly from one second to the
next, and for stretches of tens of seconds at a time, while other tenants are
busy.  Minima over a run's few passes do not remove a stretch that covers the
run.  So every worker runs a fixed probe of plain Python from a ``SIGALRM``
handler every 30 to 70 ms (jittered, so that the samples do not lock onto a
neighbour's period), keeps the probe's time out of its own clock, and reports
the probe's mean time.  ``run.py`` rescales the worker's times by
``NOMINAL_PROBE_S / mean probe time``: the time the work would have taken at
the pace the probe runs at in a quiet stretch of the VM the benchmark was
defined on.  A traced worker's spans are timed with the same clock and
rescaled the same way.  The library's work and the probe slow down together,
so the rescaled time moves with the program and not with the neighbours.

The probe does what the library does most: small-integer arithmetic, tuple
keys, dict reads and writes and a function call per step.  It never imports
the library, so a change to the program cannot move it.
"""

from __future__ import annotations

import random
import signal
import time

PROBE_STEPS = 5000
# About the probe's time in a quiet stretch of a 2-vCPU Xeon VM under Python
# 3.11.7, where the benchmark was defined (1.3 ms at best).  Only a scale:
# the same constant applies to every commit measured with this benchmark.
NOMINAL_PROBE_S = 0.0015
INTERVAL_S = (0.03, 0.07)


def _step(acc: int, k: int) -> int:
    return (acc * 31 + k) % 1_000_003


def probe(steps: int = PROBE_STEPS) -> int:
    """A fixed piece of plain Python work; returns a checksum."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for k in range(steps):
        acc = _step(acc, k)
        key = (k & 31, acc & 7)
        table[key] = table.get(key, 0) + acc
    return acc + len(table)


def timed_probe() -> float:
    t = time.perf_counter()
    probe()
    return time.perf_counter() - t


class Pacer:
    """Run the probe from a timer signal; keep count of its time.

    ``spent`` is the wall time the handler took, probe included, which the
    caller takes out of its own clock; ``probe_s`` and ``probes`` give the
    probe's mean time.
    """

    def __init__(self):
        self.spent = 0.0
        self.probe_s = 0.0
        self.probes = 0
        self._rng = random.Random(0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._arm()

    def clock(self) -> float:
        """A perf_counter that stops while the probe runs."""
        return time.perf_counter() - self.spent

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self._rng.uniform(*INTERVAL_S))

    def _tick(self, signum, frame) -> None:
        clock = time.perf_counter
        t0 = clock()
        probe()
        t1 = clock()
        self.probe_s += t1 - t0
        self.probes += 1
        self._arm()
        self.spent += clock() - t0

    def report(self) -> dict:
        return {"probe_s": self.probe_s, "probes": self.probes}


def rescale(seconds: float, probe_s: float, probes: int) -> float:
    """``seconds`` at the nominal pace, from the mean of probes taken alongside."""
    if not probes or probe_s <= 0:
        return seconds
    return seconds * NOMINAL_PROBE_S * probes / probe_s
