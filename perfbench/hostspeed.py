"""Host speed probe of the qlca benchmark.

On a shared host the whole machine runs slower or faster in episodes that
last from a second to hours (up to 2x, the same factor for every question,
with CPU time equal to wall time, so nothing can be subtracted). The probe
measures that factor while the benchmark runs: an interval timer interrupts
the process every ``PERIOD_S`` seconds, and the signal handler times a
fixed piece of pure-Python ``Fraction`` and dict work, the kind of work the
program does. The probe does not call ``qlca``, so a change to the program
does not change what the probe does.

A span of time is rescaled to the reference speed: the probe time that ran
inside it is taken out, and the rest is multiplied by ``REFERENCE_PROBE_S``
over the mean probe duration within ``WINDOW_S`` of the span, the slowest
and fastest tenth of those probes left out. Work in another process, such
as starting a fresh interpreter, is rescaled by probes ``time_probe`` takes
just before and after it, with the timer off.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.1
WINDOW_S = 1.0
# Median probe duration on the benchmark host in its fast state (Intel Xeon
# vCPU at 2.1 GHz, Python 3.11.7); rescaled times are seconds at that speed.
REFERENCE_PROBE_S = 0.0015


def probe_work():
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        acc += Fraction(i % 97, i % 89 + 1) * Fraction(3, 7)
        table[(i % 50, i % 13)] = [acc, i]
    return acc


def time_probe():
    """(start, seconds) of one run of ``probe_work``, with the garbage
    collector off: a collection would time the program's heap, not the
    host."""
    gc_on = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        probe_work()
        return t0, perf_counter() - t0
    finally:
        if gc_on:
            gc.enable()


def trimmed_mean(values):
    """The mean without the lowest and highest tenth: a probe hit by a
    blip shorter than the period does not stand for the span, but a
    span that spans two speeds counts each at its share."""
    v = sorted(values)
    k = len(v) // 10
    return statistics.fmean(v[k:len(v) - k])


class HostSpeed:
    """Runs the probe while entered; ``rescale`` converts spans measured
    with ``perf_counter`` afterwards."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._busy = False
        self._old_handler = None

    def _probe(self, signum, frame):
        if self._busy:  # a slow probe outlasted the period
            return
        self._busy = True
        try:
            t0, seconds = time_probe()
        finally:
            self._busy = False
        self.starts.append(t0)
        self.durations.append(seconds)

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def _between(self, t0, t1):
        return slice(bisect.bisect_left(self.starts, t0),
                     bisect.bisect_left(self.starts, t1))

    def rescale(self, t0, t1):
        """Seconds the span [t0, t1] of this process would take at the
        reference speed."""
        busy = sum(self.durations[self._between(t0, t1)])
        near = self.durations[self._between(t0 - WINDOW_S, t1 + WINDOW_S)]
        if not near:  # no probe ran yet near the span; use every probe
            near = self.durations
        return (t1 - t0 - busy) * REFERENCE_PROBE_S / trimmed_mean(near)
