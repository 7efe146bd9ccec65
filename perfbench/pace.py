"""CPU-speed sampling, so that times read in quiet-CPU seconds.

The benchmark runs on shared hosts whose other tenants can slow this
process's CPU by up to about two times, in spells that last from a
fraction of a second to minutes.  Wall-clock and CPU-time clocks slow
alike, so neither tells a slower program from a slower CPU.

``Pace`` tells them apart.  A SIGALRM timer runs a fixed pure-Python
reference loop every ``INTERVAL`` seconds and records the CPU's speed:
``REF_S``, the loop's time on a quiet CPU, over its time now.  A span of
the program's work is multiplied by the speed measured around it
(:meth:`Pace.speed`), and the loop's own time is left out of every
span (``Pace.spent``, :meth:`Pace.clock_ns`).  The reference loop uses
nothing from fillgraph, so no change to the library can move the
yardstick.

All times are ``time.perf_counter()`` values, which on Linux read the
system-wide monotonic clock, so a parent's launch time and a child's
spans share one time line.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

INTERVAL = 0.05  # seconds between reference loops (about 1 % of the time)
# median time of one reference loop in the fast spells of a shared 2-core
# x86-64 VM with CPython 3.11; only ratios to it matter, so it is fixed
# once and never re-fit
REF_S = 0.00036
NEAR = 5  # a short span takes the median speed of the nearest loops
MANY = 20  # a span with this many loops inside takes their mean speed


_DARTS = 120
_rng = random.Random(1708)
_SIGMAS = tuple(_rng.sample(range(_DARTS), _DARTS) for _ in range(2))


def reference_loop(rounds=12):
    """Fixed interpreted work of the kind fillgraph's core does: compose
    two permutations of 120 darts, split the product into cycles and key
    it by a canonical relabelling, ``rounds`` times.

    On the shared VMs it was chosen on, its time tracked the synth-grid
    and census-v4 work across the host's fast and slow spells better than
    a tight dictionary loop, a stdlib ``difflib`` comparison or a
    pointer chase through a large list.
    """
    keys = set()
    s0, s1 = _SIGMAS
    for _ in range(rounds):
        comp = [s0[s1[i]] for i in range(_DARTS)]
        seen = [False] * _DARTS
        cycles = []
        for i in range(_DARTS):
            if not seen[i]:
                cyc = []
                j = i
                while not seen[j]:
                    seen[j] = True
                    cyc.append(j)
                    j = comp[j]
                cycles.append(tuple(cyc))
        label = {}
        for cyc in sorted(cycles, key=len):
            for d in cyc:
                label.setdefault(d, len(label))
        keys.add(tuple(sorted(tuple(label[d] for d in c) for c in cycles)))
        s0, s1 = s1, comp
    return len(keys)


class Pace:
    """Reference-loop samples of one process.

    Without :meth:`start` it records nothing, and every speed is 1.
    """

    def __init__(self):
        self.mids = []  # perf_counter() midpoint of each loop, ascending
        self.speeds = []  # REF_S over the loop's time
        self.spent = 0.0  # seconds spent in reference loops
        self._busy = False

    def probe(self):
        if self._busy:  # a timer signal that arrived during a loop
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.mids.append((t0 + t1) / 2)
        self.speeds.append(REF_S / (t1 - t0))
        self.spent += time.perf_counter() - t0
        self._busy = False

    def _on_alarm(self, signum, frame):
        self.probe()

    def start(self):
        self.probe()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock_ns(self):
        """perf_counter_ns() minus the time spent in reference loops."""
        return time.perf_counter_ns() - int(self.spent * 1e9)

    def speed(self, t0, t1):
        """CPU speed over [t0, t1] (perf_counter() values).

        With at least ``MANY`` loops inside the span, their mean: loops
        come at even intervals, so work times the mean speed adds up the
        work of each interval at its own speed.  Otherwise the median
        over the loops inside, or the ``NEAR`` nearest to the span's
        midpoint if fewer, which a lone interrupted loop cannot move.
        """
        mids, speeds = self.mids, self.speeds
        if not mids:
            return 1.0
        lo, hi = bisect.bisect_left(mids, t0), bisect.bisect_right(mids, t1)
        if hi - lo >= MANY:
            return statistics.fmean(speeds[lo:hi])
        if hi - lo < NEAR:
            c = bisect.bisect_left(mids, (t0 + t1) / 2)
            lo = max(0, min(c - NEAR // 2, len(mids) - NEAR))
            hi = lo + NEAR
        return statistics.median(speeds[lo:hi])
