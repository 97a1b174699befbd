"""A speed probe that converts measured times into reference seconds.

The shared hosts this benchmark runs on change speed by up to a factor of
two, in spells from under a second to minutes, so the same operation can
take twice as long from one minute to the next.  While a ``SpeedProbe`` is
active, a ``SIGALRM`` timer interrupts the process every ``PERIOD`` seconds
and runs a fixed piece of pure-Python work, the benchmark's own copy of the
greedy Dehn solver (``workloads.dehn_steps``) on a fixed word, and records
how long it took.  No thread or process is started.

An operation that ran from ``start`` to ``end`` has a measured time, the
interval less the probes that ran inside it, and a reference time: the
measured time times ``REFERENCE_S`` times the mean of ``1 / probe time``
over the probes that ran within ``WINDOW`` seconds of the interval.  That
is the time the operation would have taken on a host that ran the probe in
``REFERENCE_S`` seconds throughout.  The probe never calls ``orelco``, so
a change to the library moves reference times as it moves measured ones.
"""

from __future__ import annotations

import bisect
import random
import signal
import time

import workloads

PERIOD = 0.02         # seconds between probes; each takes about 0.3 ms
WINDOW = 0.25         # probes this close to an interval count for it
MIN_PROBES = 8        # the nearest probes count when fewer lie that close
REFERENCE_S = 3e-4    # probe time that defines a reference second


class SpeedProbe:
    """Context manager that probes the host's speed until it exits."""

    def __init__(self):
        relator = workloads.parse("a b")
        self._word, _ = workloads.conjugate_product(random.Random(0), relator,
                                                    3, 200)
        self._relator = relator
        self.starts: list[float] = []
        self.times: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        workloads.dehn_steps(self._word, self._relator, 3)
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        time.sleep(WINDOW)          # probes before the first interval
        return self

    def __exit__(self, *exc) -> None:
        try:
            if exc[0] is None:
                time.sleep(WINDOW)  # probes after the last interval
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def measured(self, start: float, end: float) -> float:
        """The interval less the probes that ran inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.times[lo:hi])

    def reference(self, start: float, end: float) -> float:
        """The interval's measured time in reference seconds."""
        n = len(self.times)
        if n == 0:
            raise RuntimeError("the speed probe never ran")
        lo = bisect.bisect_left(self.starts, start - WINDOW)
        hi = bisect.bisect_right(self.starts, end + WINDOW)
        if hi - lo < MIN_PROBES:
            lo = max(0, min(lo, hi - MIN_PROBES))
            hi = min(n, max(hi, lo + MIN_PROBES))
        inverse = sum(1.0 / t for t in self.times[lo:hi]) / (hi - lo)
        return self.measured(start, end) * REFERENCE_S * inverse

    def summary(self) -> dict:
        s = sorted(self.times)
        return {"probes": len(s), "period_s": PERIOD,
                "reference_s": REFERENCE_S,
                "probe_p10_s": s[len(s) // 10] if s else 0.0,
                "probe_p50_s": s[len(s) // 2] if s else 0.0,
                "probe_p90_s": s[9 * len(s) // 10] if s else 0.0}
