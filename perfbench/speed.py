"""Host-speed probe: turns wall time into reference seconds.

On a shared virtual machine the speed of a core changes by up to 1.8x from
one second to the next, while a fixed piece of pure-Python work takes
almost the same time as the one just before it. The probe therefore runs a
short fixed piece of interpreter work from a SIGALRM handler every
INTERVAL_S of wall time, in the benchmark's own thread, and records how
long it took. A timed interval is then rescaled by the host's speed during
it:

    reference seconds = (wall - probe time inside) * REF_S * mean(1 / probe)

over the probes from WINDOW_S before the interval to WINDOW_S after it. The
mean of 1/probe is the time average of the speed, because the probes fire
evenly in wall time. One reference second is the time the code takes when
the probe takes REF_S, about the faster of the speeds a 2-vCPU 2.0 GHz
Xeon VM showed. The probe allocates no containers and runs with the cyclic
garbage collector off, so the heap of the code being timed does not enter
its time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.02
WINDOW_S = 0.1
REF_S = 0.00025
PROBE_ROUNDS = 1200

_TABLE = dict.fromkeys(range(97), 0)
_SLOTS = [0] * 97


def probe_work() -> int:
    table, slots, acc = _TABLE, _SLOTS, 0
    for i in range(PROBE_ROUNDS):
        k = i * 7 % 97
        table[k] += 1
        slots[k] = acc
        acc += k if acc < 1 << 20 else -k
    return acc


class SpeedProbe:
    """Context manager that samples the host's speed while it is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        if was_enabled:
            gc.enable()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def __enter__(self):
        for _ in range(20):  # warm up before the first sample counts
            probe_work()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        return False

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds for the wall interval [t0, t1]."""
        starts, durations = self.starts, self.durations
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
        inside = sum(durations[lo:hi])
        wlo = bisect.bisect_left(starts, t0 - WINDOW_S)
        whi = bisect.bisect_left(starts, t1 + WINDOW_S)
        window = durations[wlo:whi] or durations[max(0, wlo - 5):wlo + 5]
        if not window:
            raise RuntimeError("no speed probe sample near the timed interval")
        return (t1 - t0 - inside) * REF_S * statistics.fmean(1 / d for d in window)

    def summary(self) -> dict:
        d = self.durations
        return {"probes": len(d), "probe_s.median": statistics.median(d) if d else None,
                "probe_s.min": min(d, default=None), "probe_s.max": max(d, default=None)}
