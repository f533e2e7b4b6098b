"""Wall-clock bookkeeping for one worker process, rescaled by speed probes.

On a shared host the machine's speed switches between fast and slow stretches
that last from under a second to tens of seconds, so two runs of the same
work can differ by a third in wall time.  While a :class:`Meter` probes, a
timer signal runs a fixed piece of pure-Python work (the probe, which does
not touch ``repro``) every ``PROBE_EVERY_S`` and records how long it took.
The probe mixes integer arithmetic with a small event heap of slotted
objects and a dict, as the simulator does: arithmetic alone slows less than
the simulator in the slowest stretches, the heap part alone slightly more.  A stretch of
work is then rescaled, piece by piece, to the speed at which the probe takes
``PROBE_REF_S``: what the work would have taken had the machine run at that
speed throughout.

Only the standard library is imported here, so the worker can start probing
before it imports ``repro``.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import heapq
import resource
import signal
import time
from typing import Callable, Dict, List, Tuple

#: Iterations of the probe's arithmetic loop.
PROBE_LOOPS = 12_500
#: Events pushed through the probe's heap.
PROBE_EVENTS = 750
#: Wall seconds between probes.
PROBE_EVERY_S = 0.05
#: The probe's time, run between the workload's own work, on the reference
#: machine (a 2-vCPU x86-64 VM) in its faster stretches.
PROBE_REF_S = 0.0025


class _ProbeEvent:
    __slots__ = ("at", "key")

    def __init__(self, at: float, key: int) -> None:
        self.at = at
        self.key = key

    def __lt__(self, other: "_ProbeEvent") -> bool:
        return self.at < other.at


def _probe_work() -> None:
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    heap: List[_ProbeEvent] = []
    counts: Dict[int, int] = {}
    for i in range(PROBE_EVENTS):
        event = _ProbeEvent((i * 7919) % 1000 / 7.0, i % 37)
        heapq.heappush(heap, event)
        counts[event.key] = counts.get(event.key, 0) + 1
        if len(heap) > 64:
            counts[heapq.heappop(heap).key] -= 1


class Meter:
    """Untimed stretches, speed probes and the timed clock of one process.

    The timed clock is ``time.perf_counter()`` with every untimed stretch so
    far taken out.  Output checks run in untimed stretches (``untimed()``);
    so does every probe.  ``on_pause`` runs at the start of every untimed
    check stretch and ``on_resume`` at its end, both inside the stretch (the
    traced run folds its spans there).  ``peak_rss_kb`` is the process's
    resident high-water mark as it stood when the last check stretch began,
    so the checks' own arrays do not count.
    """

    def __init__(
        self,
        on_pause: Callable[[], None] = lambda: None,
        on_resume: Callable[[], None] = lambda: None,
    ) -> None:
        self.on_pause = on_pause
        self.on_resume = on_resume
        self.excluded: List[Tuple[float, float]] = []
        self.peak_rss_kb = 0
        #: (timed clock when it started, seconds it took) for every probe.
        self.probes: List[Tuple[float, float]] = []
        self._untimed = False

    def excluded_s(self) -> float:
        return sum(end - start for start, end in self.excluded)

    def timed_clock(self) -> float:
        return time.perf_counter() - self.excluded_s()

    @contextlib.contextmanager
    def untimed(self):
        """Mark a stretch (output checks) as not part of the measured work."""
        self._untimed = True
        start = time.perf_counter()
        self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.on_pause()
        try:
            yield
        finally:
            self.on_resume()
            self.excluded.append((start, time.perf_counter()))
            self._untimed = False

    def probe(self, *_signal) -> None:
        """Time the probe loop, unless an untimed stretch is running."""
        if self._untimed:
            return
        # The probe's objects would count towards the program's next
        # young-generation collection, and run it inside the probe.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _probe_work()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.probes.append((start - self.excluded_s(), end - start))
        self.excluded.append((start, end))

    def start_probing(self) -> None:
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self.probe()

    def stop_probing(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def scaled_s(self, start: float, end: float) -> float:
        """Timed-clock stretch ``[start, end]`` rescaled to the reference speed.

        Between two probes the speed is the mean of the two; before the first
        probe and after the last, that probe's.
        """
        if not self.probes:
            raise RuntimeError("no speed probes were taken")
        clocks = [clock for clock, _ in self.probes]
        cuts = [start] + [c for c in clocks if start < c < end] + [end]
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            k = bisect.bisect_right(clocks, (a + b) / 2.0)
            if k == 0:
                took = self.probes[0][1]
            elif k == len(clocks):
                took = self.probes[-1][1]
            else:
                took = (self.probes[k - 1][1] + self.probes[k][1]) / 2.0
            total += (b - a) * PROBE_REF_S / took
        return total
