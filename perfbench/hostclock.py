"""Pass clock: splits a timed pass into parts and gauges host speed.

The host is a few cores of a shared machine.  Other tenants slow every
instruction of this process by up to about 2x, in phases that last from
a second to minutes, so a whole run can sit in a slow phase and no
statistic over raw host seconds removes that.  The clock therefore times
a fixed reference loop (standard library only, none of ``repro``)
every :data:`PROBE_EVERY_S` seconds while a pass runs, and scales each
part of the pass to *reference seconds*: host seconds at the speed at
which the reference loop takes :data:`REFERENCE_S`.  The reference loop's
own time is taken out of the parts.  With probing off (traced runs)
every scale is 1 and parts are raw host seconds.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

#: Nominal time of one reference loop; a part's reference seconds are
#: its host seconds times ``REFERENCE_S / measured reference time``.
REFERENCE_S = 1e-3
#: Interval of the timer that takes reference times during a pass.
PROBE_EVERY_S = 0.1
#: Each reference time is the fastest of this many loops.
PROBE_LOOPS = 2


class _Event:
    __slots__ = ("at", "kind", "payload")

    def __init__(self, at: int, kind: int, payload: list[int]) -> None:
        self.at = at
        self.kind = kind
        self.payload = payload


def reference_loop() -> int:
    """Fixed interpreter work shaped like an event loop: small objects
    allocated, pushed on a heap and popped in time order."""
    heap: list[tuple[int, int, _Event]] = []
    total = 0
    for i in range(800):
        heapq.heappush(heap, ((i * 7919) % 1013, i, _Event(i, i & 7, [i])))
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].kind
    return total


def reference_time() -> float:
    """Host seconds of one reference loop, the fastest of a few.

    The collector is off meanwhile, so the time does not depend on how
    many objects the workload holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(PROBE_LOOPS):
            start = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


class PassClock:
    """Times the parts of one pass between ``begin()`` and ``end()``.

    The workload calls :meth:`mark` at each part boundary, in an order
    fixed by the workload, so part ``i`` is the same work in every pass.
    ``parts`` holds ``(host seconds, scale)`` per part; the part's
    reference seconds are their product.

    While a pass runs, an interval timer (``SIGALRM``) takes a reference
    time every :data:`PROBE_EVERY_S` seconds, between two bytecodes of
    whatever the workload is doing, and the time it took is taken out of
    the part it fell in.  A part's speed is the mean of the reference
    times inside it and the nearest one on either side.
    """

    def __init__(self, probe: bool = True) -> None:
        self.probe = probe
        self.parts: list[tuple[float, float]] = []
        #: (start, end, reference time) of each probe, in time order.
        self._probes: list[tuple[float, float, float]] = []
        #: Host time of each part boundary, from ``begin()`` to ``end()``.
        self._marks: list[float] = []

    def begin(self) -> None:
        self._probe()
        if self.probe:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self._marks.append(time.perf_counter())

    def mark(self) -> None:
        self._marks.append(time.perf_counter())

    def end(self) -> None:
        """Close the last part; safe to call after an exception."""
        self.mark()
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()
        probes = self._probes
        self.parts = []
        for start, end in zip(self._marks, self._marks[1:]):
            inside = [p for p in probes if start <= p[0] < end]
            before = max((p for p in probes if p[1] <= start), default=None)
            after = min((p for p in probes if p[0] >= end), default=None)
            around = [p for p in (before, *inside, after) if p is not None]
            speed = sum(ref for _, _, ref in around) / len(around)
            taken = sum(min(p[1], end) - p[0] for p in inside)
            self.parts.append((end - start - taken, REFERENCE_S / speed))

    def _probe(self) -> None:
        start = time.perf_counter()
        ref = reference_time() if self.probe else REFERENCE_S
        self._probes.append((start, time.perf_counter(), ref))

    def _on_alarm(self, signum: int, frame: object) -> None:
        self._probe()
