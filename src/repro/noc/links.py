"""Links, shared media, and input-buffered router state.

Both simulator loops (the event-driven production loop and the naive
reference loop kept for equivalence testing) drive the same primitives:

* :class:`Link.start_traversal` returns the arrival cycle so the caller
  can feed an event heap instead of polling ``in_flight`` every cycle;
* ``in_flight`` is a deque ordered by arrival time (arrivals are
  scheduled monotonically because a link serializes flits), so
  :meth:`Link.deliver_arrivals` pops from the front instead of
  rebuilding the list;
* :class:`SharedMedium` tracks its member links and a round-robin grant
  pointer so bus arbitration rotates instead of statically favoring
  whichever link happens to come first in the network's link dict.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass, field

from ..errors import SimulationError


def _in_window(windows: tuple, now: int) -> bool:
    """Whether ``now`` falls inside any half-open ``[start, end)`` window."""
    for start, end in windows:
        if start <= now < end:
            return True
    return False


def _window_end(windows: tuple, now: int) -> int | None:
    """End of the first window containing ``now``, or None."""
    for start, end in windows:
        if start <= now < end:
            return end
    return None


@dataclass(eq=False)
class SharedMedium:
    """A serialization resource shared by several links.

    Models the half-duplex multi-drop DDR bus: every link that crosses
    the bus (up or down, any rank pair) contends for the same medium.
    Links register themselves at construction; ``rr_index`` points at
    the member with the highest grant priority and advances past each
    grantee, giving the bus round-robin arbitration instead of the
    registration-order static priority it used to have.
    """

    name: str
    next_free_cycle: int = 0
    members: list = field(default_factory=list)
    rr_index: int = 0
    #: Fault injection (:mod:`repro.faults`): half-open ``[start, end)``
    #: cycle windows during which no member link may start a traversal
    #: (an inter-rank bus stall).  Configuration, not simulation state —
    #: :meth:`reset` leaves it alone.
    stall_windows: tuple = ()

    def register(self, link: "Link") -> None:
        self.members.append(link)

    def in_stall(self, now: int) -> bool:
        return _in_window(self.stall_windows, now)

    def stall_end(self, now: int) -> int | None:
        return _window_end(self.stall_windows, now)

    def grant_rotation(self) -> list:
        """Member links in current round-robin priority order."""
        k = self.rr_index
        return self.members[k:] + self.members[:k]

    def advance_after(self, link: "Link") -> None:
        """Move the grant pointer just past ``link`` (the cycle's grantee)."""
        self.rr_index = (self.members.index(link) + 1) % len(self.members)

    def reset(self) -> None:
        self.next_free_cycle = 0
        self.rr_index = 0


@dataclass(eq=False)
class Link:
    """A directed channel between two routers with credit flow control.

    ``cycles_per_flit`` is the serialization interval (inverse
    bandwidth); ``latency_cycles`` is the pipeline latency to the
    downstream buffer; ``buffer_depth`` is the downstream input FIFO
    capacity, and ``credits`` counts the free slots the upstream side
    may still consume.
    """

    name: str
    src_router: str
    dst_router: str
    cycles_per_flit: int
    latency_cycles: int
    buffer_depth: int = 4
    medium: SharedMedium | None = None
    # -- simulation state --
    credits: int = field(init=False)
    next_free_cycle: int = field(init=False, default=0)
    buffer: deque = field(init=False, default_factory=deque)
    in_flight: deque = field(init=False, default_factory=deque)
    # -- fault injection configuration (:mod:`repro.faults`) --
    # All defaults make every fault check collapse to a falsy test, so a
    # link that never saw `configure_faults` behaves byte-for-byte like
    # one built before the fault engine existed.
    outages: tuple = field(init=False, default=())
    fault_factor: int = field(init=False, default=1)
    extra_latency_cycles: int = field(init=False, default=0)
    corruption_rate: float = field(init=False, default=0.0)
    retry_cycles: int = field(init=False, default=0)
    corruption_salt: int = field(init=False, default=0)
    # -- fault counters (simulation state; cleared by :meth:`reset`) --
    traversal_count: int = field(init=False, default=0)
    corrupted_flits: int = field(init=False, default=0)
    retry_cycles_paid: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.cycles_per_flit < 1:
            raise SimulationError(
                f"{self.name}: cycles_per_flit must be >= 1"
            )
        if self.latency_cycles < 0:
            raise SimulationError(f"{self.name}: negative latency")
        if self.buffer_depth < 1:
            raise SimulationError(f"{self.name}: need buffer depth >= 1")
        self.credits = self.buffer_depth
        if self.medium is not None:
            self.medium.register(self)

    # -- fault injection ----------------------------------------------------
    def configure_faults(
        self,
        outages: tuple = (),
        fault_factor: int = 1,
        extra_latency_cycles: int = 0,
        corruption_rate: float = 0.0,
        retry_cycles: int = 0,
        corruption_salt: int = 0,
    ) -> None:
        """Install a fault plan on this link (see :mod:`repro.faults`).

        ``outages`` are half-open ``[start, end)`` cycle windows during
        which the link refuses traversals (a degraded/re-training link);
        ``fault_factor`` multiplies the serialization interval;
        ``extra_latency_cycles`` stretches the pipeline latency;
        ``corruption_rate`` flips a deterministic per-traversal coin and
        charges ``retry_cycles`` of extra occupancy per corrupted flit
        (detection + retransmission of the CRC-failed flit).
        """
        for start, end in outages:
            if start < 0 or end <= start:
                raise SimulationError(
                    f"{self.name}: bad outage window [{start}, {end})"
                )
        if fault_factor < 1:
            raise SimulationError(f"{self.name}: fault_factor must be >= 1")
        if extra_latency_cycles < 0 or retry_cycles < 0:
            raise SimulationError(f"{self.name}: negative fault cycles")
        if not 0.0 <= corruption_rate <= 1.0:
            raise SimulationError(
                f"{self.name}: corruption_rate must be in [0, 1]"
            )
        self.outages = tuple(sorted(outages))
        self.fault_factor = fault_factor
        self.extra_latency_cycles = extra_latency_cycles
        self.corruption_rate = corruption_rate
        self.retry_cycles = retry_cycles
        self.corruption_salt = corruption_salt

    def clear_faults(self) -> None:
        self.configure_faults()

    def wake_cycle(self, now: int) -> int:
        """Earliest cycle a link that has credits but refuses ``now`` may
        accept: the latest end among its serialisation, its medium's, and
        any outage or bus-stall window containing ``now``.

        The event-driven loop parks a refused link until this cycle.  No
        blocker ends earlier while the link waits — its own
        ``next_free_cycle`` moves only when it is granted, a medium's only
        ever advances — so the wake never overshoots; ``can_accept`` is
        re-checked there, which covers windows that start meanwhile.
        """
        wake = self.next_free_cycle
        end = _window_end(self.outages, now)
        if end is not None and end > wake:
            wake = end
        medium = self.medium
        if medium is not None:
            if medium.next_free_cycle > wake:
                wake = medium.next_free_cycle
            end = medium.stall_end(now)
            if end is not None and end > wake:
                wake = end
        return wake

    def _corruption_uniform(self) -> float:
        """Deterministic per-traversal uniform in [0, 1).

        Depends only on (salt, link name, traversal index) — not on
        timing — so the i-th traversal of a link draws the same value at
        every fault rate of a sweep, and the corrupted-flit count is
        non-decreasing in the rate (common random numbers).  CRC32 is
        used because Python's ``hash`` is salted per process.
        """
        token = f"{self.corruption_salt}:{self.name}:{self.traversal_count}"
        return zlib.crc32(token.encode()) / 4294967296.0

    # -- flow control -------------------------------------------------------
    def can_accept(self, now: int) -> bool:
        """Whether a flit may start traversing this link at ``now``."""
        if self.credits <= 0:
            return False
        if self.next_free_cycle > now:
            return False
        if self.outages and _in_window(self.outages, now):
            return False
        medium = self.medium
        if medium is not None:
            if medium.next_free_cycle > now:
                return False
            if medium.stall_windows and medium.in_stall(now):
                return False
        return True

    def start_traversal(self, flit, now: int) -> int:
        """Commit a flit to the wire; returns its arrival cycle."""
        if not self.can_accept(now):
            raise SimulationError(f"{self.name}: traversal without capacity")
        self.credits -= 1
        occupancy = self.cycles_per_flit
        latency = self.latency_cycles
        if self.fault_factor > 1:
            occupancy *= self.fault_factor
        if self.extra_latency_cycles:
            latency += self.extra_latency_cycles
        if self.corruption_rate > 0.0:
            self.traversal_count += 1
            if self._corruption_uniform() < self.corruption_rate:
                self.corrupted_flits += 1
                self.retry_cycles_paid += self.retry_cycles
                occupancy += self.retry_cycles
        self.next_free_cycle = now + occupancy
        if self.medium is not None:
            self.medium.next_free_cycle = now + occupancy
        arrival = now + occupancy + latency
        self.in_flight.append((arrival, flit))
        return arrival

    def deliver_arrivals(self, now: int) -> int:
        """Move flits whose arrival time has come into the input buffer.

        ``in_flight`` is ordered by arrival time (serialization makes
        traversal starts, hence arrivals, monotonic per link), so due
        flits sit at the front.  Returns how many flits were delivered.
        """
        moved = 0
        in_flight = self.in_flight
        while in_flight and in_flight[0][0] <= now:
            _, flit = in_flight.popleft()
            flit.arrival_link = self
            self.buffer.append(flit)
            moved += 1
        return moved

    def return_credit(self) -> None:
        self.credits += 1
        if self.credits > self.buffer_depth:
            raise SimulationError(f"{self.name}: credit overflow")

    def reset(self) -> None:
        """Clear simulation state for a fresh run.

        Fault *configuration* (outage windows, factors, rates) survives
        a reset — it describes the machine, not the run; fault
        *counters* are simulation state and start over.
        """
        self.credits = self.buffer_depth
        self.next_free_cycle = 0
        self.buffer.clear()
        self.in_flight.clear()
        self.traversal_count = 0
        self.corrupted_flits = 0
        self.retry_cycles_paid = 0
