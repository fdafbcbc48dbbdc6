"""Cycle-level NoC simulation loop.

A faithful (if compact) Booksim-style model: input-buffered routers,
credit-based flow control, round-robin switch allocation per output
link, round-robin grant rotation on shared media, deterministic
routing, and a shared half-duplex bus medium.

The same simulator runs both of Fig 13's configurations:

* **credit mode** — every message injects as soon as its data
  dependencies are satisfied and its source DPU has finished computing;
  contention is resolved dynamically by the credit/arbitration machinery.
* **scheduled (PIM-controlled) mode** — messages carry barrier indices;
  a barrier's messages inject only after every earlier barrier fully
  delivered (the WAIT semantics), and all sources start together after
  the READY/START synchronization.

The production loop (:meth:`NocSimulator.run`) is event-driven: it
jumps from one cycle that can change the state to the next (a message
ready time, a flit arrival, a parked link's wake cycle, or the next
cycle while work is pending) and does only the work those cycles can
do.  Each input port's head flit sets its bit in a per-output-link
request mask, so switch allocation picks the round-robin grantee with
bit operations; ejection visits only links whose head flit is home; and
arbitration visits only *active* links.  A link that is granted, or
refused, parks on its wake condition — a credit returning to its
buffer, or the cycle its own or its medium's serialisation or a fault
window ends — instead of being re-checked every event.  The naive
cycle-by-cycle loop is kept as :meth:`NocSimulator._run_reference`;
both share the injection, ejection, and arbitration helpers, and
equivalence tests hold their outputs byte-for-byte equal (see
``docs/NOC.md``).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field

from ..errors import SimulationError
from ..observability import (
    metric_counter,
    metric_gauge,
    metric_histogram,
    metrics_active,
    trace_span,
)
from .flit import Flit, Message, SimStats
from .links import Link, SharedMedium
from .network import NocNetwork


#: ``_RunState.parked`` value of a link waiting for a credit to return
#: to its own downstream buffer (other parked links map to a cycle).
_ON_CREDIT = -1


@dataclass
class _InjectionQueue:
    """Per-DPU NIC queue: the last input port of the DPU's stop router."""

    bit: int
    flits: deque = field(default_factory=deque)


class _RunState:
    """Per-run mutable state shared by the event-driven and naive loops."""

    __slots__ = (
        "stats",
        "injection",
        "not_injected",
        "remaining",
        "links",
        "pos",
        "router_ports",
        "port_bit",
        "rr",
        "arb_base",
        "member_pos",
        "outstanding",
        "barrier_order",
        "msg_rank",
        "frontier",
        "req_mask",
        "eject_ready",
        "active",
        "parked",
        "inject_dirty",
        "arb_heap",
        "arb_cursor",
    )

    def __init__(self) -> None:
        self.stats = SimStats()
        self.injection: dict[int, _InjectionQueue] = {}
        self.not_injected: deque = deque()
        self.remaining = 0
        self.links: list[Link] = []
        self.pos: dict[Link, int] = {}
        # Input ports per router (input links, then the NIC queue), the
        # request bit of each input link at its downstream router, and
        # each output link's round-robin pointer into its router's ports.
        self.router_ports: dict[str, list] = {}
        self.port_bit: dict[Link, int] = {}
        self.rr: dict[Link, int] = {}
        # Arbitration key = arb_base, plus the rotation within a medium.
        self.arb_base: dict[Link, int] = {}
        self.member_pos: dict[Link, int] = {}
        self.outstanding: dict[int, int] = {}
        self.barrier_order: list[int] = []
        self.msg_rank: dict[int, int] = {}
        self.frontier = 0
        # Output link -> bitmask of the input ports whose head flit
        # requests it.
        self.req_mask: dict[Link, int] = {}
        # Links whose input-buffer head flit has reached its stop.
        self.eject_ready: set[Link] = set()
        # Requested links the next step 4 must visit; every other
        # requested link is parked, keyed by its wake condition: a cycle
        # (also queued on the event loop's wake heap) or ``_ON_CREDIT``.
        self.active: set[Link] = set()
        self.parked: dict[Link, int] = {}
        self.inject_dirty = False
        # Step-4 worklist (only live inside the event loop's allocation
        # step): a heap of (arb key, pos, link) still to visit this cycle,
        # and the key of the link being visited.  A medium member re-keyed
        # by a bus grant can tie with a stale key; pos breaks the tie.
        self.arb_heap: list | None = None
        self.arb_cursor = -1


class NocSimulator:
    """Runs a set of messages over a :class:`NocNetwork` to completion."""

    def __init__(
        self,
        network: NocNetwork,
        messages: list[Message],
        use_barriers: bool = False,
        record_grants: bool = False,
    ) -> None:
        self.network = network
        self.messages = {m.msg_id: m for m in messages}
        if len(self.messages) != len(messages):
            raise SimulationError("duplicate message ids")
        for m in messages:
            if m.num_flits < 1:
                raise SimulationError(
                    f"message {m.msg_id} has {m.num_flits} flits; "
                    "zero-flit messages are rejected, not silently dropped"
                )
            for dep in m.deps:
                if dep == m.msg_id:
                    raise SimulationError(
                        f"message {m.msg_id} depends on itself"
                    )
                if dep not in self.messages:
                    raise SimulationError(
                        f"message {m.msg_id} depends on unknown "
                        f"message {dep}"
                    )
        self.use_barriers = use_barriers
        self.record_grants = record_grants
        self.barriers: dict[int, int] = {}
        self._message_barrier: dict[int, int] = {}

    def set_barriers(self, barriers: dict[int, int]) -> None:
        """Assign message -> barrier index (scheduled mode)."""
        self._message_barrier = dict(barriers)
        counts: dict[int, int] = {}
        for msg_id, barrier in self._message_barrier.items():
            if msg_id not in self.messages:
                raise SimulationError(f"barrier for unknown message {msg_id}")
            counts[barrier] = counts.get(barrier, 0) + 1
        self.barriers = counts
        self.use_barriers = True

    # -- injection gating ---------------------------------------------------------
    def _deps_satisfied(self, message: Message) -> bool:
        return all(self.messages[d].delivered for d in message.deps)

    def _barrier_open(self, message: Message, state: _RunState) -> bool:
        """All barriers strictly earlier than the message's have drained.

        ``state.frontier`` counts the leading fully-drained barriers in
        release order (``state.barrier_order``); a message is open when
        its precomputed rank lies within that drained prefix — an O(1)
        check instead of a scan over every barrier per message per cycle.
        """
        return state.msg_rank.get(message.msg_id, 0) <= state.frontier

    # -- run entry points ------------------------------------------------------------
    def run(self, max_cycles: int = 50_000_000) -> SimStats:
        """Simulate to completion; the cycle loop itself is in `_run`."""
        with trace_span(
            "noc/run",
            category="noc",
            num_messages=len(self.messages),
            scheduled=self.use_barriers,
        ) as span:
            stats = self._run(max_cycles)
            span.set_attributes(
                cycles=stats.cycles,
                flits_delivered=stats.flits_delivered,
                arbitration_conflicts=stats.arbitration_conflicts,
                peak_buffer_occupancy=stats.peak_buffer_occupancy,
                events_processed=stats.events_processed,
                idle_cycles_skipped=stats.idle_cycles_skipped,
                arbitration_visits=stats.arbitration_visits,
            )
            metric_counter("noc.cycles").inc(stats.cycles)
            metric_counter("noc.flits_delivered").inc(stats.flits_delivered)
            metric_counter("noc.flit_hops").inc(stats.total_flit_hops)
            metric_counter("noc.arbitration_conflicts").inc(
                stats.arbitration_conflicts
            )
            metric_counter("noc.events_processed").inc(
                stats.events_processed
            )
            metric_counter("noc.idle_cycles_skipped").inc(
                stats.idle_cycles_skipped
            )
            metric_counter("noc.arbitration_visits").inc(
                stats.arbitration_visits
            )
            metric_gauge("noc.peak_buffer_occupancy").max(
                stats.peak_buffer_occupancy
            )
            if metrics_active():
                self._record_distributions(stats)
            return stats

    def _record_distributions(self, stats: SimStats) -> None:
        """Post-run distribution metrics, derived from the finished stats.

        Reading the stats object after the fact keeps the cycle loops
        untouched: per-link occupancy and per-message latency are
        already accumulated there, so histograms cost nothing on the
        hot path and the loops stay byte-identical with metrics on.
        """
        latency = metric_histogram("noc.message.latency_cycles")
        for cycles in stats.per_message_latency.values():
            latency.observe(cycles)
        utilization = metric_histogram("noc.link.utilization")
        for name, busy in stats.link_busy_cycles.items():
            metric_counter("noc.link.busy_cycles", {"link": name}).inc(
                busy
            )
            utilization.observe(stats.link_utilization(name))
        queue_depth = metric_histogram("noc.link.queue_depth_flits")
        for name, peak in stats.link_peak_queue_flits.items():
            queue_depth.observe(peak)
            metric_gauge(
                "noc.link.peak_queue_flits", {"link": name}
            ).max(peak)

    # -- shared setup -----------------------------------------------------------------
    def _prepare(self) -> _RunState:
        network = self.network
        network.reset()
        state = _RunState()
        pending = sorted(self.messages.values(), key=lambda m: m.msg_id)
        for m in pending:
            m.injected_flits = 0
            m.delivered_flits = 0
            m.inject_start_cycle = None
            m.complete_cycle = None
        state.not_injected = deque(pending)
        state.remaining = sum(m.num_flits for m in pending)

        state.outstanding = {
            b: 0 for b in set(self._message_barrier.values())
        }
        for msg_id, barrier in self._message_barrier.items():
            state.outstanding[barrier] += self.messages[msg_id].num_flits
        state.barrier_order = sorted(state.outstanding)
        state.frontier = 0
        if self.use_barriers:
            for m in pending:
                state.msg_rank[m.msg_id] = bisect_left(
                    state.barrier_order,
                    self._message_barrier.get(m.msg_id, 0),
                )

        links = list(network.links.values())
        state.links = links
        state.pos = {link: i for i, link in enumerate(links)}
        state.rr = {link: 0 for link in links}
        state.req_mask = {link: 0 for link in links}
        # Input ports per router, in stable construction order, with the
        # NIC as the final port of every stop router.  The round-robin
        # pointer of each output link indexes this fixed port list, so
        # it keeps meaning something when the set of *requesting* ports
        # changes from cycle to cycle.
        ports: dict[str, list] = {}
        for link in links:
            inputs = ports.setdefault(link.dst_router, [])
            state.port_bit[link] = 1 << len(inputs)
            inputs.append(link)
            ports.setdefault(link.src_router, [])
        for router, inputs in ports.items():
            nic_dpu = self._nic_dpu(router)
            if nic_dpu >= 0:
                queue = _InjectionQueue(bit=1 << len(inputs))
                state.injection[nic_dpu] = queue
                inputs.append(queue)
        state.router_ports = ports
        # Arbitration ordering: plain links keep their stable position;
        # a shared medium's members are grouped at the position of the
        # medium's first member and ordered by its grant rotation: key =
        # position * len(links) + rotation.
        stride = len(links)
        group: dict[SharedMedium, int] = {}
        for i, link in enumerate(links):
            medium = link.medium
            if medium is not None:
                state.arb_base[link] = group.setdefault(medium, i * stride)
            else:
                state.arb_base[link] = i * stride
        for medium in group:
            for i, member in enumerate(medium.members):
                state.member_pos[member] = i
        return state

    def _arb_key(self, link: Link, state: _RunState) -> int:
        medium = link.medium
        if medium is None:
            return state.arb_base[link]
        rot = (state.member_pos[link] - medium.rr_index) % len(medium.members)
        return state.arb_base[link] + rot

    def _full_arb_order(self, state: _RunState) -> list[Link]:
        """Every output link in this cycle's arbitration order."""
        order: list[Link] = []
        seen: set[SharedMedium] = set()
        for link in state.links:
            medium = link.medium
            if medium is None:
                order.append(link)
            elif medium not in seen:
                seen.add(medium)
                order.extend(medium.grant_rotation())
        return order

    # -- request tracking ---------------------------------------------------------------
    # Every head-of-queue flit (input buffer or NIC) sets its port's bit
    # in the request mask of its next output link, or, at its stop, puts
    # its link in the eject-ready set.  The event loop arbitrates only
    # *active* links: requested and not parked.  A link that joins the
    # active set *during* switch allocation (a grant reveals a new head,
    # or returns a credit to a link waiting for one) joins the in-flight
    # worklist if its position has not been passed yet — exactly the
    # links the naive loop, which visits every link in order, would
    # still reach this cycle.  A medium member re-keyed by a bus grant
    # may be revisited; the busy bus refuses it again.
    def _wake(self, state: _RunState, link: Link) -> None:
        heap = state.arb_heap
        if heap is not None:
            key = self._arb_key(link, state)
            if key > state.arb_cursor:
                heapq.heappush(heap, (key, state.pos[link], link))
                return
        state.active.add(link)

    def _request(self, state: _RunState, link: Link, bit: int) -> None:
        mask = state.req_mask[link]
        state.req_mask[link] = mask | bit
        if not mask and link not in state.parked:
            self._wake(state, link)

    def _new_head(self, state: _RunState, link: Link) -> None:
        """The head of ``link``'s input buffer changed: file its request."""
        head = link.buffer[0]
        if head.hop_index >= len(head.path):
            state.eject_ready.add(link)
        else:
            self._request(
                state, head.path[head.hop_index], state.port_bit[link]
            )

    def _return_credit(self, state: _RunState, link: Link) -> None:
        link.return_credit()
        if state.parked.get(link) == _ON_CREDIT:
            del state.parked[link]
            self._wake(state, link)

    # -- shared per-cycle actions -------------------------------------------------------
    def _inject(self, message: Message, state: _RunState, now: int) -> None:
        message.inject_start_cycle = now
        path = self.network.path(message.src, message.dst)
        queue = state.injection[message.src]
        was_empty = not queue.flits
        for seq in range(message.num_flits):
            queue.flits.append(Flit(message=message, seq=seq, path=path))
        message.injected_flits = message.num_flits
        if was_empty:
            self._request(state, path[0], queue.bit)

    def _scan_injections(self, state: _RunState, now: int) -> None:
        """Step 1: move newly eligible messages into their NIC queues."""
        still_waiting: deque = deque()
        not_injected = state.not_injected
        while not_injected:
            m = not_injected.popleft()
            eligible = (
                m.ready_cycle <= now
                and self._deps_satisfied(m)
                and (not self.use_barriers or self._barrier_open(m, state))
            )
            if not eligible:
                still_waiting.append(m)
                continue
            self._inject(m, state, now)
        state.not_injected = still_waiting

    def _deliver(self, link: Link, state: _RunState, now: int) -> None:
        """Step 2 for one link: land due arrivals in its input buffer."""
        was_empty = not link.buffer
        if link.deliver_arrivals(now):
            if was_empty:
                self._new_head(state, link)
            occupancy = len(link.buffer)
            stats = state.stats
            if occupancy > stats.peak_buffer_occupancy:
                stats.peak_buffer_occupancy = occupancy
            if occupancy > stats.link_peak_queue_flits.get(link.name, 0):
                stats.link_peak_queue_flits[link.name] = occupancy

    def _eject(self, link: Link, state: _RunState, now: int) -> None:
        """Step 3 for one link: pop a head flit that reached its stop."""
        flit = link.buffer.popleft()
        state.eject_ready.discard(link)
        self._return_credit(state, link)
        if link.buffer:
            self._new_head(state, link)
        self._account_delivery(flit, now, state)
        state.remaining -= 1

    def _try_grant(
        self, link: Link, state: _RunState, now: int
    ) -> int | None:
        """Step 4 for one output link: round-robin switch allocation.

        The pointer rotates over the router's *stable* port list (input
        links in construction order, NIC last): the grant goes to the
        first requesting port at or after the pointer, and the pointer
        advances just past the grantee — so a persistently backlogged
        port can neither be starved nor double-served when the set of
        requesting ports changes.  The link's request mask finds that
        port (and whether another port also requests) with bit
        operations.  Returns the granted flit's arrival cycle, or None
        when no port requests this output.
        """
        mask = state.req_mask[link]
        if not mask:
            return None
        pointer = state.rr[link]
        later = mask >> pointer
        if later:
            chosen = pointer + (later & -later).bit_length() - 1
        else:
            chosen = (mask & -mask).bit_length() - 1
        stats = state.stats
        if mask & (mask - 1):
            stats.arbitration_conflicts += 1
        ports = state.router_ports[link.src_router]
        state.rr[link] = (chosen + 1) % len(ports)
        state.req_mask[link] = mask ^ (1 << chosen)
        port = ports[chosen]
        if isinstance(port, _InjectionQueue):
            flit = port.flits.popleft()
            if port.flits:
                self._request(state, port.flits[0].path[0], port.bit)
            port_label = "nic"
        else:
            flit = port.buffer.popleft()
            self._return_credit(state, port)
            if port.buffer:
                self._new_head(state, port)
            port_label = port.name
        flit.hop_index += 1
        flit.arrival_link = None
        arrival = link.start_traversal(flit, now)
        stats.total_flit_hops += 1
        # Actual occupancy, not the nominal interval: fault injection
        # (degradation factors, retransmissions) can stretch it.
        stats.link_busy_cycles[link.name] = (
            stats.link_busy_cycles.get(link.name, 0)
            + (link.next_free_cycle - now)
        )
        if self.record_grants:
            stats.grant_log.setdefault(link.name, []).append(port_label)
            if link.medium is not None:
                stats.medium_grant_log.setdefault(
                    link.medium.name, []
                ).append(link.name)
        if link.medium is not None:
            link.medium.advance_after(link)
        return arrival

    def _finalize(self, state: _RunState, cycles: int) -> SimStats:
        stats = state.stats
        stats.cycles = cycles
        stats.messages_delivered = sum(
            1 for m in self.messages.values() if m.delivered
        )
        for link in state.links:
            stats.flits_corrupted += link.corrupted_flits
            stats.retry_cycles_paid += link.retry_cycles_paid
        return stats

    # -- event-driven main loop --------------------------------------------------------
    def _run(self, max_cycles: int) -> SimStats:
        state = self._prepare()
        stats = state.stats
        if state.remaining == 0:
            # An empty run is legal and well-defined: no cycles elapse,
            # nothing is delivered, and the stats come back clean.
            return self._finalize(state, 0)

        ready = sorted(m.ready_cycle for m in state.not_injected)
        arrivals: list[tuple[int, int, Link]] = []
        wakes: list[tuple[int, int, Link]] = []
        parked = state.parked
        req_mask = state.req_mask
        pos = state.pos
        now = -1

        while state.remaining > 0:
            # The next cycle that can differ from the last: the next one
            # while work is pending now, else the earliest message ready
            # time, flit arrival, or parked link's wake cycle.
            if (
                state.active
                or state.eject_ready
                or (state.inject_dirty and state.not_injected)
            ):
                nxt = now + 1
            else:
                upcoming = [heap[0][0] for heap in (arrivals, wakes) if heap]
                if ready:
                    upcoming.append(ready[0])
                if not upcoming:
                    raise SimulationError(
                        f"NoC simulation deadlocked at cycle {now} with "
                        f"{state.remaining} flits outstanding and no "
                        "pending events — circular dependency or credit "
                        "starvation"
                    )
                nxt = min(upcoming)
            if nxt >= max_cycles:
                raise SimulationError(
                    f"NoC simulation exceeded {max_cycles} cycles with "
                    f"{state.remaining} flits outstanding — deadlock or "
                    "pathological contention"
                )
            stats.idle_cycles_skipped += nxt - now - 1
            now = nxt
            stats.events_processed += 1

            # Parked links whose wake cycle has come rejoin arbitration.
            while wakes and wakes[0][0] <= now:
                link = heapq.heappop(wakes)[2]
                del parked[link]
                if req_mask[link]:
                    state.active.add(link)

            # 1. inject newly eligible messages into their NIC queues.
            # Eligibility only changes at ready times or after
            # deliveries (deps/barriers), so the scan is gated.
            while ready and ready[0] <= now:
                heapq.heappop(ready)
                state.inject_dirty = True
            if state.inject_dirty:
                state.inject_dirty = False
                if state.not_injected:
                    self._scan_injections(state, now)

            # 2. deliver in-flight flits into downstream buffers
            while arrivals and arrivals[0][0] <= now:
                self._deliver(heapq.heappop(arrivals)[2], state, now)

            # 3. eject flits that reached their destination (head of FIFO)
            if state.eject_ready:
                for link in sorted(state.eject_ready, key=pos.__getitem__):
                    self._eject(link, state, now)

            # 4. switch allocation over the active links, visited in the
            # reference loop's global order.  Every visited link parks:
            # a granted one until it is free again, a refused one on
            # what refused it (a credit, or the cycle its serialisation,
            # its medium's, or a fault window ends).
            active = state.active
            if active:
                worklist = [
                    (self._arb_key(link, state), pos[link], link)
                    for link in active
                ]
                heapq.heapify(worklist)
                active.clear()
                state.arb_heap = worklist
                while worklist:
                    key, _, link = heapq.heappop(worklist)
                    state.arb_cursor = key
                    stats.arbitration_visits += 1
                    if link.can_accept(now):
                        # Parked before the grant, so a request the grant
                        # reveals for this same link cannot reactivate it.
                        parked[link] = now
                        arrival = self._try_grant(link, state, now)
                        heapq.heappush(arrivals, (arrival, pos[link], link))
                        wake = link.next_free_cycle
                    elif link.credits <= 0:
                        parked[link] = _ON_CREDIT
                        continue
                    else:
                        wake = link.wake_cycle(now)
                    parked[link] = wake
                    heapq.heappush(wakes, (wake, pos[link], link))
                state.arb_heap = None
                state.arb_cursor = -1

        return self._finalize(state, now + 1)

    # -- naive reference loop ------------------------------------------------------------
    def _run_reference(self, max_cycles: int = 50_000_000) -> SimStats:
        """The original busy-spinning O(cycles x links) loop.

        Kept as the behavioural oracle for the event-driven loop: it
        evaluates every link every cycle, and equivalence tests assert
        its stats match :meth:`run` byte-for-byte.  Both loops share the
        injection/delivery/ejection/arbitration helpers, so they differ
        only in *which cycles and links* they visit.
        """
        state = self._prepare()
        stats = state.stats
        if state.remaining == 0:
            return self._finalize(state, 0)
        now = 0
        while state.remaining > 0:
            if now >= max_cycles:
                raise SimulationError(
                    f"NoC simulation exceeded {max_cycles} cycles with "
                    f"{state.remaining} flits outstanding — deadlock or "
                    "pathological contention"
                )
            if state.not_injected:
                self._scan_injections(state, now)
            for link in state.links:
                self._deliver(link, state, now)
            for link in state.links:
                buf = link.buffer
                if buf and buf[0].at_destination:
                    self._eject(link, state, now)
            for link in self._full_arb_order(state):
                if link.can_accept(now):
                    self._try_grant(link, state, now)
            now += 1
        stats.events_processed = now
        stats.arbitration_visits = now * len(state.links)
        return self._finalize(state, now)

    # -- helpers -----------------------------------------------------------------------
    def _nic_dpu(self, router: str) -> int:
        """DPU id whose NIC feeds ``router`` (only stops have NICs)."""
        if not router.startswith("stop:"):
            return -1
        _, r, c, b = router.split(":")
        return self.network.shape.dpu(int(r), int(c), int(b))

    def _account_delivery(
        self, flit: Flit, now: int, state: _RunState
    ) -> None:
        message = flit.message
        message.delivered_flits += 1
        state.stats.flits_delivered += 1
        if self.use_barriers:
            barrier = self._message_barrier.get(message.msg_id, 0)
            outstanding = state.outstanding
            if barrier in outstanding:
                outstanding[barrier] -= 1
                order = state.barrier_order
                while (
                    state.frontier < len(order)
                    and outstanding[order[state.frontier]] == 0
                ):
                    state.frontier += 1
                    state.inject_dirty = True
        if message.delivered:
            message.complete_cycle = now
            start = message.inject_start_cycle or 0
            state.stats.per_message_latency[message.msg_id] = now - start
            state.inject_dirty = True
