"""Output port with strict-priority queues.

One :class:`Port` models the egress side of a link: per-priority FIFO queues,
a strict-priority scheduler (higher queue index = higher priority, matching
the paper's convention), PFC pause flags per priority, ECN marking, and INT
stamping for HPCC.

The port dequeues a packet when it *starts* transmitting it; buffer
accounting is released at that point (start-of-transmission freeing, the
convention used by ns-3's qbb model).

Hot-path design (see docs/PERFORMANCE.md): starting a transmission at ``t0``
pushes two bare heap tuples — the peer's ``receive`` at ``t2 = t0 + tx +
prop`` and the end-of-transmission wake-up at ``t1 = t0 + tx``, which frees
the port and re-arms the scheduler — so a packet hop costs zero
``EventHandle`` objects.  Both callables are bound once (``_deliver`` at
:meth:`connect`, ``_wake`` at construction).  A switch forwarding onto an idle,
empty port calls :meth:`Port.start_tx` itself (see
:meth:`repro.sim.switch.Switch.receive`), so the packet never enters a queue.

PFC/cut semantics are unchanged: a pause or ``cut()`` landing between
start-of-tx and delivery still only gates the *next* dequeue (the in-flight
packet keeps its delivery, exactly as before), because pause/down checks
always run at dequeue time.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, List, Optional

from ..probes import OFF
from .engine import Simulator
from .packet import PACKET_POOL, IntHop, Packet

__all__ = ["Port"]


class Port:
    """Egress port: priority queues + strict-priority scheduler + one link."""

    __slots__ = (
        "sim",
        "name",
        "rate_bps",
        "_ns_per_byte",
        "_tx_cache",
        "n_queues",
        "queues",
        "qbytes",
        "_active",
        "total_bytes",
        "paused",
        "busy",
        "prop_delay_ns",
        "peer",
        "peer_in_idx",
        "_deliver",
        "_wake",
        "ecn_k",
        "tx_bytes_total",
        "tx_packets_total",
        "on_dequeue",
        "stamp_int",
        "local_queues",
        "ecn_marker",
        "down",
        "dropped_on_cut",
        "impairment",
        "telemetry",
        "audit",
        "tracer",
    )

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        n_queues: int = 8,
        ecn_k: Optional[int] = None,
        name: str = "port",
        stamp_int: bool = False,
        local_queues: bool = False,
    ):
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self._ns_per_byte = 8e9 / rate_bps
        self._tx_cache = {}
        self.n_queues = n_queues
        self.queues: List[deque] = [deque() for _ in range(n_queues)]
        self.qbytes = [0] * n_queues
        #: bitmask of non-empty queues: the scheduler finds the highest
        #: candidate with one bit_length() instead of scanning 18 deques
        self._active = 0
        self.total_bytes = 0
        self.paused = [False] * n_queues
        self.busy = False
        self.prop_delay_ns = 0
        self.peer = None  # receiving node
        self.peer_in_idx = 0  # index of this link at the peer's ingress
        #: ``peer.receive`` and ``self._tx_wake``, bound once for the heap
        self._deliver = None
        self._wake = self._tx_wake
        #: per-queue ECN marking threshold in bytes (None disables marking)
        self.ecn_k = ecn_k
        self.tx_bytes_total = 0
        self.tx_packets_total = 0
        #: callback(pkt, ctx) invoked when a packet leaves the queues
        self.on_dequeue: Optional[Callable[[Packet, Any], None]] = None
        self.stamp_int = stamp_int
        #: host-NIC mode: queue index comes from pkt.local_prio (virtual
        #: priority) while PFC pause still applies per *physical* class, by
        #: inspecting the head packet's `priority` field.
        self.local_queues = local_queues
        #: optional custom ECN hook: callable(pkt, queue_bytes) -> bool,
        #: overriding the uniform `ecn_k` threshold (Appendix-B extension)
        self.ecn_marker = None
        #: administratively/physically down: nothing transmits
        self.down = False
        self.dropped_on_cut = 0
        #: optional link impairment (see repro.faults.actors.LinkImpairment):
        #: an object with ``transmit(t2) -> int`` returning the (possibly
        #: delayed) delivery time, or a negative value to corrupt the packet
        #: on the wire.  ``None`` (the default) keeps the hot path to a
        #: single attribute check.
        self.impairment = None
        #: telemetry hook (see repro.telemetry); disabled path is one check
        self.telemetry = getattr(sim, "telemetry", OFF)
        #: invariant auditor snapshot (see repro.audit)
        self.audit = sim.audit
        if self.audit.enabled:
            self.audit.register_port(self)
        #: causal packet tracer snapshot (see repro.obs.tracer); the untraced
        #: path is one flag check per hook site
        self.tracer = getattr(sim, "tracer", OFF)
        smp = getattr(sim, "sampler", OFF)
        if smp.enabled:
            smp.register_port(self)

    # ------------------------------------------------------------------
    @property
    def ns_per_byte(self) -> float:
        return self._ns_per_byte

    @ns_per_byte.setter
    def ns_per_byte(self, value: float) -> None:
        # rate changes invalidate the memoised serialisation times
        self._ns_per_byte = value
        self._tx_cache.clear()

    def connect(self, peer, prop_delay_ns: int, peer_in_idx: int = 0) -> None:
        """Attach the downstream node reached through this port."""
        self.peer = peer
        self.prop_delay_ns = int(prop_delay_ns)
        self.peer_in_idx = peer_in_idx
        self._deliver = peer.receive

    def tx_time_ns(self, size_bytes: int) -> int:
        """Serialisation time, memoised per size (MTU/ACK sizes dominate)."""
        cache = self._tx_cache
        t = cache.get(size_bytes)
        if t is None:
            t = cache[size_bytes] = max(1, int(size_bytes * self._ns_per_byte))
        return t

    # ------------------------------------------------------------------
    @property
    def is_idle(self) -> bool:
        """No packet queued or on the wire from this port.

        The fluid fast path (:mod:`repro.fluid.hybrid`) drains the fabric
        until every port is idle before a fluid epoch, which is what makes
        the fluid→packet handoff exact: an empty network has no in-flight
        packet state to re-materialise.
        """
        return not self.total_bytes and not self.busy

    def export_state(self) -> dict:
        """Bulk occupancy/throughput snapshot (introspection + handoff checks).

        Import is deliberately not offered: the hybrid core only hands off
        on an *empty* port (see :attr:`is_idle`), so there is never packet
        state to restore; whole-world checkpointing goes through
        :mod:`repro.sim.snapshot` instead.
        """
        return {
            "name": self.name,
            "total_bytes": self.total_bytes,
            "qbytes": list(self.qbytes),
            "queued_packets": sum(len(q) for q in self.queues),
            "busy": self.busy,
            "paused": list(self.paused),
            "down": self.down,
            "tx_bytes_total": self.tx_bytes_total,
            "tx_packets_total": self.tx_packets_total,
        }

    def enqueue(self, pkt: Packet, ctx: Any = None) -> None:
        """Queue a packet for transmission (admission already decided).

        ``ctx`` is opaque owner context handed back through ``on_dequeue``;
        it rides in ``pkt.ctx`` so a queue entry is the bare packet.
        """
        if self.local_queues and pkt.local_prio >= 0:
            q = pkt.local_prio
            if q >= self.n_queues:
                q = self.n_queues - 1
        else:
            q = pkt.priority
        size = pkt.size
        qbytes = self.qbytes
        marked = (self.ecn_marker is not None or self.ecn_k is not None) and self.ecn_mark(
            pkt, qbytes[q]
        )
        pkt.ctx = ctx
        self.queues[q].append(pkt)
        self._active |= 1 << q
        qbytes[q] += size
        self.total_bytes += size
        tel = self.telemetry
        if tel.enabled:
            now = self.sim.now
            if marked:
                tel.ecn_mark(now, self.name, q)
            tel.queue_depth(now, self.name, q, qbytes[q], self.total_bytes)
        trc = self.tracer
        if trc.enabled and pkt.trace is not None:
            # before the kick: _kick may start transmitting this very packet
            trc.enqueued(pkt.trace, self.name, q, self.sim.now)
        if not self.busy:
            self._kick()

    def ecn_mark(self, pkt: Packet, queued_bytes: int) -> bool:
        """Mark ``pkt`` CE if it joins a queue holding ``queued_bytes``.

        The custom :attr:`ecn_marker` overrides the ``ecn_k`` threshold.
        Callers skip the call when neither is set.
        """
        marker = self.ecn_marker
        if marker is not None:
            hit = marker(pkt, queued_bytes)
        else:
            hit = queued_bytes + pkt.size > self.ecn_k
        if hit:
            pkt.ecn = True
        return hit

    def set_paused(self, prio: int, paused: bool) -> None:
        """PFC pause/resume for one *physical* priority class."""
        if prio < 0 or prio >= len(self.paused):
            raise ValueError(
                f"{self.name}: PFC priority {prio} out of range [0, {len(self.paused)})"
            )
        self.paused[prio] = paused
        trc = self.tracer
        if trc.enabled:
            trc.pause_change(self.name, prio, paused, self.sim.now)
        if not paused and not self.busy:
            self._kick()

    def kick(self) -> None:
        """Re-evaluate the scheduler (e.g. after a resume or new packet)."""
        if not self.busy:
            self._kick()

    # ------------------------------------------------------------------
    def cut(self) -> int:
        """Take the link down, dropping everything queued (a fibre cut).

        Returns the number of packets dropped.  Buffer accounting is
        released through the usual dequeue callback.  The in-flight packet
        (if any) is *not* recalled — it is already on the wire.

        Cut/restore contract: :meth:`cut` drops every queued packet (the
        count is returned, and also accumulated in ``dropped_on_cut``) and
        marks the port ``down``; :meth:`restore` brings it back up and
        returns the number of packets re-admitted — always ``0`` here,
        because a cut *drops* rather than parks.  PFC ``paused`` flags are
        untouched by both: pause state belongs to the PFC control plane and
        survives a link flap (a rebooting *switch* loses it instead, see
        :meth:`~repro.sim.switch.Switch.reboot`).  Both operations are
        idempotent.
        """
        was_busy = self.busy
        self.down = True
        dropped = 0
        drained: List[int] = []
        aud = self.audit
        trc = self.tracer
        for q in range(self.n_queues):
            queue = self.queues[q]
            if not queue:
                continue
            drained.append(q)
            while queue:
                pkt = queue.popleft()
                self.qbytes[q] -= pkt.size
                self.total_bytes -= pkt.size
                if self.on_dequeue is not None:
                    self.on_dequeue(pkt, pkt.ctx)
                if aud.enabled:
                    aud.packet_dropped("link_cut", pkt.size)
                if trc.enabled and pkt.trace is not None:
                    trc.finish(pkt.trace, self.sim.now, "dropped:link_cut")
                PACKET_POOL.release(pkt)
                dropped += 1
        self._active = 0
        self.dropped_on_cut += dropped
        tel = self.telemetry
        if tel.enabled:
            now = self.sim.now
            for q in drained:
                tel.queue_depth(now, self.name, q, self.qbytes[q], self.total_bytes)
            if was_busy:
                # the wire goes dead mid-serialisation: report idle from the
                # cut instant instead of the never-reached end of tx
                tel.link(now, self.name, False)
        return dropped

    def restore(self) -> int:
        """Bring the link back up and resume transmission.

        Returns the number of packets re-admitted into the queues — ``0``
        for this port model, which drops on :meth:`cut` instead of parking
        (see the cut/restore contract there).  The ``int`` return keeps the
        cut/restore pair symmetric for callers that aggregate drop counts,
        e.g. :meth:`repro.sim.network.Network.set_link_state`.
        """
        self.down = False
        if not self.busy:
            self._kick()
        return 0

    def _kick(self) -> None:
        if self.down or not self.total_bytes:
            return
        # strict priority over the non-empty bitmask: the highest queue whose
        # head's physical class isn't paused
        queues = self.queues
        paused = self.paused
        n_paused = len(paused)
        sel = self._active
        while True:
            if not sel:
                return
            q = sel.bit_length() - 1
            queue = queues[q]
            phys = queue[0].priority
            if phys < n_paused and paused[phys]:
                sel ^= 1 << q  # paused head: mask this queue for this pass
                continue
            break
        pkt = queue.popleft()
        if not queue:
            self._active ^= 1 << q
        size = pkt.size
        qbytes = self.qbytes
        qbytes[q] -= size
        total = self.total_bytes = self.total_bytes - size
        self.busy = True
        now = self.sim.now
        tel = self.telemetry
        if tel.enabled:
            tel.queue_depth(now, self.name, q, qbytes[q], total)
            tel.link(now, self.name, True)
        if self.stamp_int and pkt.int_hops is not None:
            pkt.int_hops.append(IntHop(total, self.tx_bytes_total, now, self.rate_bps))
        if self.on_dequeue is not None:
            self.on_dequeue(pkt, pkt.ctx)
        self.start_tx(pkt, size, now)

    def start_tx(self, pkt: Packet, size: int, now: int) -> None:
        """Put a dequeued packet on the wire at ``now``.

        Counts it, then pushes two bare heap tuples: the delivery at ``t2 =
        now + tx + prop`` and the end-of-transmission wake-up at ``t1 = now
        + tx``.  The caller has already marked the port busy and released
        the packet's buffer charge.
        """
        self.tx_bytes_total += size
        self.tx_packets_total += 1
        try:
            tx = self._tx_cache[size]
        except KeyError:
            tx = self.tx_time_ns(size)
        t1 = now + tx
        deliver = self._deliver
        if deliver is None:
            raise RuntimeError(f"{self.name}: transmitting on an unconnected port")
        t2 = t1 + self.prop_delay_ns
        sim = self.sim
        imp = self.impairment
        if imp is not None:
            # degraded link: the packet still occupies the wire for its
            # full serialisation time, but may be corrupted (never
            # delivered) or delivered late (delay spike)
            t2 = imp.transmit(t2)
            if t2 < 0:
                aud = self.audit
                if aud.enabled:
                    aud.packet_corrupted(pkt.size)
                trc = self.tracer
                if trc.enabled and pkt.trace is not None:
                    trc.start_tx(pkt.trace, now, tx, 0, pkt.priority)
                    trc.finish(pkt.trace, t1, "corrupted")
                PACKET_POOL.release(pkt)
                sim.call_at(t1, self._wake)
                return
        trc = self.tracer
        if trc.enabled and pkt.trace is not None:
            # prop is measured t2 - t1 so impairment delay spikes land in
            # the propagation component and spans keep summing to e2e
            trc.start_tx(pkt.trace, now, tx, t2 - t1, pkt.priority)
        seq = sim._seq
        sim._seq = seq + 2
        sim._live += 2
        heap = sim._heap
        heappush(heap, (t2, seq + 1, deliver, (pkt, self.peer_in_idx)))
        heappush(heap, (t1, seq + 2, self._wake, ()))

    def _tx_wake(self) -> None:
        """End-of-transmission: free the port and re-arm the scheduler."""
        self.busy = False
        tel = self.telemetry
        if tel.enabled and not self.down:
            tel.link(self.sim.now, self.name, False)
        if self.total_bytes:
            self._kick()
