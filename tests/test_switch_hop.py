"""The one-call switch hop: an arrival at an idle, empty egress port starts
transmitting inside ``Switch.receive`` instead of going through the port's
queue.  Every test here builds two identical worlds, forwards the same packet
through the collapsed hop in one and through the queued path
(``Port.enqueue`` then ``Port._kick``) in the other, and requires the same
side effects: scheduled events in the same order, the same telemetry stream,
and the same buffer, PFC, port and packet state.
"""

import pytest

from repro.sim.engine import Simulator
from repro.sim.packet import DATA, Packet
from repro.sim.pfc import PfcConfig
from repro.sim.port import Port
from repro.sim.switch import SwitchConfig
from repro.topology import fat_tree, star


class OrderedLog:
    """Telemetry sink keeping every hook call, across channels, in order."""

    enabled = True

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args: self.calls.append((name,) + args)


def world(cfg: SwitchConfig):
    sim = Simulator(1)
    sim.telemetry = OrderedLog()
    net, senders, recv = star(sim, 2, rate_bps=10e9, link_delay_ns=500, switch_cfg=cfg)
    sw = net.switches[0]
    return sim, net, sw, senders, recv


def queued_receive(sw, pkt, in_idx):
    """The queued path for the same arrival: admission and PFC accounting,
    then ``Port.enqueue``, whose ``_kick`` transmits and calls back into the
    switch to release the buffer and the PFC counter."""
    port = sw.ports[sw.routes[pkt.dst][0]]
    prio, size = pkt.priority, pkt.size
    lossless = prio < sw._n_lossless
    buf = sw.buffer
    from_headroom = 0
    if not buf.try_admit_shared(port.qbytes[prio], size):
        assert lossless and buf.try_admit_headroom(size)
        from_headroom = 1
    if lossless:
        sw._pfc_state(in_idx, prio).on_enqueue(size)
    sw.forwarded += 1
    port.enqueue(pkt, in_idx << 1 | from_headroom)


def _norm(x, pkt):
    if x is pkt:
        return "pkt"
    if isinstance(x, tuple):
        return tuple(_norm(y, pkt) for y in x)
    return x


def state(sim, sw, port, pkt):
    """Everything the hop can touch, with object identities normalised."""
    heap = []
    for time, seq, fn, args in sorted(sim._heap, key=lambda e: e[:2]):
        if fn is None:  # a cancellable event: the handle carries fn/args
            fn, args = args.fn, args.args
        heap.append((time, seq, fn.__qualname__, _norm(args, pkt)))
    buf, stats = sw.buffer, sw.buffer.stats
    hops = pkt.int_hops
    return {
        "heap": heap,
        "seq": sim._seq,
        "pending": sim.pending,
        "telemetry": [_norm(c, pkt) for c in sim.telemetry.calls],
        "buffer": (buf.shared_used, buf.headroom_used, stats.admitted_shared,
                   stats.admitted_headroom, stats.peak_shared, stats.peak_headroom,
                   stats.dropped),
        "pfc": {k: (s.bytes, s.pause_sent, s.pauses_sent, s.resumes_sent)
                for k, s in sw._pfc.items()},
        "port": (port.busy, port.total_bytes, list(port.qbytes), port._active,
                 port.tx_bytes_total, port.tx_packets_total),
        "switch": (sw.forwarded, sw.drops),
        "pkt": (pkt.ecn, None if hops is None else
                [(h.qlen, h.tx_bytes, h.ts, h.rate_bps) for h in hops]),
    }


def both_paths(monkeypatch, cfg, prepare=None, size=1000, int_hops=False):
    """Forward one packet through each path; returns (collapsed, queued) states
    right after the hop and after both worlds ran to completion."""
    out = []
    for collapsed in (True, False):
        sim, net, sw, senders, recv = world(cfg)
        port = net.path_ports(senders[0], recv)[-1]
        in_idx = senders[0].port.peer_in_idx
        if prepare is not None:
            prepare(sim, sw, port)
        sim.telemetry.calls.clear()
        pkt = Packet(DATA, size, src=senders[0].node_id, dst=recv.node_id, flow_id=1)
        if int_hops:
            pkt.int_hops = []
        assert not port.busy and not port.total_bytes
        if collapsed:
            enqueues = []
            real = Port.enqueue
            monkeypatch.setattr(Port, "enqueue",
                                lambda self, p, ctx=None: (enqueues.append(p), real(self, p, ctx)))
            sw.receive(pkt, in_idx)
            monkeypatch.undo()
            # the collapsed hop never touches the port's queue
            assert enqueues == []
        else:
            queued_receive(sw, pkt, in_idx)
        after_hop = state(sim, sw, port, pkt)
        sim.run()
        out.append((after_hop, (sim.now, sim.events_processed, recv.rx_packets)))
    return out


def test_plain_hop_matches_queued_path(monkeypatch):
    (fast, fast_end), (ref, ref_end) = both_paths(monkeypatch, SwitchConfig(n_queues=2))
    assert fast == ref
    assert fast_end == ref_end
    # two bare heap tuples: the wake-up at the end of tx, the delivery one
    # propagation delay later, scheduled delivery first
    (wake, deliver) = fast["heap"]
    assert (wake[2], deliver[2]) == ("Port._tx_wake", "Host.receive")
    assert deliver[0] - wake[0] == 500 and deliver[1] < wake[1]


def test_dynamic_xoff_pause_at_idle_port(monkeypatch):
    cfg = SwitchConfig(n_queues=2, buffer_bytes=64_000, ideal_headroom=True,
                       pfc=PfcConfig(enabled=True, xoff_bytes=50_000, dynamic=True,
                                     dyn_alpha=0.5))

    def nearly_full(sim, sw, port):
        # leave 1.5 kB free: a 1 kB arrival pushes the dynamic xoff
        # (0.5 x free = 250 B) below the ingress backlog
        assert sw.buffer.try_admit_shared(0, sw.buffer.shared_capacity - 1_500)

    (fast, fast_end), (ref, ref_end) = both_paths(monkeypatch, cfg, nearly_full)
    assert fast == ref
    assert fast_end == ref_end
    ((_key, (backlog, paused, pauses, resumes)),) = fast["pfc"].items()
    # PAUSE on the arrival, RESUME as the same packet leaves: both upstream
    assert (backlog, paused, pauses, resumes) == (0, False, 1, 1)
    signals = [e for e in fast["heap"] if e[2] == "Port.set_paused"]
    assert [e[3] for e in signals] == [(0, True), (0, False)]
    assert [c[0] for c in fast["telemetry"]].count("pfc") == 2


def test_ecn_mark_on_empty_queue(monkeypatch):
    cfg = SwitchConfig(n_queues=2, ecn_k_bytes=800)
    (fast, fast_end), (ref, ref_end) = both_paths(monkeypatch, cfg, size=1000)
    assert fast == ref
    assert fast_end == ref_end
    assert fast["pkt"][0] is True  # 1000 B > ecn_k on an empty queue
    assert ("ecn_mark",) == fast["telemetry"][1][:1]
    # at or under the threshold nothing is marked
    (small, _), (small_ref, _) = both_paths(monkeypatch, cfg, size=800)
    assert small == small_ref
    assert small["pkt"][0] is False


def test_int_hop_stamped_with_zero_queue(monkeypatch):
    def sent_before(sim, sw, port):
        port.tx_bytes_total = 12_345

    (fast, fast_end), (ref, ref_end) = both_paths(
        monkeypatch, SwitchConfig(n_queues=2), sent_before, int_hops=True)
    assert fast == ref
    assert fast_end == ref_end
    assert fast["pkt"][1] == [(0, 12_345, 0, 10e9)]
    assert fast["port"][4] == 12_345 + 1000


def test_admission_counters_match(monkeypatch):
    def partly_used(sim, sw, port):
        assert sw.buffer.try_admit_shared(0, 5_000)

    (fast, _), (ref, _) = both_paths(monkeypatch, SwitchConfig(n_queues=2), partly_used)
    assert fast["buffer"] == ref["buffer"]
    shared_used, headroom_used, admitted, _h, peak, _ph, dropped = fast["buffer"]
    # admitted and released within the hop: the peak saw the packet
    assert (shared_used, headroom_used, admitted, peak, dropped) == (5_000, 0, 2, 6_000, 0)


def test_headroom_admitted_packet_releases_to_headroom(monkeypatch):
    cfg = SwitchConfig(n_queues=2, buffer_bytes=64_000, ideal_headroom=True,
                       pfc=PfcConfig(enabled=True, xoff_bytes=50_000, dynamic=False))

    def shared_full(sim, sw, port):
        assert sw.buffer.try_admit_shared(0, sw.buffer.shared_capacity)

    (fast, fast_end), (ref, ref_end) = both_paths(monkeypatch, cfg, shared_full)
    assert fast == ref
    assert fast_end == ref_end
    shared_used, headroom_used, _a, admitted_headroom, _p, peak_headroom, _d = fast["buffer"]
    assert (headroom_used, admitted_headroom, peak_headroom) == (0, 1, 1000)
    assert shared_used == 64_000  # the shared pool was never charged


def test_busy_or_paused_port_takes_the_queue():
    sim, net, sw, senders, recv = world(SwitchConfig(n_queues=2))
    port = net.path_ports(senders[0], recv)[-1]
    in_idx = senders[0].port.peer_in_idx

    def pkt(seq, prio=0):
        return Packet(DATA, 1000, src=senders[0].node_id, dst=recv.node_id, flow_id=1,
                      seq=seq, priority=prio)

    port.set_paused(1, True)
    sw.receive(pkt(0, prio=1), in_idx)  # paused class: parks in queue 1
    assert port.qbytes[1] == 1000 and not port.busy
    sw.receive(pkt(1), in_idx)  # idle but not empty: still the queued path
    assert port.busy and port.qbytes == [0, 1000]
    sw.receive(pkt(2), in_idx)  # busy: queued behind the one on the wire
    assert port.qbytes == [1000, 1000]
    port.set_paused(1, False)
    sim.run()
    assert recv.rx_packets == 3
    assert sw.buffer.shared_used == 0


def test_route_memo_forgotten_on_reboot():
    sim = Simulator(1)
    net, hosts = fat_tree(sim, k=4, rate_bps=10e9, switch_cfg=SwitchConfig(n_queues=2))
    src, dst = hosts[0], hosts[-1]
    edge = src.port.peer
    agg_ports = [p for p in edge.ports if p.peer not in hosts]

    def send(flow_id):
        src.send(Packet(DATA, 1000, src=src.node_id, dst=dst.node_id, flow_id=flow_id))
        sim.run()

    send(1)
    assert edge._route_cache  # the ECMP pick toward dst is memoised
    for h in hosts:
        if h.port.peer is edge and h is not src:
            src.send(Packet(DATA, 1000, src=src.node_id, dst=h.node_id, flow_id=2))
    sim.run()
    assert edge._egress  # the single-route pick toward a neighbour too
    edge.reboot()
    assert not edge._egress and not edge._route_cache
    # the memo follows the rebuilt routes: with one uplink left, every flow
    # takes it, whatever its cached pick before the reboot
    edge.power_on()
    net.set_link_state(edge, agg_ports[0].peer, up=False)
    net.rebuild_routes()
    before = agg_ports[1].tx_packets_total
    for flow_id in range(1, 9):
        send(flow_id)
    assert agg_ports[1].tx_packets_total == before + 8
    assert dst.rx_packets == 9


def test_unconnected_port_refuses_to_transmit():
    sim = Simulator()
    port = Port(sim, 8e9, n_queues=2, name="loose")
    with pytest.raises(RuntimeError, match="unconnected"):
        port.enqueue(Packet(DATA, 100, src=0, dst=1, flow_id=1))

