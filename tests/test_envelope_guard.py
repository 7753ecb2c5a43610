"""A packet is inside at most one NoC transfer at a time.

What a transfer needs besides the frame -- its destination, hop count,
size on a channel and the instant its engine queued it -- must never be
needed twice at once for one packet: a packet handed to the on-chip
network again while an earlier transfer of it is still live would
overwrite what that transfer still reads.  This guard watches every
place a transfer begins and every place one ends, on the shapes that
exercise each of them, and fails the moment a packet begins a transfer
while another is live.

A transfer begins at a port's ``send`` (called straight from an
engine, or scheduled one lookup cycle later), at ``Engine._loopback``
(a local re-entry), or at the train lane's mid-service hand-off (a
pending ``Engine._finish``).  It ends at the engine's ``_finish``, a
wire drop, a blackhole, a crash loss, a PIFO drop or eviction, or a
delivery to an endpoint that is not an engine (a health monitor).
Every shape runs to quiescence, where no transfer may be left live.
"""

import sys
from collections import Counter
from contextlib import ExitStack
from unittest import mock

from repro.core import PanicConfig, PanicNic
from repro.engines.base import FAULT_CRASH, Engine
from repro.faults import FaultInjector, FaultPlan, attach_health_monitor
from repro.lb.rack import lb_rack_topology
from repro.noc.channel import Channel
from repro.noc.router import Endpoint
from repro.packet import Packet, build_udp_frame
from repro.sched.pifo import PifoQueue
from repro.sim import Simulator
from repro.sim.clock import NS, US
from repro.sim.shard import run_monolithic
from repro.workloads.rack import rack_topology


class EnvelopeGuard:
    """Counts transfer begins and ends per site; raises on overlap."""

    def __init__(self):
        self.live = {}  # id(packet) -> packet, kept alive so ids stay unique
        self.begun = Counter()
        self.ended = Counter()
        self._looping = None

    def begin(self, packet, site):
        if id(packet) in self.live:
            raise AssertionError(
                f"{packet!r} began a NoC transfer ({site}) while an "
                "earlier transfer of it was still live")
        self.live[id(packet)] = packet
        self.begun[site] += 1

    def end(self, packet, why):
        if self.live.pop(id(packet), None) is not None:
            self.ended[why] += 1

    def patches(self):
        guard = self
        port_send = Channel.send
        receive = Engine.receive
        loopback = Engine._loopback
        finish = Engine._finish
        fail = Engine.fail
        endpoint_try = Endpoint.try_receive
        spend_fault = Channel._spend_fault
        push = PifoQueue.push
        evict = PifoQueue._evict_worse_droppable
        schedule_at = Simulator.schedule_at

        def via():
            # Who called the patched method: an engine ("send",
            # "_rx_arrival") or the kernel's drain loop ("run").
            return sys._getframe(2).f_code.co_name

        def guarded_port_send(self, packet, dest_addr):
            guard.begin(packet, f"send via {via()}")
            return port_send(self, packet, dest_addr)

        def guarded_loopback(self, packet):
            if id(packet) in guard.live:
                guard.begin(packet, "loopback")  # raises
            outer, guard._looping = guard._looping, (packet, via())
            try:
                return loopback(self, packet)
            finally:
                guard._looping = outer

        def guarded_receive(self, packet):
            if id(packet) not in guard.live:
                looping = guard._looping
                site = (f"loopback via {looping[1]}"
                        if looping is not None and looping[0] is packet
                        else "receive")
                guard.begin(packet, site)
            receive(self, packet)
            if self.fault_mode == FAULT_CRASH:
                guard.end(packet, "blackhole")

        def guarded_finish(self, packet):
            guard.end(packet, "finish")
            return finish(self, packet)

        def guarded_fail(self, mode=FAULT_CRASH):
            queued = [entry[3] for entry in self.queue._heap]
            fail(self, mode)
            if mode == FAULT_CRASH:
                for packet in queued:
                    guard.end(packet, "crash loss")

        def guarded_endpoint_try(self, packet):
            accepted = endpoint_try(self, packet)
            guard.end(packet, "non-engine endpoint")
            return accepted

        def guarded_spend_fault(self, packet, ctx):
            dropped = spend_fault(self, packet, ctx)
            if dropped:
                guard.end(packet, "wire drop")
            return dropped

        def guarded_push(self, item, rank, droppable=False):
            accepted = push(self, item, rank, droppable)
            if not accepted:
                guard.end(item, "pifo drop")
            return accepted

        def guarded_evict(self, incoming_rank):
            before = [entry[3] for entry in self._heap]
            freed = evict(self, incoming_rank)
            if freed:
                kept = {id(entry[3]) for entry in self._heap}
                for item in before:
                    if id(item) not in kept:
                        guard.end(item, "pifo eviction")
            return freed

        def guarded_schedule_at(self, when_ps, fn, *args):
            if getattr(fn, "__func__", None) is guarded_finish:
                # The train lane's mid-service hand-off: the only place
                # a service end is scheduled without a receive.
                guard.begin(args[0], "handoff")
            return schedule_at(self, when_ps, fn, *args)

        return [
            mock.patch.object(Channel, "send", guarded_port_send),
            mock.patch.object(Engine, "_loopback", guarded_loopback),
            mock.patch.object(Engine, "receive", guarded_receive),
            mock.patch.object(Engine, "_finish", guarded_finish),
            mock.patch.object(Engine, "fail", guarded_fail),
            mock.patch.object(Endpoint, "try_receive", guarded_endpoint_try),
            mock.patch.object(Channel, "_spend_fault", guarded_spend_fault),
            mock.patch.object(PifoQueue, "push", guarded_push),
            mock.patch.object(PifoQueue, "_evict_worse_droppable",
                              guarded_evict),
            mock.patch.object(Simulator, "schedule_at", guarded_schedule_at),
        ]

    def run(self, shape):
        """Run ``shape()`` under the guard; every transfer must end."""
        with ExitStack() as stack:
            for patch in self.patches():
                stack.enter_context(patch)
            result = shape()
        assert not self.live, (
            f"{len(self.live)} transfer(s) never ended: "
            f"{list(self.live.values())[:3]}")
        return result


def _frame(seq, payload=b"y" * 200, dscp=1):
    return Packet(build_udp_frame(
        src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=7777 + seq % 8,
        dst_port=8888, payload=payload, dscp=dscp,
        identification=seq & 0xFFFF))


def _chain_nic(sim, chain, batch):
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("regex", "checksum", "checksum1"),
        batch_execution=batch,
        offload_params={"regex": {"patterns": [b"x"],
                                  "cycles_per_byte": 0.5}},
    ))
    nic.control.route_dscp(1, chain)
    return nic


def _drive(sim, nic, gaps_ps, frames):
    at = 0
    for i in range(frames):
        at += gaps_ps[i % len(gaps_ps)]
        sim.schedule_at(at, nic.inject, _frame(i))
    sim.run()
    nic.mesh.assert_drained()


def test_chain_with_lookup_delay():
    """Chain hops route through the local table, so each send is
    scheduled one lookup cycle after the engine's finish."""
    guard = EnvelopeGuard()

    def shape():
        sim = Simulator()
        nic = _chain_nic(sim, ["regex", "checksum", "checksum1"], False)
        _drive(sim, nic, (150_000, 40_000), 40)

    guard.run(shape)
    assert guard.begun["send via run"] > 0
    assert guard.ended["finish"] > 0


def test_loopback_chain():
    """A chain naming one engine twice in a row re-enters it locally."""
    guard = EnvelopeGuard()

    def shape():
        sim = Simulator()
        nic = _chain_nic(sim, ["checksum", "checksum", "regex"], False)
        _drive(sim, nic, (100_000,), 30)

    guard.run(shape)
    assert guard.begun["loopback via run"] > 0  # the chain's re-entry
    assert guard.begun["loopback via _rx_arrival"] > 0  # the MAC's


def test_lane_handoff():
    """Contended arrivals make boarded frames hand off mid-service."""
    guard = EnvelopeGuard()
    lanes = []

    def shape():
        sim = Simulator()
        nic = _chain_nic(sim, ["checksum", "regex", "checksum1"], True)
        _drive(sim, nic, (150_000, 150_000, 1_500_000, 500_000), 50)
        lanes.append(nic.train_lane.stats())

    guard.run(shape)
    assert lanes[0]["handoffs"] > 0
    assert guard.begun["handoff"] > 0


def test_crashed_tile():
    """A wire drops one transfer, then a tile crashes under load: its
    queue is lost, later arrivals are blackholed, and a monitor
    endpoint's echoes end at the monitor."""
    guard = EnvelopeGuard()

    def shape():
        sim = Simulator()
        nic = PanicNic(sim, PanicConfig(
            ports=1, offloads=("ipsec", "ipsec1", "compression", "kvcache"),
            seed=3, batch_execution=False))
        nic.control.route_dscp(10, ["ipsec"])
        monitor = attach_health_monitor(nic, engines=("ipsec1",))
        monitor.start()
        FaultInjector(nic, FaultPlan(seed=3)
                      .drop_on_link(2 * US, "panic.mesh.inj_0_0",
                                    leak_credit=False)
                      .crash_engine(8 * US, "ipsec")).arm()
        for i in range(80):
            sim.schedule_at(i * 100 * NS, nic.inject,
                            _frame(i, payload=bytes(120), dscp=10))
        sim.run(until_ps=40 * US)
        monitor.stop()
        sim.run()

    guard.run(shape)
    assert guard.ended["wire drop"] == 1
    assert guard.ended["crash loss"] > 0
    assert guard.ended["blackhole"] > 0
    assert guard.ended["non-engine endpoint"] > 0


def test_two_nic_wired_rack():
    guard = EnvelopeGuard()
    result = guard.run(lambda: run_monolithic(
        rack_topology(nics=2, frames=8, batch=False)))
    assert result.reports["nic1"]["deliveries"]
    assert guard.begun["send via send"] > 0


def test_lb_rack():
    guard = EnvelopeGuard()
    result = guard.run(lambda: run_monolithic(
        lb_rack_topology(nics=5, n_backends=2, frames=5)))
    assert result.reports["nic0"]["steering"]["stats"]
    assert guard.ended["finish"] > 0
