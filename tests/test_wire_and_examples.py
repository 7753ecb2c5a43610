"""Unit tests for the external Wire, plus example-script smoke tests."""

import random
import runpy
import sys
from types import SimpleNamespace

import pytest

from repro.core import PanicConfig, PanicNic
from repro.packet import Packet, build_udp_frame
from repro.sim import Simulator
from repro.sim.clock import NS
from repro.workloads import ShardBoundary, Wire


def frame(ident=0):
    return build_udp_frame(
        src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
        src_ip="10.0.0.1", dst_ip="10.0.0.2",
        src_port=1, dst_port=2, payload=b"x", identification=ident,
    )


class TestWireUnit:
    def build(self, sim, **kwargs):
        a = PanicNic(sim, PanicConfig(ports=1), name="a")
        b = PanicNic(sim, PanicConfig(ports=1), name="b")
        wire = Wire(sim, a, b, **kwargs)
        return a, b, wire

    def test_a_to_b_delivery(self, sim):
        a, b, wire = self.build(sim)
        received = []
        b.host.software_handler = lambda p, q: received.append(p)
        a.host.enqueue_tx(frame())
        sim.run()
        assert len(received) == 1
        assert wire.a_to_b.value == 1

    def test_fresh_packet_identity_across_wire(self, sim):
        a, b, wire = self.build(sim)
        received = []
        b.host.software_handler = lambda p, q: received.append(p)
        a.host.enqueue_tx(frame())
        sim.run()
        packet = received[0]
        # Same bytes, fresh metadata lifecycle on the receiving NIC.
        assert packet.meta.nic_arrival_ps is not None
        assert packet.meta.ingress_port == 0

    def test_negative_propagation_rejected(self, sim):
        a = PanicNic(sim, PanicConfig(ports=1), name="na")
        b = PanicNic(sim, PanicConfig(ports=1), name="nb")
        with pytest.raises(ValueError):
            Wire(sim, a, b, propagation_ps=-1)

    def test_port_filter(self, sim):
        """A cable on port 1 ignores traffic leaving port 0."""
        a = PanicNic(sim, PanicConfig(ports=2), name="pa")
        b = PanicNic(sim, PanicConfig(ports=1), name="pb")
        wire = Wire(sim, a, b, port_a=1)
        received = []
        b.host.software_handler = lambda p, q: received.append(p)
        # TX defaults to port 0, which this cable does not serve.
        a.host.enqueue_tx(frame())
        sim.run()
        assert received == []
        assert wire.a_to_b.value == 0


class _StubNic:
    """The NIC surface a wire uses, plus a tracer that records drops."""

    def __init__(self, sim):
        self.sim = sim
        self.listeners = []
        self.injected = []
        self.drops = []
        self.telemetry = SimpleNamespace(tracer=self)

    def on_transmit(self, listener):
        self.listeners.append(listener)

    def transmit(self, packet):
        for listener in self.listeners:
            listener(packet)

    def inject(self, packet, port):
        self.injected.append(
            (self.sim.now, packet.meta.created_ps, packet.data))

    def flow_ctx(self):
        return "ll"

    def instant(self, ctx, name, label, now, attrs=()):
        if name == "ext_wire_drop":
            self.drops.append((ctx, label, now, dict(attrs)["reason"]))


class TestSharedEgress:
    """Wire and ShardBoundary judge egress through one function: the same
    frames under the same seed must survive, die (and say why) and be
    accounted identically, whichever one carries them."""

    LABEL = "wire0.a->b"

    def drive(self, cable):
        sim = Simulator()
        a, b = _StubNic(sim), _StubNic(sim)
        if cable == "wire":
            wire = Wire(sim, a, b, fault_labels={"a": self.LABEL})
            set_loss = lambda *args: wire.set_loss("a", *args)
            set_linklayer = lambda params: wire.set_linklayer("a", params)
        else:
            wire = ShardBoundary(sim, a, 0, peer_nic="b",
                                 fault_label=self.LABEL)
            set_loss, set_linklayer = wire.set_loss, wire.set_linklayer
        rng = random.Random(7)
        ident = 0

        def send(count):
            nonlocal ident
            for _ in range(count):
                sim.run(until_ps=sim.now + 100 * NS)
                packet = Packet(frame(ident))
                packet.meta.annotations["__trace__"] = ident
                ident += 1
                a.transmit(packet)

        set_loss(0.3, 0.2, rng)              # Bernoulli loss + bit flips
        send(20)
        wire.set_down(True)                  # cable cut
        send(4)
        wire.set_down(False)
        set_loss(0.6, 0.0, rng)
        set_linklayer({"max_repair": 1})     # repair that often gives up
        send(20)
        sim.run()
        if cable == "wire":
            arrived = b.injected
        else:
            arrived = [(c.arrival_ps, c.created_ps, c.data)
                       for c in wire.take_outbox()]
        return wire.wire_stats()[self.LABEL], a.drops, arrived

    def test_wire_and_boundary_agree_on_every_frame(self):
        stats, drops, arrived = self.drive("wire")
        assert self.drive("boundary") == (stats, drops, arrived)
        assert {reason for *_, reason in drops} \
            == {"loss", "down", "ll_gave_up"}
        assert stats["offered"] > 44          # repairs re-offer frames
        assert stats["down_drops"] == 4
        assert stats["corruptions"] > 0
        assert stats["linklayer"]["gave_up"] > 0
        assert len(arrived) + len(drops) == 44


class TestExampleScripts:
    """Run the fast example scripts end to end (they self-assert)."""

    @pytest.mark.parametrize("script", ["quickstart", "custom_offload"])
    def test_example_runs(self, script, capsys):
        runpy.run_path(f"examples/{script}.py", run_name="__main__")
        out = capsys.readouterr().out
        assert out  # printed something sensible
