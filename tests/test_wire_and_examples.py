"""Unit tests for the external Wire, plus example-script smoke tests."""

import pathlib
import random
import runpy
from types import SimpleNamespace

import pytest

from repro.core import PanicConfig, PanicNic
from repro.packet import Packet
from repro.sim import Simulator
from repro.sim.clock import NS
from repro.workloads import LinkEnd, Wire
from tests import pins, udp_frame

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def frame(ident=0):
    return udp_frame(
        src_port=1, dst_port=2, payload=b"x", identification=ident)


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
        assert wire.ends["a"].transmitted == 1

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
        assert wire.ends["a"].transmitted == 0


class TestCablePorts:
    """A cable attaches to a port its NIC has and no other cable holds;
    anything else fails when the cable is built, not in the run."""

    def test_second_cable_on_a_port_rejected(self, sim):
        a, b, c = (PanicNic(sim, PanicConfig(ports=1), name=n)
                   for n in "abc")
        Wire(sim, a, b)
        with pytest.raises(ValueError, match="port 0 is already cabled"):
            Wire(sim, c, a, name="second")
        with pytest.raises(ValueError, match="port 0 is already cabled"):
            LinkEnd(sim, b, 0, None, 0, 500 * NS, "again")

    def test_cable_on_a_missing_port_rejected(self, sim):
        a = PanicNic(sim, PanicConfig(ports=2), name="a")
        b = PanicNic(sim, PanicConfig(ports=1), name="b")
        with pytest.raises(ValueError, match="no port 2"):
            Wire(sim, a, b, port_a=2)
        with pytest.raises(ValueError, match="no port -1"):
            LinkEnd(sim, a, -1, None, 0, 500 * NS, "negative")


class _StubNic:
    """The NIC surface a wire uses, plus a tracer that records drops.

    Its trace contexts name it as their ``tracer``, as a
    :class:`~repro.telemetry.tracer.TraceCtx` names its PacketTracer,
    and no INT agent."""

    def __init__(self, sim):
        self.sim = sim
        self.cables = {}
        self.injected = []
        self.drops = []
        self.telemetry = SimpleNamespace(tracer=self)

    def attach_cable(self, port, deliver):
        self.cables[port] = deliver

    def transmit(self, packet):
        self.cables[packet.meta.egress_port or 0](packet)

    def inject(self, packet, port):
        self.injected.append(
            (self.sim.now, packet.meta.created_ps, packet.data))

    def trace_ctx(self, ident):
        return SimpleNamespace(tracer=self, ident=ident, int_=None)

    def flow_ctx(self):
        return self.trace_ctx("ll")

    def instant(self, ctx, name, label, now, attrs=()):
        if name == "ext_wire_drop":
            self.drops.append((ctx.ident, label, now, dict(attrs)["reason"]))


class TestSharedEgress:
    """One class carries a frame whether or not the far NIC shares the
    process: the same frames under the same seeds must survive, die
    (and say why), be accounted and reach the far NIC identically,
    in both directions, whichever way the cable was built."""

    LABELS = {"a": "wire0.a->b", "b": "wire0.b->a"}

    def drive(self, cable):
        sim = Simulator()
        nics = {"a": _StubNic(sim), "b": _StubNic(sim)}
        if cable == "wire":
            wire = Wire(sim, nics["a"], nics["b"], fault_labels=self.LABELS)
            ends = wire.ends
        else:
            # Each NIC in a "process" of its own: no peer, so survivors
            # wait in the outbox for ``barrier`` to carry them across.
            ends = {end: LinkEnd(sim, nics[end], 0, None, 0, 500 * NS,
                                 f"cut.{end}", self.LABELS[end])
                    for end in "ab"}

        def set_down(down):
            for link_end in ends.values():
                link_end.set_down(down)
        rngs = {"a": random.Random(7), "b": random.Random(8)}
        ident = 0

        def barrier():
            for src, dst in ("ab", "ba"):
                batch = ends[src].take_outbox()
                # Handed over backwards: same-instant arrivals must
                # still fire in transmit (link_seq) order, as the wire's.
                ends[dst].schedule_deliveries(batch[::-1])

        def send(steps):
            nonlocal ident
            for _ in range(steps):
                sim.run(until_ps=sim.now + 100 * NS)
                # Two frames per NIC per instant: same-instant arrivals.
                for end in "abab":
                    packet = Packet(frame(ident))
                    packet.trace = nics[end].trace_ctx(ident)
                    ident += 1
                    nics[end].transmit(packet)
                if cable != "wire":
                    barrier()

        for end in "ab":                     # Bernoulli loss + bit flips
            ends[end].set_loss(0.3, 0.2, rngs[end])
        send(10)
        set_down(True)                       # cable cut, both directions
        send(2)
        set_down(False)
        for end in "ab":
            ends[end].set_loss(0.6, 0.0, rngs[end])
            ends[end].set_linklayer({"max_repair": 1})  # often gives up
        send(10)
        sim.run()
        stats = {}
        for link_end in ends.values():
            stats.update(link_end.wire_stats())
        return stats, {end: (nic.drops, nic.injected)
                       for end, nic in nics.items()}

    def test_wire_and_boundary_agree_on_every_frame(self):
        stats, seen = self.drive("wire")
        assert self.drive("boundary") == (stats, seen)
        assert stats[self.LABELS["a"]] != stats[self.LABELS["b"]]
        for end, far in ("ab", "ba"):
            direction = stats[self.LABELS[end]]
            drops, arrived = seen[end][0], seen[far][1]
            assert {reason for *_, reason in drops} \
                == {"loss", "down", "ll_gave_up"}
            assert direction["offered"] > 44  # repairs re-offer frames
            assert direction["down_drops"] == 4
            assert direction["corruptions"] > 0
            assert direction["linklayer"]["gave_up"] > 0
            assert len(arrived) + len(drops) == 44

    def test_zero_length_cable_is_legal_only_in_process(self, sim):
        a, b = _StubNic(sim), _StubNic(sim)
        Wire(sim, a, b, propagation_ps=0)
        a.transmit(Packet(frame()))
        sim.run()
        assert [now for now, *_ in b.injected] == [0]
        with pytest.raises(ValueError, match="between processes"):
            LinkEnd(sim, a, 0, None, 0, 0, "cut")


class TestExampleScripts:
    """Run every example script end to end (they self-assert) and hold
    what it prints to its recorded text, byte for byte."""

    @pytest.mark.parametrize("script", sorted(
        path.stem for path in EXAMPLES.glob("*.py")))
    def test_example_runs(self, script, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        runpy.run_path(str(EXAMPLES / f"{script}.py"), run_name="__main__")
        pins.stdout(f"example_{script}", capsys.readouterr().out)
