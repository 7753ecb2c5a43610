"""A sampled packet carries its tracer: no component holds telemetry.

``PacketTracer.maybe_trace`` and ``PacketTracer.flow_ctx`` put the tracer
on the :class:`~repro.telemetry.tracer.TraceCtx` they hand out, and every
packet-scoped site records through ``ctx.tracer``.  So a traced packet
leaves its spans on any fabric it crosses, wired by a ``Telemetry`` or
not, and protocol machinery records through the flow context it keeps.
"""

import pytest

from repro.noc import Endpoint, Mesh, MeshConfig
from repro.packet import Packet
from repro.reliability.linklayer import LinkLayer
from repro.sim import Simulator
from repro.sim.clock import NS
from repro.sim.rng import SeededRng
from repro.telemetry import PacketTracer, TelemetryConfig


class Sink(Endpoint):
    def __init__(self):
        self.got = []

    def receive(self, packet):
        self.got.append(packet.hops)


def _tracer():
    return PacketTracer(TelemetryConfig(sample_every=1), SeededRng(1))


@pytest.mark.parametrize("fast_path", [False, True])
def test_bare_mesh_records_the_hops_of_a_sampled_packet(fast_path):
    sim = Simulator()
    mesh = Mesh(sim, MeshConfig(width=3, height=1, fast_path=fast_path))
    source = mesh.bind(Sink(), 0, 0)
    sink = Sink()
    dest = mesh.bind(sink, 2, 0).address
    tracer = _tracer()
    packet = Packet(bytes(64))
    ctx = tracer.maybe_trace(packet, sim.now)
    assert ctx.tracer is tracer
    source.send(packet, dest)
    sim.run()
    assert sink.got == [3]
    hops = [(span.component, span.start_ps, span.end_ps)
            for span in tracer.sorted_spans() if span.kind == "hop"]
    assert [component for component, *_ in hops] == [
        "mesh.inj_0_0", "mesh.ch_0_0_east", "mesh.ch_1_0_east"]
    # Back to back on an idle path: each hop starts as the last ends.
    assert all(prev[2] == nxt[1] for prev, nxt in zip(hops, hops[1:]))
    assert [span.seq for span in tracer.sorted_spans()] == [0, 1, 2, 3]


class _Faults:
    """A direction's fault gate that drops the first transfer only."""

    label = "wire0.test"

    def __init__(self):
        self.outcomes = ["ok", "drop"]

    def judge(self, data):
        outcome = self.outcomes.pop()
        return outcome, (data if outcome == "ok" else None)


def test_linklayer_records_through_its_flow_context():
    tracer = _tracer()
    layer = LinkLayer(_Faults(), 500 * NS, trace_ctx=tracer.flow_ctx())
    assert layer.transmit(b"f", 0) is not None
    kinds = [span.kind for span in tracer.sorted_spans()]
    assert kinds == ["ll_nack", "ll_retransmit", "ll_handoff"]
    assert {span.component for span in tracer.spans} == {"wire0.test"}
