"""Tests for the base Engine: scheduling queue, chains, lookup tables."""

import pytest

from repro.engines.base import Engine, LocalLookupTable
from repro.noc import Endpoint, Mesh, MeshConfig
from repro.packet import Packet, PanicHeader
from repro.packet.packet import MessageKind
from repro.sched import PifoFullError
from repro.sim import Simulator
from repro.sim.clock import MHZ


class Sink(Endpoint):
    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def receive(self, packet):
        self.got.append((packet, self.sim.now))


class SlowEngine(Engine):
    """Fixed 100-cycle service, pure pass-through."""

    def service_time_ps(self, packet):
        return self.clock.cycles_to_ps(100)


def rig(sim, engine_cls=Engine, **engine_kwargs):
    """A 3x1 mesh: [engine under test] [sink] [sink2]."""
    mesh = Mesh(sim, MeshConfig(width=3, height=1))
    engine = engine_cls(sim, "eut", **engine_kwargs)
    engine.bind_port(mesh.bind(engine, 0, 0))
    sink = Sink(sim)
    mesh.bind(sink, 1, 0)
    sink2 = Sink(sim)
    mesh.bind(sink2, 2, 0)
    return mesh, engine, sink, sink2


def chained_packet(chain, slack_ps=0, droppable=False, data=b"\x00" * 64):
    packet = Packet(data)
    packet.panic = PanicHeader(chain=list(chain), slack_ps=slack_ps,
                               droppable=droppable)
    return packet


class TestChainFollowing:
    def test_packet_follows_chain_to_next_engine(self, sim):
        mesh, engine, sink, _ = rig(sim)
        packet = chained_packet([engine.address, 1])
        packet.panic.cursor += 1  # we are hop 0
        engine._loopback(packet)
        sim.run()
        assert len(sink.got) == 1
        assert sink.got[0][0] is packet

    def test_exhausted_chain_uses_lookup_default(self, sim):
        mesh, engine, sink, sink2 = rig(sim)
        engine.lookup_table.default_next = 2
        packet = chained_packet([])
        engine._loopback(packet)
        sim.run()
        assert len(sink2.got) == 1

    def test_exhausted_chain_without_default_raises(self, sim):
        mesh, engine, _, _ = rig(sim)
        packet = chained_packet([])
        engine._loopback(packet)
        with pytest.raises(RuntimeError):
            sim.run()

    def test_lookup_rule_overrides_default(self, sim):
        mesh, engine, sink, sink2 = rig(sim)
        engine.lookup_table.default_next = 1
        engine.lookup_table.install(MessageKind.ETHERNET, 2)
        engine._loopback(chained_packet([]))
        sim.run()
        assert len(sink2.got) == 1 and not sink.got

    def test_trail_records_processing(self, sim):
        mesh, engine, sink, _ = rig(sim)
        packet = chained_packet([1])
        engine._loopback(packet)
        sim.run()
        assert "eut" in packet.trail


class TestScheduling:
    def test_slack_orders_service(self, sim):
        mesh, engine, sink, _ = rig(sim, engine_cls=SlowEngine)
        # Fill the engine while it is busy with a first packet.
        first = chained_packet([1], slack_ps=0)
        low = chained_packet([1], slack_ps=10_000_000)
        high = chained_packet([1], slack_ps=100)
        engine._loopback(first)  # starts service immediately
        engine._loopback(low)
        engine._loopback(high)
        sim.run()
        arrivals = [p for p, _t in sink.got]
        assert arrivals.index(high) < arrivals.index(low)

    def test_queue_latency_recorded(self, sim):
        mesh, engine, sink, _ = rig(sim, engine_cls=SlowEngine)
        for _ in range(3):
            engine._loopback(chained_packet([1]))
        sim.run()
        assert engine.queue_latency.count == 3
        assert engine.queue_latency.percentile(100) > 0

    def test_lanes_process_concurrently(self, sim):
        times = {}

        class TwoLane(SlowEngine):
            pass

        mesh, engine, sink, _ = rig(sim, engine_cls=TwoLane, lanes=2)
        for _ in range(2):
            engine._loopback(chained_packet([1]))
        sim.run()
        t0, t1 = sink.got[0][1], sink.got[1][1]
        # Both serviced in parallel: same finish time window, not 2x.
        assert t1 - t0 < engine.clock.cycles_to_ps(100)

    def test_bounded_queue_drops_droppable(self, sim):
        mesh, engine, sink, _ = rig(sim, engine_cls=SlowEngine,
                                    queue_capacity=1)
        engine._loopback(chained_packet([1]))  # in service
        engine._loopback(chained_packet([1]))  # occupies the single slot
        engine._loopback(chained_packet([1], droppable=True, slack_ps=1 << 40))
        sim.run()
        assert engine.queue.dropped == 1

    def test_bounded_queue_lossless_overflow_raises(self, sim):
        mesh, engine, _, _ = rig(sim, engine_cls=SlowEngine, queue_capacity=1)
        engine._loopback(chained_packet([1]))  # in service
        engine._loopback(chained_packet([1]))  # fills the single slot
        with pytest.raises(PifoFullError):
            engine._loopback(chained_packet([1]))

    def test_processed_counter(self, sim):
        mesh, engine, sink, _ = rig(sim)
        for _ in range(5):
            engine._loopback(chained_packet([1]))
        sim.run()
        assert engine.processed == 5


class TestLocalLookupTable:
    def test_default_and_rules(self):
        table = LocalLookupTable()
        assert table.lookup("anything") is None
        table.default_next = 7
        assert table.lookup("anything") == 7
        table.install("special", 9)
        assert table.lookup("special") == 9
        assert table.lookups == 3

    def test_lanes_validation(self, sim):
        with pytest.raises(ValueError):
            Engine(sim, "bad", lanes=0)
