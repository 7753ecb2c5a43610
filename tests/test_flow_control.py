"""Tests for lossless engine flow control (the section 6 extension).

With ``overflow="backpressure"`` a full engine refuses deliveries; the
router parks them, channel credits stay consumed, and pressure
propagates toward the source -- no message is ever lost or raises.
"""

import pytest

from repro.engines.base import Engine
from repro.noc import Endpoint, Mesh, MeshConfig
from repro.packet import Packet, PanicHeader
from repro.sim import Simulator
from repro.sim.clock import US


class Sink(Endpoint):
    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def receive(self, packet):
        self.got.append((packet, self.sim.now))


class SlowEngine(Engine):
    def service_time_ps(self, packet):
        return self.clock.cycles_to_ps(500)  # 1 us per message


def rig(sim, overflow, credits=2, capacity=2):
    """[source sink] -> [slow engine] -> [sink]  on a 3x1 mesh."""
    mesh = Mesh(sim, MeshConfig(width=3, height=1, credits=credits))
    feeder = Sink(sim)
    feeder_port = mesh.bind(feeder, 0, 0)
    engine = SlowEngine(sim, "slow", queue_capacity=capacity,
                        overflow=overflow)
    engine.bind_port(mesh.bind(engine, 1, 0))
    out = Sink(sim)
    mesh.bind(out, 2, 0)
    return mesh, feeder_port, engine, out


def burst(feeder_port, engine, n, droppable=False):
    packets = []
    for _ in range(n):
        packet = Packet(b"\x00" * 64)
        packet.panic = PanicHeader(chain=[2], droppable=droppable)
        feeder_port.send(packet, 1)
        packets.append(packet)
    return packets


class TestBackpressure:
    def test_no_message_lost_under_overload(self, sim):
        mesh, feeder, engine, out = rig(sim, "backpressure")
        burst(feeder, engine, 20)
        sim.run()
        assert len(out.got) == 20
        assert engine.queue.dropped == 0
        assert mesh.in_flight == 0

    def test_refusals_counted(self, sim):
        mesh, feeder, engine, out = rig(sim, "backpressure")
        burst(feeder, engine, 20)
        sim.run()
        assert engine.rejected > 0  # deliveries were refused

    def test_queue_never_exceeds_capacity(self, sim):
        mesh, feeder, engine, out = rig(sim, "backpressure", capacity=3)
        burst(feeder, engine, 25)
        sim.run()
        assert engine.queue.max_occupancy <= 3
        assert len(out.got) == 25

    def test_pressure_parks_messages_in_router(self, sim):
        mesh, feeder, engine, out = rig(sim, "backpressure")
        burst(feeder, engine, 12)
        # Run briefly: the engine is saturated, so messages accumulate
        # in router buffers / channel queues rather than being dropped.
        sim.run(until_ps=3 * US)
        assert mesh.in_flight > 0
        sim.run()
        assert len(out.got) == 12

    def test_crashed_engine_never_refuses(self, sim):
        """A dead tile sinks what it would have refused: the parked
        messages and everything after them drain into ``blackholed``."""
        mesh, feeder, engine, out = rig(sim, "backpressure")
        burst(feeder, engine, 20)
        sim.run(until_ps=3 * US)
        assert mesh.in_flight > 0
        refused = engine.rejected
        engine.fail("crash")
        burst(feeder, engine, 5)
        sim.run()
        assert engine.rejected == refused
        assert len(out.got) + engine.blackholed == 25
        assert mesh.in_flight == 0

    def test_raise_policy_still_raises(self, sim):
        mesh, feeder, engine, out = rig(sim, "raise")
        burst(feeder, engine, 20)
        with pytest.raises(Exception):
            sim.run()

    def test_droppable_messages_still_shed(self, sim):
        mesh, feeder, engine, out = rig(sim, "backpressure")
        burst(feeder, engine, 20, droppable=True)
        sim.run()
        # Droppable overflow is shed by the PIFO, not backpressured.
        assert len(out.got) + engine.queue.dropped == 20
        assert engine.queue.dropped > 0

    def test_loopback_retries_when_full(self, sim):
        mesh, feeder, engine, out = rig(sim, "backpressure", capacity=1)
        # Fill service + queue, then loop a packet back into ourselves.
        burst(feeder, engine, 2)
        sim.run(max_events=8)
        local = Packet(b"\x00" * 64)
        local.panic = PanicHeader(chain=[2])
        engine._loopback(local)
        sim.run()
        assert any(p is local for p, _t in out.got)

    def test_invalid_policy_rejected(self, sim):
        with pytest.raises(ValueError):
            Engine(sim, "bad", overflow="yolo")


class TestPanicNicBackpressure:
    def test_nic_with_backpressure_loses_nothing(self):
        from repro.core import PanicConfig, PanicNic
        from repro.workloads import KvsWorkload, TenantSpec

        sim = Simulator()
        nic = PanicNic(sim, PanicConfig(
            ports=1, queue_capacity=4, overflow="backpressure"))
        nic.host.contention_ps = 1 * US  # slow DMA to force pressure
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        workload = KvsWorkload(
            sim, nic,
            [TenantSpec(1, rate_pps=2_000_000, get_fraction=0.0,
                        key_space=100, value_bytes=128)],
            requests_per_tenant=60,
        )
        workload.start()
        sim.run()
        assert len(delivered) == 60
        assert all(e.queue.dropped == 0 for e in nic.engines.values())
