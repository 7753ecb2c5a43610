"""Tests for the on-chip network: channels, routers, mesh, crossbar."""

import pytest

from repro.noc import Crossbar, Endpoint, Mesh, MeshConfig, NocMessage
from repro.noc.channel import Channel
from repro.packet import Packet
from repro.sim import Clock, Simulator
from repro.sim.clock import MHZ


class Sink(Endpoint):
    def __init__(self, sim=None):
        self.sim = sim
        self.got = []

    def receive(self, message):
        when = self.sim.now if self.sim else None
        self.got.append((message, when))


def build_mesh(sim, width=4, height=4, **kwargs):
    mesh = Mesh(sim, MeshConfig(width=width, height=height, **kwargs))
    sinks = {}
    ports = {}
    for y in range(height):
        for x in range(width):
            sink = Sink(sim)
            ports[(x, y)] = mesh.bind(sink, x, y)
            sinks[(x, y)] = sink
    return mesh, sinks, ports


class TestChannel:
    def test_serialization_time(self, sim):
        got = []
        ch = Channel(sim, "ch", 64, Clock(500 * MHZ), lambda m, c: got.append(sim.now))
        msg = NocMessage(Packet(b"\x00" * 64), dest_addr=1)
        ch.submit(msg)
        sim.run()
        # 512 bits / 64 = 8 cycles + 1 router cycle = 9 * 2000 ps.
        assert got == [18000]

    def test_back_to_back_messages_serialize(self, sim):
        got = []
        ch = Channel(sim, "ch", 64, Clock(500 * MHZ), lambda m, c: got.append(sim.now))
        for _ in range(3):
            ch.submit(NocMessage(Packet(b"\x00" * 64), dest_addr=1))
        sim.run()
        assert got == [18000, 36000, 54000]

    def test_credits_block_transfers(self, sim):
        held = []
        ch = Channel(
            sim, "ch", 64, Clock(500 * MHZ), lambda m, c: held.append(m), credits=1
        )
        for _ in range(3):
            ch.submit(NocMessage(Packet(b"\x00" * 64), dest_addr=1))
        sim.run()
        # Only one credit and nobody releases: exactly one delivery.
        assert len(held) == 1
        assert ch.queue_len == 2
        # Releasing lets the next one through.
        ch.release_credit()
        sim.run()
        assert len(held) == 2

    def test_credit_overflow_detected(self, sim):
        ch = Channel(sim, "ch", 64, Clock(), lambda m, c: None, credits=1)
        with pytest.raises(RuntimeError):
            ch.release_credit()

    def test_invalid_parameters(self, sim):
        with pytest.raises(ValueError):
            Channel(sim, "bad1", 0, Clock(), lambda m, c: None)
        with pytest.raises(ValueError):
            Channel(sim, "bad2", 64, Clock(), lambda m, c: None, credits=0)

    def test_hops_incremented_on_delivery(self, sim):
        got = []
        ch = Channel(sim, "ch", 64, Clock(), lambda m, c: got.append(m))
        ch.submit(NocMessage(Packet(b""), dest_addr=1))
        sim.run()
        assert got[0].hops == 1


class TestMeshRouting:
    def test_corner_to_corner_xy_route(self, sim):
        mesh, sinks, ports = build_mesh(sim)
        ports[(0, 0)].send(Packet(b"\x00" * 64), mesh.address_of(3, 3))
        sim.run()
        message, when = sinks[(3, 3)].got[0]
        assert message.hops == 7  # inject + 3 east + 3 south
        assert when == 7 * 9 * 2000

    def test_local_delivery_same_column(self, sim):
        mesh, sinks, ports = build_mesh(sim)
        ports[(2, 0)].send(Packet(b"\x00" * 64), mesh.address_of(2, 3))
        sim.run()
        message, _ = sinks[(2, 3)].got[0]
        assert message.hops == 4  # inject + 3 south

    def test_every_pair_reachable(self, sim):
        mesh, sinks, ports = build_mesh(sim, width=3, height=3)
        sent = 0
        for src in ports:
            for dst in ports:
                if src == dst:
                    continue
                ports[src].send(Packet(b"\x00" * 64), mesh.address_of(*dst))
                sent += 1
        sim.run()
        assert sum(len(s.got) for s in sinks.values()) == sent
        assert mesh.in_flight == 0

    def test_lossless_under_heavy_fanin(self, sim):
        # Everyone floods one corner; all messages must still arrive.
        mesh, sinks, ports = build_mesh(sim, credits=2)
        target = mesh.address_of(3, 3)
        n = 0
        for coord, port in ports.items():
            if coord == (3, 3):
                continue
            for _ in range(20):
                port.send(Packet(b"\x00" * 64), target)
                n += 1
        sim.run()
        assert len(sinks[(3, 3)].got) == n
        assert mesh.in_flight == 0

    def test_address_coordinate_mapping(self, sim):
        mesh = Mesh(sim, MeshConfig(width=4, height=3))
        assert mesh.address_of(2, 1) == 6
        assert mesh.coords_of(6) == (2, 1)
        with pytest.raises(ValueError):
            mesh.coords_of(12)
        with pytest.raises(ValueError):
            mesh.address_of(4, 0)

    def test_double_bind_rejected(self, sim):
        mesh = Mesh(sim, MeshConfig(width=2, height=2))
        mesh.bind(Sink(), 0, 0)
        with pytest.raises(ValueError):
            mesh.bind(Sink(), 0, 0)

    def test_wider_channels_are_faster(self):
        times = {}
        for bits in (64, 128):
            sim = Simulator()
            mesh, sinks, ports = build_mesh(sim, channel_bits=bits)
            ports[(0, 0)].send(Packet(b"\x00" * 128), mesh.address_of(3, 0))
            sim.run()
            times[bits] = sinks[(3, 0)].got[0][1]
        assert times[128] < times[64]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MeshConfig(width=0)
        with pytest.raises(ValueError):
            MeshConfig(channel_bits=0)
        with pytest.raises(ValueError):
            MeshConfig(credits=0)


class TestCrossbar:
    def test_delivery(self, sim):
        xbar = Crossbar(sim, ports=4)
        sinks = [Sink(sim) for _ in range(4)]
        xports = [xbar.bind(s) for s in sinks]
        xports[0].send(Packet(b"\x00" * 64), 3)
        sim.run()
        assert len(sinks[3].got) == 1

    def test_port_limit(self, sim):
        xbar = Crossbar(sim, ports=1)
        xbar.bind(Sink(sim))
        with pytest.raises(ValueError):
            xbar.bind(Sink(sim))

    def test_unknown_destination_rejected(self, sim):
        xbar = Crossbar(sim, ports=2)
        port = xbar.bind(Sink(sim))
        with pytest.raises(ValueError):
            port.send(Packet(b""), 1)  # address 1 never bound

    def test_frequency_derates_with_port_count(self, sim):
        small = Crossbar(sim, ports=4, name="small")
        big = Crossbar(sim, ports=32, name="big")
        assert big.clock.freq_hz < small.clock.freq_hz

    def test_output_contention_serializes(self, sim):
        xbar = Crossbar(sim, ports=3, freq_derating=0.0)
        sinks = [Sink(sim) for _ in range(3)]
        xports = [xbar.bind(s) for s in sinks]
        xports[0].send(Packet(b"\x00" * 64), 2)
        xports[1].send(Packet(b"\x00" * 64), 2)
        sim.run()
        t0, t1 = sinks[2].got[0][1], sinks[2].got[1][1]
        assert t1 - t0 >= 9 * 2000  # second waits for the first


class TestNocMessage:
    def test_bits_counts_chain_header(self):
        packet = Packet(b"\x00" * 10)
        message = NocMessage(packet, dest_addr=1)
        assert message.bits == 80

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            NocMessage(Packet(b""), dest_addr=-1)


class TestChannelUtilization:
    """Channel.utilization must report the actual busy fraction."""

    def _one_transfer(self, sim):
        # 64 bytes on a 64-bit channel @ 500 MHz: busy for 18_000 ps.
        ch = Channel(sim, "ch", 64, Clock(500 * MHZ), lambda m, c: None)
        ch.submit(NocMessage(Packet(b"\x00" * 64), dest_addr=1))
        sim.run()
        return ch

    def test_zero_elapsed_is_zero(self, sim):
        ch = Channel(sim, "ch", 64, Clock(500 * MHZ), lambda m, c: None)
        assert ch.utilization(0) == 0.0
        assert ch.utilization(-5) == 0.0

    def test_idle_channel_is_zero(self, sim):
        ch = Channel(sim, "ch", 64, Clock(500 * MHZ), lambda m, c: None)
        assert ch.utilization(1_000_000) == 0.0

    def test_busy_fraction(self, sim):
        ch = self._one_transfer(sim)
        assert ch.utilization(18_000) == 1.0
        assert ch.utilization(36_000) == 0.5
        assert ch.utilization(72_000) == 0.25

    def test_in_progress_transfer_is_clipped(self, sim):
        # Ask for utilization at a horizon inside the transfer window:
        # only the portion up to the horizon may count.
        ch = self._one_transfer(sim)
        assert ch.utilization(9_000) == 1.0

    def test_never_exceeds_one(self, sim):
        ch = Channel(sim, "ch", 64, Clock(500 * MHZ), lambda m, c: None)
        for _ in range(3):
            ch.submit(NocMessage(Packet(b"\x00" * 64), dest_addr=1))
        sim.run()
        assert ch.utilization(1) <= 1.0
