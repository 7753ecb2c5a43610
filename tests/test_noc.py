"""Tests for the on-chip network: channels, routers, mesh."""

import pytest

from repro.noc import Endpoint, Mesh, MeshConfig
from repro.noc.channel import Channel
from repro.packet import Packet, PanicHeader
from repro.sim import Clock, Simulator
from repro.sim.clock import MHZ


class Sink(Endpoint):
    def __init__(self, sim=None):
        self.sim = sim
        self.got = []

    def receive(self, packet):
        when = self.sim.now if self.sim else None
        self.got.append((packet, when))


def in_transfer(packet, dest_addr=1):
    """``packet`` with the transfer slots a port's ``send`` writes, for
    a channel driven without a port."""
    packet.dest_addr = dest_addr
    packet.hops = 0
    packet.bits = packet.chip_bits
    return packet


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
        ch.submit(in_transfer(Packet(b"\x00" * 64)))
        sim.run()
        # 512 bits / 64 = 8 cycles + 1 router cycle = 9 * 2000 ps.
        assert got == [18000]

    def test_back_to_back_messages_serialize(self, sim):
        got = []
        ch = Channel(sim, "ch", 64, Clock(500 * MHZ), lambda m, c: got.append(sim.now))
        for _ in range(3):
            ch.submit(in_transfer(Packet(b"\x00" * 64)))
        sim.run()
        assert got == [18000, 36000, 54000]

    def test_credits_block_transfers(self, sim):
        held = []
        ch = Channel(
            sim, "ch", 64, Clock(500 * MHZ), lambda m, c: held.append(m), credits=1
        )
        for _ in range(3):
            ch.submit(in_transfer(Packet(b"\x00" * 64)))
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
        ch.submit(in_transfer(Packet(b"")))
        sim.run()
        assert got[0].hops == 1


class TestMeshRouting:
    def test_corner_to_corner_xy_route(self, sim):
        mesh, sinks, ports = build_mesh(sim)
        ports[(0, 0)].send(Packet(b"\x00" * 64), mesh.address_of(3, 3))
        sim.run()
        packet, when = sinks[(3, 3)].got[0]
        assert packet.hops == 7  # inject + 3 east + 3 south
        assert when == 7 * 9 * 2000

    def test_local_delivery_same_column(self, sim):
        mesh, sinks, ports = build_mesh(sim)
        ports[(2, 0)].send(Packet(b"\x00" * 64), mesh.address_of(2, 3))
        sim.run()
        packet, _ = sinks[(2, 3)].got[0]
        assert packet.hops == 4  # inject + 3 south

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


class TestTransferSlots:
    """A frame is its own envelope: a port's ``send`` writes the
    transfer into the packet's own slots."""

    def test_bits_counts_chain_header(self, sim):
        mesh, _sinks, ports = build_mesh(sim, width=2, height=1)
        packet = Packet(b"\x00" * 10)
        ports[(0, 0)].send(packet, mesh.address_of(1, 0))
        assert (packet.dest_addr, packet.hops, packet.bits) == (1, 0, 80)
        headed = Packet(b"\x00" * 10)
        headed.panic = PanicHeader(chain=[1])
        ports[(0, 0)].send(headed, mesh.address_of(1, 0))
        assert headed.bits == (10 + headed.panic.length) * 8

    def test_negative_address_rejected(self, sim):
        mesh, _sinks, ports = build_mesh(sim, width=2, height=1)
        with pytest.raises(ValueError):
            ports[(0, 0)].send(Packet(b""), -1)
        assert ports[(0, 0)].sent == 0
        assert mesh.in_flight == 0


class TestChannelUtilization:
    """Channel.utilization must report the actual busy fraction."""

    def _one_transfer(self, sim):
        # 64 bytes on a 64-bit channel @ 500 MHz: busy for 18_000 ps.
        ch = Channel(sim, "ch", 64, Clock(500 * MHZ), lambda m, c: None)
        ch.submit(in_transfer(Packet(b"\x00" * 64)))
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
            ch.submit(in_transfer(Packet(b"\x00" * 64)))
        sim.run()
        assert ch.utilization(1) <= 1.0
