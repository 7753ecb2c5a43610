"""Tests for the NIC-infrastructure engines: Ethernet MAC, RMT engine,
DMA, PCIe, RDMA -- plus the host model they talk to."""

import pytest

from repro.core.host import Host, HostKvServer
from repro.engines import (
    DmaEngine,
    EthernetPort,
    RdmaEngine,
    RmtPipelineEngine,
)
from repro.noc import Endpoint, Mesh, MeshConfig
from repro.packet import (
    KvOpcode,
    KvRequest,
    KvStatus,
    Packet,
    PanicHeader,
    build_kv_request_frame,
    parse_frame,
)
from repro.packet.packet import Direction
from repro.rmt import MatchKey, RmtProgram
from repro.sim import Simulator
from repro.sim.clock import MHZ, SEC, US
from tests import udp_frame


class Sink(Endpoint):
    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def receive(self, packet):
        self.got.append((packet, self.sim.now))


def frame_of(size=64):
    payload = b"\x00" * max(0, size - 42)
    return udp_frame(src_port=1, dst_port=2, payload=payload)


class TestEthernetPort:
    def rig(self, sim, line_rate_bps=100e9):
        mesh = Mesh(sim, MeshConfig(width=2, height=1))
        sent = []
        port = EthernetPort(
            sim, "eth", line_rate_bps=line_rate_bps, on_transmit=sent.append
        )
        port.bind_port(mesh.bind(port, 0, 0))
        sink = Sink(sim)
        mesh.bind(sink, 1, 0)
        port.lookup_table.default_next = 1
        return mesh, port, sink, sent

    def test_rx_frame_forwarded_to_default(self, sim):
        mesh, port, sink, _ = self.rig(sim)
        port.inject_rx(Packet(frame_of()))
        sim.run()
        assert len(sink.got) == 1
        packet = sink.got[0][0]
        assert packet.meta.direction == Direction.RX
        assert packet.meta.ingress_port == 0
        assert packet.meta.nic_arrival_ps is not None

    def test_rx_wire_serializes_back_to_back(self, sim):
        mesh, port, _, _ = self.rig(sim, line_rate_bps=10e9)
        p1, p2 = Packet(frame_of()), Packet(frame_of())
        t1 = port.inject_rx(p1)
        t2 = port.inject_rx(p2)
        # 672 bits at 10 Gbps = 67.2 ns per minimal frame.
        assert t2 - t1 == p2.wire_bits * SEC // int(10e9)

    def test_terminal_transmits(self, sim):
        mesh, port, _, sent = self.rig(sim)
        packet = Packet(frame_of())
        packet.panic = PanicHeader(chain=[])
        port.lookup_table.default_next = None
        port._loopback(packet)
        sim.run()
        assert sent == [packet]
        assert packet.meta.direction == Direction.TX
        assert packet.meta.nic_departure_ps is not None

    def test_tx_counts_and_rates(self, sim):
        mesh, port, _, sent = self.rig(sim)
        port.lookup_table.default_next = None
        for _ in range(3):
            packet = Packet(frame_of())
            packet.panic = PanicHeader(chain=[])
            port._loopback(packet)
        sim.run()
        assert port.tx_frames == 3

    def test_invalid_line_rate(self, sim):
        with pytest.raises(ValueError):
            EthernetPort(sim, "bad", line_rate_bps=0)


class TestRmtPipelineEngine:
    def build(self, sim, pipelines=1, stages=4):
        program = RmtProgram("p")
        for i in range(stages):
            program.add_table(f"t{i}", [MatchKey("udp.dst_port")])
        mesh = Mesh(sim, MeshConfig(width=2, height=1))
        outputs = []

        def handler(packet, phv):
            outputs.append((packet, phv, sim.now))
            return [(packet, 1)]

        engine = RmtPipelineEngine(
            sim, "rmt", program, pipelines=pipelines, decision_handler=handler
        )
        engine.bind_port(mesh.bind(engine, 0, 0))
        sink = Sink(sim)
        mesh.bind(sink, 1, 0)
        return engine, sink, outputs

    def test_throughput_is_f_times_p(self, sim):
        engine, _, _ = self.build(sim, pipelines=2)
        assert engine.throughput_pps == 2 * 500 * MHZ

    def test_latency_scales_with_stages(self, sim):
        short, _, _ = self.build(sim, stages=2)
        sim2 = Simulator()
        long, _, _ = self.build.__func__(self, sim2, stages=12)
        assert long.latency_ps > short.latency_ps

    def test_initiation_interval_with_parallel_pipelines(self, sim):
        engine, _, outputs = self.build(sim, pipelines=2)
        for _ in range(4):
            engine._loopback(Packet(frame_of()))
        sim.run()
        times = sorted(t for _p, _phv, t in outputs)
        gaps = [b - a for a, b in zip(times, times[1:])]
        # Two pipelines: admit every half cycle (1000 ps at 500 MHz).
        assert gaps == [1000, 1000, 1000]

    def test_pipelined_not_blocking(self, sim):
        # 100 packets through a 4-stage pipeline: *decisions* complete at
        # the initiation rate (one per cycle), not one per latency.
        engine, sink, outputs = self.build(sim)
        for _ in range(100):
            engine._loopback(Packet(frame_of()))
        sim.run()
        assert len(sink.got) == 100
        decision_times = sorted(t for _p, _phv, t in outputs)
        span = decision_times[-1] - decision_times[0]
        assert span == 99 * engine.clock.period_ps

    def test_decision_handler_required(self, sim):
        program = RmtProgram("p")
        engine = RmtPipelineEngine(sim, "rmt2", program)
        mesh = Mesh(sim, MeshConfig(width=1, height=1))
        engine.bind_port(mesh.bind(engine, 0, 0))
        engine._loopback(Packet(frame_of()))
        with pytest.raises(RuntimeError):
            sim.run()

    def test_parameter_validation(self, sim):
        program = RmtProgram("p")
        with pytest.raises(ValueError):
            RmtPipelineEngine(sim, "bad1", program, pipelines=0)
        with pytest.raises(ValueError):
            RmtPipelineEngine(sim, "bad2", program, chained_engines=0)


class TestHost:
    def test_memory_roundtrip(self, sim):
        host = Host(sim)
        host.store(b"k", b"v")
        assert host.memory_read(b"k") == b"v"
        host.memory_write(b"k2", b"v2")
        assert host.memory.get(b"k2") == b"v2"
        assert host.memory_read(b"missing") is None
        assert host.memory_read(None) is None

    def test_memory_latency_includes_contention(self, sim):
        host = Host(sim, mem_base_ps=100, mem_jitter_ps=0)
        assert host.memory_latency_ps() == 100
        host.contention_ps = 900
        assert host.memory_latency_ps() == 1000

    def test_memory_latency_jitter_bounded(self, sim):
        host = Host(sim, mem_base_ps=100, mem_jitter_ps=50)
        for _ in range(100):
            assert 100 <= host.memory_latency_ps() <= 150

    def test_rx_ring_and_interrupt_software_pass(self, sim):
        host = Host(sim, software_delay_ps=1000)
        seen = []
        host.software_handler = lambda packet, queue: seen.append((packet, queue))
        packet = Packet(frame_of())
        host.write_rx(packet, 2)
        assert sum(map(len, host.rx_rings)) == 1
        host.interrupt(1)
        sim.run()
        assert seen == [(packet, 2)]
        assert sum(map(len, host.rx_rings)) == 0

    def test_bad_queue_index_falls_back(self, sim):
        host = Host(sim, rx_queues=2)
        host.write_rx(Packet(b""), 99)
        assert len(host.rx_rings[0]) == 1

    def test_tx_ring_pop_order(self, sim):
        host = Host(sim)
        host.tx_rings[0].extend([b"a", b"b"])
        assert host.pop_tx(0) == b"a"
        assert host.pop_tx(0) == b"b"
        assert host.pop_tx(0) is None
        assert host.pop_tx(99) is None

    def test_kv_server_get_set_delete(self, sim):
        host = Host(sim, software_delay_ps=100)
        server = HostKvServer(host, per_request_ps=100)
        host.store(b"k", b"stored")

        def run_request(request):
            packet = build_kv_request_frame(request)
            host.write_rx(packet, 0)
            host.interrupt(1)
            sim.run()
            frame = host.pop_tx(0)
            assert frame is not None
            return parse_frame(frame).kv_response()

        get = run_request(KvRequest(KvOpcode.GET, 1, 1, b"k"))
        assert get.status == KvStatus.OK and get.value == b"stored"
        set_resp = run_request(KvRequest(KvOpcode.SET, 1, 2, b"k2", b"v2"))
        assert set_resp.status == KvStatus.OK
        assert host.memory[b"k2"] == b"v2"
        assert server.log == [b"v2"]
        delete = run_request(KvRequest(KvOpcode.DELETE, 1, 3, b"k"))
        assert delete.status == KvStatus.OK
        miss = run_request(KvRequest(KvOpcode.GET, 1, 4, b"k"))
        assert miss.status == KvStatus.NOT_FOUND


class TestDmaPcieRdma:
    """Integration of DMA + PCIe + RDMA engines over a tiny mesh."""

    def rig(self, sim, coalesce_count=2):
        mesh = Mesh(sim, MeshConfig(width=4, height=1))
        from repro.engines import PcieEngine

        dma = DmaEngine(sim, "dma")
        dma.bind_port(mesh.bind(dma, 0, 0))
        pcie = PcieEngine(sim, "pcie", coalesce_count=coalesce_count,
                          coalesce_timeout_ps=5 * US)
        pcie.bind_port(mesh.bind(pcie, 1, 0))
        rdma = RdmaEngine(sim, "rdma")
        rdma.bind_port(mesh.bind(rdma, 2, 0))
        sink = Sink(sim)
        mesh.bind(sink, 3, 0)
        host = Host(sim, mem_jitter_ps=0)
        dma.attach_host(host)
        pcie.attach_host(host)
        host.pcie = pcie
        dma.pcie_addr = pcie.address
        pcie.dma_addr = dma.address
        rdma.dma_addr = dma.address
        # Chain-less outputs (RDMA responses, fetched TX frames) land in
        # the sink, standing in for the RMT pipeline of a full NIC.
        rdma.lookup_table.default_next = sink.address
        dma.lookup_table.default_next = sink.address
        return mesh, dma, pcie, rdma, host, sink

    def test_rx_write_generates_completion_and_interrupt(self, sim):
        mesh, dma, pcie, _, host, _sink = self.rig(sim, coalesce_count=1)
        seen = []
        host.software_handler = lambda pkt, queue: seen.append((pkt, queue))
        packet = Packet(frame_of())
        packet.meta.direction = Direction.RX
        packet.meta.rx_queue = 1
        dma._loopback(packet)
        sim.run()
        assert host.rx_delivered == 1
        assert seen == [(packet, 1)]  # delivered on queue 1, then consumed
        assert pcie.completions == 1
        assert pcie.interrupts == 1
        assert host.interrupts_taken == 1

    def test_interrupt_coalescing_by_count(self, sim):
        mesh, dma, pcie, _, host, _sink = self.rig(sim, coalesce_count=2)
        for _ in range(4):
            packet = Packet(frame_of())
            packet.meta.direction = Direction.RX
            dma._loopback(packet)
        sim.run()
        assert pcie.completions == 4
        assert pcie.interrupts == 2  # 4 completions / 2 per interrupt

    def test_interrupt_coalescing_timeout_flushes(self, sim):
        mesh, dma, pcie, _, host, _sink = self.rig(sim, coalesce_count=100)
        packet = Packet(frame_of())
        packet.meta.direction = Direction.RX
        dma._loopback(packet)
        sim.run()
        assert pcie.interrupts == 1  # timeout fired, not the count

    def test_doorbell_fetches_tx_frames(self, sim):
        mesh, dma, pcie, _, host, sink = self.rig(sim)
        host.tx_rings[0].append(frame_of())
        host.tx_rings[0].append(frame_of())
        pcie.ring_doorbell(0)
        sim.run()
        assert dma.tx_fetches == 2
        assert len(sink.got) == 2
        assert all(p.meta.direction == Direction.TX for p, _t in sink.got)

    def test_dma_read_returns_data_to_requester(self, sim):
        mesh, dma, pcie, rdma, host, sink = self.rig(sim)
        host.store(b"key", b"stored-value")
        request = build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 9, b"key"))
        request.meta.direction = Direction.RX
        rdma._loopback(request)
        sim.run()
        assert rdma.reads_issued == 1
        assert rdma.responses == 1
        assert not rdma._pending
        # The response went to RDMA's default route (pcie tile); check
        # that a proper KV response was built.
        assert dma.reads == 1

    def test_dma_service_time_uses_host_latency(self, sim):
        mesh, dma, pcie, _, host, _sink = self.rig(sim)
        host.contention_ps = 1_000_000
        packet = Packet(frame_of())
        packet.meta.direction = Direction.RX
        base = dma.service_time_ps(packet)
        host.contention_ps = 0
        assert dma.service_time_ps(packet) < base

    def test_dma_requires_host(self, sim):
        dma = DmaEngine(sim, "lonely")
        with pytest.raises(RuntimeError):
            dma.service_time_ps(Packet(b""))
