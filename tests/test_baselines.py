"""Tests for the three baseline NIC architectures (Figure 2), each a
PanicNic configuration built by repro.baselines."""

import functools

import pytest

from repro import baselines
from repro.baselines import manycore_nic, pipeline_nic, rmt_only_nic
from repro.core import PanicConfig, PanicNic
from repro.core.panic import _OFFLOAD_ENGINES
from repro.core.pipeline_programs import DIR_RX
from repro.engines import DmaEngine, EthernetPort, PcieEngine, RmtPipelineEngine
from repro.packet import Packet, build_udp_frame
from repro.sim import Simulator
from repro.sim.clock import US
from repro.telemetry import TelemetryConfig

#: Two-stage line: slow DPI then cheap checksum.
LINE = ("regex", "checksum")
SLOW_DPI = {"regex": {"patterns": [b"x"], "cycles_per_byte": 200.0}}


def plain_udp(payload=b"data", src_port=7777, dscp=0):
    return Packet(
        build_udp_frame(
            src_mac="02:00:00:00:00:01",
            dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1",
            dst_ip="10.0.0.2",
            src_port=src_port,
            dst_port=8888,
            payload=payload,
            dscp=dscp,
        )
    )


@pytest.fixture(autouse=True)
def traced(monkeypatch):
    """Every baseline NIC traces every packet, so its path can be read."""
    monkeypatch.setattr(baselines, "PanicConfig", functools.partial(
        PanicConfig, telemetry=TelemetryConfig(sample_every=1)))


def offload_visits(nic, packet):
    """The offload tiles a delivered packet visited, in order."""
    tiles = (hop.split(".", 1)[1]
             for hop in nic.telemetry.tracer.path(packet))
    return [tile for tile in tiles if tile in ("regex", "checksum", "core")]


def test_builders_are_panic_configurations(sim):
    """Every baseline is a PanicNic made of PANIC's own engine types."""
    standard = {EthernetPort, DmaEngine, PcieEngine, RmtPipelineEngine}
    allowed = standard | set(_OFFLOAD_ENGINES.values())
    for nic in (
        pipeline_nic(sim, LINE, {1: ("regex",)}, offload_params=SLOW_DPI),
        manycore_nic(sim, ("checksum",), {1: ("checksum",)}),
        rmt_only_nic(sim),
    ):
        assert type(nic) is PanicNic
        assert {type(engine) for engine in nic.engines.values()} <= allowed


class TestPipelineNic:
    def build(self, sim, classes, **kwargs):
        return pipeline_nic(sim, LINE, classes, offload_params=SLOW_DPI,
                            **kwargs)

    def test_packet_traverses_all_stages(self, sim):
        nic = self.build(sim, {1: ("regex",)})
        received = []
        nic.host.software_handler = lambda p, q: received.append(p)
        packet = plain_udp()  # DSCP 0: needs nothing
        nic.inject(packet)
        sim.run()
        assert received == [packet]
        assert offload_visits(nic, packet) == ["regex", "checksum"]

    def test_needed_offload_applied(self, sim):
        nic = self.build(sim, {1: ("checksum",)}, bypass=True)
        packet = plain_udp(dscp=1)
        nic.inject(packet)
        sim.run()
        assert offload_visits(nic, packet) == ["checksum"]
        assert packet.meta.annotations["csum_ok"] is True

    def victim_time(self, sim, nic):
        """When a plain packet, sent right behind a slow DPI one, reaches
        host memory (interrupt coalescing is the host's, not the
        pipeline's)."""
        slow = plain_udp(payload=b"x" * 1400, dscp=1)
        victim = plain_udp()
        nic.inject(slow)
        nic.inject(victim)
        sim.run()
        return victim.meta.host_rx_ps

    def test_hol_blocking_without_bypass(self, sim):
        nic = self.build(sim, {1: ("regex",)})
        # The victim waited behind the slow DPI packet.
        assert self.victim_time(sim, nic) > 500 * US

    def test_bypass_avoids_hol_blocking(self, sim):
        nic = self.build(sim, {1: ("regex",)}, bypass=True)
        assert self.victim_time(sim, nic) < 10 * US

    def test_wrong_order_forces_recirculation(self, sim):
        # Line order: regex then checksum; the packet needs checksum first.
        nic = self.build(sim, {1: ("checksum", "regex")})
        packet = plain_udp(dscp=1)
        nic.inject(packet)
        sim.run()
        # One recirculation: the whole line, twice.
        assert offload_visits(nic, packet) == ["regex", "checksum"] * 2

    def test_in_order_chain_no_recirculation(self, sim):
        nic = self.build(sim, {1: ("regex", "checksum")})
        packet = plain_udp(dscp=1)
        nic.inject(packet)
        sim.run()
        assert offload_visits(nic, packet) == ["regex", "checksum"]

    def test_offload_off_the_line_refused(self, sim):
        with pytest.raises(ValueError, match="not on the line"):
            self.build(sim, {1: ("ipsec",)})


class TestManycoreNic:
    def test_orchestration_latency_floor(self, sim):
        nic = manycore_nic(sim, ("checksum",), {})
        done = []
        nic.host.software_handler = lambda p, q: done.append((p, sim.now))
        packet = plain_udp()
        nic.inject(packet)
        sim.run()
        # Every packet pays the ~10us core orchestration (section 2.3.2).
        assert done[0][1] >= 10 * US

    def test_offload_roundtrip_through_station(self, sim):
        nic = manycore_nic(sim, ("checksum",), {1: ("checksum",)})
        packet = plain_udp(dscp=1)
        nic.inject(packet)
        sim.run()
        # The core calls the offload and takes the packet back.
        assert offload_visits(nic, packet) == ["core", "checksum", "core"]
        assert packet.meta.annotations["csum_ok"] is True

    def test_cores_limit_concurrency(self, sim):
        # 1 core, 3 packets: finishes spaced by >= orchestration time.
        nic = manycore_nic(sim, (), {}, cores=1)
        for _ in range(3):
            nic.inject(plain_udp())
        sim.run()
        # Serialized on the single core: at least 3 x 10us of wall clock.
        assert sim.now >= 30 * US
        assert nic.offload("core").processed == 3

    def test_more_cores_more_throughput(self):
        finish = {}
        for cores in (1, 8):
            sim = Simulator()
            nic = manycore_nic(sim, (), {}, cores=cores)
            for _ in range(16):
                nic.inject(plain_udp())
            sim.run()
            finish[cores] = sim.now
        assert finish[8] < finish[1] / 3

    def test_core_count_validated(self, sim):
        with pytest.raises(ValueError):
            manycore_nic(sim, (), {}, cores=0)


class TestRmtNic:
    def test_steers_to_queues(self, sim):
        nic = rmt_only_nic(sim)
        received = []
        nic.host.software_handler = lambda p, q: received.append((p, q))
        a = plain_udp(src_port=1000)
        b = plain_udp(src_port=1000)
        nic.inject(a)
        nic.inject(b)
        sim.run()
        assert len(received) == 2
        assert a.meta.rx_queue == b.meta.rx_queue

    def test_unsupported_offloads_raise(self, sim):
        nic = rmt_only_nic(sim)
        for offload in ("ipsec", "compression", "kvcache", "rdma", "regex"):
            with pytest.raises(KeyError, match=f"unknown engine '{offload}'"):
                nic.control.route_dscp(1, [offload])

    def test_header_level_function_accepted(self, sim):
        nic = rmt_only_nic(sim)
        nic.control.route_dscp(1, [])  # steering only: no exception

    def test_line_rate_initiation(self, sim):
        nic = rmt_only_nic(sim)
        assert nic.rmt.throughput_pps == 1e9
        assert nic.rmt.initiation_interval_ps == 1000

    def test_drop_action_drops(self, sim):
        nic = rmt_only_nic(sim)
        nic.control.program.table("port_route").add([DIR_RX, 8888], "drop")
        received = []
        nic.host.software_handler = lambda p, q: received.append(p)
        nic.inject(plain_udp())
        sim.run()
        assert received == []
        assert nic.rmt_drops == 1
