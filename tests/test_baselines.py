"""Tests for the three baseline NIC architectures (Figure 2)."""

import pytest

from repro.baselines import (
    ManycoreNic,
    PipelineNic,
    RmtNic,
    UnsupportedOffloadError,
)
from repro.core.host import Host
from repro.core.pipeline_programs import DIR_RX
from repro.engines import ChecksumEngine, CompressionEngine, IpsecEngine, RegexEngine
from repro.packet import Packet, build_udp_frame
from repro.rmt import MatchKey, RmtProgram
from repro.sim import Simulator
from repro.sim.clock import US


def plain_udp(payload=b"data", src_port=7777):
    return Packet(
        build_udp_frame(
            src_mac="02:00:00:00:00:01",
            dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1",
            dst_ip="10.0.0.2",
            src_port=src_port,
            dst_port=8888,
            payload=payload,
        )
    )


def slow_fast_line(sim):
    """A two-stage line: slow DPI then cheap checksum."""
    dpi = RegexEngine(sim, "bl.dpi", patterns=[b"x"], cycles_per_byte=200.0)
    csum = ChecksumEngine(sim, "bl.csum")
    return [("regex", dpi), ("checksum", csum)]


class TestPipelineNic:
    def test_packet_traverses_all_stages(self, sim):
        nic = PipelineNic(sim, slow_fast_line(sim))
        received = []
        nic.host.software_handler = lambda p, q: received.append(p)
        packet = plain_udp()
        nic.inject(packet)
        sim.run()
        assert len(received) == 1
        assert nic.stages[0].passed_through.value == 1  # didn't need DPI
        assert nic.stages[1].passed_through.value == 1

    def test_needed_offload_applied(self, sim):
        nic = PipelineNic(sim, slow_fast_line(sim))
        packet = plain_udp()
        packet.meta.annotations["needs"] = ("checksum",)
        nic.inject(packet)
        sim.run()
        assert nic.stages[1].serviced.value == 1
        assert packet.meta.annotations["served"] == ("checksum",)

    def test_hol_blocking_without_bypass(self, sim):
        nic = PipelineNic(sim, slow_fast_line(sim))
        slow = plain_udp(payload=b"x" * 1400)
        slow.meta.annotations["needs"] = ("regex",)
        victim = plain_udp()
        done = []
        nic.host.software_handler = lambda p, q: done.append((p, sim.now))
        nic.inject(slow)
        nic.inject(victim)
        sim.run()
        victim_time = next(t for p, t in done if p is victim)
        # The victim waited behind the slow DPI packet.
        assert victim_time > 500 * US

    def test_bypass_avoids_hol_blocking(self, sim):
        nic = PipelineNic(sim, slow_fast_line(sim), bypass_enabled=True)
        slow = plain_udp(payload=b"x" * 1400)
        slow.meta.annotations["needs"] = ("regex",)
        victim = plain_udp()
        done = []
        nic.host.software_handler = lambda p, q: done.append((p, sim.now))
        nic.inject(slow)
        nic.inject(victim)
        sim.run()
        victim_time = next(t for p, t in done if p is victim)
        assert victim_time < 10 * US

    def test_wrong_order_forces_recirculation(self, sim):
        # Line order: regex then checksum; the packet needs checksum first.
        nic = PipelineNic(sim, slow_fast_line(sim))
        packet = plain_udp()
        packet.meta.annotations["needs"] = ("checksum", "regex")
        nic.inject(packet)
        sim.run()
        assert nic.recirculations.value == 1
        assert packet.meta.annotations["served"] == ("checksum", "regex")

    def test_in_order_chain_no_recirculation(self, sim):
        nic = PipelineNic(sim, slow_fast_line(sim))
        packet = plain_udp()
        packet.meta.annotations["needs"] = ("regex", "checksum")
        nic.inject(packet)
        sim.run()
        assert nic.recirculations.value == 0

    def test_recirculation_disabled_sends_unserved_to_host(self, sim):
        nic = PipelineNic(sim, slow_fast_line(sim), allow_recirculation=False)
        packet = plain_udp()
        packet.meta.annotations["needs"] = ("checksum", "regex")
        received = []
        nic.host.software_handler = lambda p, q: received.append(p)
        nic.inject(packet)
        sim.run()
        assert received == [packet]
        assert nic.recirculations.value == 0


class TestManycoreNic:
    def offloads(self, sim):
        return [("checksum", ChecksumEngine(sim, "mc.csum"))]

    def test_orchestration_latency_floor(self, sim):
        nic = ManycoreNic(sim, self.offloads(sim), orchestration_ps=10 * US)
        done = []
        nic.host.software_handler = lambda p, q: done.append((p, sim.now))
        packet = plain_udp()
        nic.inject(packet)
        sim.run()
        # Every packet pays the ~10us core orchestration (section 2.3.2).
        assert done[0][1] >= 10 * US

    def test_offload_roundtrip_through_station(self, sim):
        nic = ManycoreNic(sim, self.offloads(sim))
        packet = plain_udp()
        packet.meta.annotations["needs"] = ("checksum",)
        nic.inject(packet)
        sim.run()
        assert nic.stations["checksum"].serviced.value == 1
        assert packet.meta.annotations["served"] == ("checksum",)

    def test_cores_limit_concurrency(self, sim):
        # 1 core, 3 packets: finishes spaced by >= orchestration time.
        nic = ManycoreNic(sim, [], cores=1, orchestration_ps=10 * US)
        for _ in range(3):
            nic.inject(plain_udp())
        sim.run()
        # Serialized on the single core: at least 3 x 10us of wall clock.
        assert sim.now >= 30 * US
        assert nic.core_latency.count == 3
        assert nic.core_latency.maximum >= 10 * US

    def test_more_cores_more_throughput(self):
        finish = {}
        for cores in (1, 8):
            sim = Simulator()
            nic = ManycoreNic(sim, [], cores=cores, orchestration_ps=10 * US)
            for _ in range(16):
                nic.inject(plain_udp())
            sim.run()
            finish[cores] = sim.now
        assert finish[8] < finish[1] / 3

    def test_round_robin_spray(self, sim):
        nic = ManycoreNic(sim, [], cores=4)
        packets = [plain_udp() for _ in range(8)]
        for packet in packets:
            nic.inject(packet)
        sim.run()
        cores_used = {p.meta.annotations["core"] for p in packets}
        assert cores_used == {0, 1, 2, 3}

    def test_core_count_validated(self, sim):
        with pytest.raises(ValueError):
            ManycoreNic(sim, [], cores=0)


class TestRmtNic:
    def build(self, sim, **kwargs):
        program = RmtProgram("flexnic")
        steer = program.add_table(
            "steer", [MatchKey("meta.direction")], requires="udp.src_port"
        )
        steer.add(
            [DIR_RX],
            "hash_select",
            {"fields": ["ipv4.src", "udp.src_port"], "ways": 4},
        )
        return RmtNic(sim, program, **kwargs)

    def test_steers_to_queues(self, sim):
        nic = self.build(sim)
        received = []
        nic.host.software_handler = lambda p, q: received.append((p, q))
        a = plain_udp(src_port=1000)
        b = plain_udp(src_port=1000)
        nic.inject(a)
        nic.inject(b)
        sim.run()
        assert len(received) == 2
        assert a.meta.annotations["rx_queue"] == b.meta.annotations["rx_queue"]

    def test_unsupported_offloads_raise(self, sim):
        nic = self.build(sim)
        for offload in ("ipsec", "compression", "kvcache", "rdma", "regex"):
            with pytest.raises(UnsupportedOffloadError):
                nic.attach_offload(offload)

    def test_header_level_function_accepted(self, sim):
        nic = self.build(sim)
        nic.attach_offload("steering")  # no exception

    def test_line_rate_initiation(self, sim):
        nic = self.build(sim, pipelines=2)
        assert nic.throughput_pps == 1e9
        assert nic.initiation_interval_ps == 1000

    def test_drop_action_drops(self, sim):
        program = RmtProgram("dropper")
        table = program.add_table("acl", [MatchKey("udp.dst_port")])
        table.add([8888], "drop")
        nic = RmtNic(sim, program)
        received = []
        nic.host.software_handler = lambda p, q: received.append(p)
        nic.inject(plain_udp())
        sim.run()
        assert received == []
        assert nic.dropped.value == 1
