"""Integration tests for the assembled PANIC NIC."""

import pytest

from repro.core import Host, HostKvServer, PanicConfig, PanicNic
from repro.packet import (
    KvOpcode,
    KvRequest,
    KvStatus,
    Packet,
    build_kv_request_frame,
    build_udp_frame,
    parse_frame,
)
from repro.sim import Simulator
from repro.sim.clock import MHZ, US


def plain_udp(dst_ip="10.0.0.2", payload=b"hello", dscp=0):
    return Packet(
        build_udp_frame(
            src_mac="02:00:00:00:00:01",
            dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1",
            dst_ip=dst_ip,
            src_port=7777,
            dst_port=8888,
            payload=payload,
            dscp=dscp,
        )
    )


class TestConstruction:
    def test_engines_placed_and_wired(self, nic):
        assert set(nic.engines) >= {"eth0", "dma", "pcie", "rmt", "ipsec",
                                    "compression", "kvcache", "rdma"}
        for key, engine in nic.engines.items():
            assert engine.port is not None
            if key != "rmt":
                assert engine.lookup_table.default_next == nic.rmt.address

    def test_dma_pcie_cross_wired(self, nic):
        assert nic.dma.pcie_addr == nic.pcie.address
        assert nic.pcie.dma_addr == nic.dma.address
        assert nic.engines["rdma"].dma_addr == nic.dma.address
        assert nic.host.pcie is nic.pcie

    def test_config_rejects_overfull_mesh(self):
        with pytest.raises(ValueError):
            PanicConfig(ports=4, mesh_width=2, mesh_height=2)

    def test_config_rejects_unknown_offload(self):
        with pytest.raises(ValueError):
            PanicConfig(offloads=("warp_drive",))

    def test_config_rejects_params_for_an_offload_it_does_not_build(self):
        with pytest.raises(ValueError, match=r"offload_params.*ipsek"):
            PanicConfig(offload_params={"ipsek": {"drop_on_auth_failure": True}})
        PanicConfig(offloads=("ipsec", "ipsec1"),
                    offload_params={"ipsec1": {"drop_on_auth_failure": True}})

    def test_config_rejects_placement_of_an_engine_it_does_not_build(self):
        with pytest.raises(ValueError, match=r"placement.*ipsek.*valid keys"):
            PanicConfig(placement={"ipsek": (0, 0)})
        for key in ("eth2", "rmt2", "rmt0", "checksum"):
            with pytest.raises(ValueError, match=key):
                PanicConfig(rmt_tiles=2, placement={key: (2, 2)})
        PanicConfig(rmt_tiles=2, placement={
            "eth0": (0, 0), "eth1": (0, 1), "rmt": (1, 0), "rmt1": (1, 1),
            "dma": (3, 0), "pcie": (3, 1), "ipsec": (2, 0), "rdma": (2, 2)})

    def test_offload_lookup(self, nic):
        assert nic.offload("ipsec") is nic.engines["ipsec"]
        with pytest.raises(KeyError):
            nic.offload("ghost")

    def test_two_port_nic(self, sim):
        nic = PanicNic(sim, PanicConfig(ports=2))
        assert len(nic.ports) == 2
        assert nic.ports[0].port_index == 0
        assert nic.ports[1].port_index == 1

    def test_default_nic_is_the_reference_design_point(self, sim):
        """The paper's design point, held by component defaults: 128-bit
        mesh channels, 100 Gbps MACs, 500 MHz tiles, 4 RX / 4 TX host
        queues and an RMT program hashing into 4 receive queues."""
        nic = PanicNic(sim)
        assert nic.mesh.config.channel_bits == 128
        assert nic.mesh.clock.freq_hz == 500 * MHZ
        assert [mac.line_rate_bps for mac in nic.ports] == [100e9, 100e9]
        assert {key: engine.clock.freq_hz
                for key, engine in nic.engines.items()} == dict.fromkeys(
            ["eth0", "eth1", "dma", "pcie", "rmt",
             "ipsec", "compression", "kvcache", "rdma"], 500 * MHZ)
        assert len(nic.host.rx_rings) == len(nic.host.tx_rings) == 4
        (steer,) = nic.control.program.table("rx_steer").entries()
        assert steer.action == "hash_select" and steer.params["ways"] == 4

    @pytest.mark.parametrize(
        "param", ["mem_base_ps", "mem_jitter_ps", "software_delay_ps"])
    def test_host_rejects_negative_latency(self, sim, param):
        with pytest.raises(ValueError, match=param):
            Host(sim, **{param: -5})

    def test_negative_host_jitter_rejected_at_build(self, sim):
        # Once accepted, it crashed the first frame inside sim.run().
        with pytest.raises(ValueError, match="mem_jitter_ps"):
            PanicNic(sim, PanicConfig(ports=1, host_mem_jitter_ps=-5))


class TestRxPath:
    def test_plain_packet_lands_in_host_ring(self, sim, nic):
        received = []
        nic.host.software_handler = lambda p, q: received.append((p, q))
        nic.inject(plain_udp())
        sim.run()
        assert len(received) == 1
        assert nic.host.rx_delivered == 1

    def test_rx_packet_traverses_rmt_then_dma(self, sim, nic):
        packet = plain_udp()
        nic.inject(packet)
        sim.run()
        assert "panic.rmt" in packet.trail
        assert "panic.dma" in packet.trail

    def test_rx_steering_is_flow_stable(self, sim, nic):
        packets = [plain_udp() for _ in range(4)]
        for packet in packets:
            nic.inject(packet)
        sim.run()
        queues = {p.meta.rx_queue for p in packets}
        assert len(queues) == 1  # same flow -> same queue

    def test_inject_validates_port(self, nic):
        with pytest.raises(ValueError):
            nic.inject(plain_udp(), port=9)


class TestKvFastPath:
    def test_cache_hit_bypasses_cpu(self, sim, nic):
        nic.control.enable_kv_cache()
        nic.offload("kvcache").cache_put(b"hot", b"cached!")
        nic.inject(build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 5, b"hot")))
        sim.run()
        assert len(nic.transmitted) == 1
        response = parse_frame(nic.transmitted[0].data).kv_response()
        assert response.value == b"cached!"
        # CPU bypass: the host never saw the request.
        assert nic.host.rx_delivered == 0
        assert nic.host.interrupts_taken == 0

    def test_cache_miss_served_by_host(self, sim, nic):
        HostKvServer(nic.host)
        nic.control.enable_kv_cache()
        nic.host.store(b"cold", b"from-host")
        nic.inject(build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 6, b"cold")))
        sim.run()
        assert len(nic.transmitted) == 1
        response = parse_frame(nic.transmitted[0].data).kv_response()
        assert response.value == b"from-host"
        assert nic.host.rx_delivered == 1

    def test_get_not_found(self, sim, nic):
        HostKvServer(nic.host)
        nic.control.enable_kv_cache()
        nic.inject(build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 7, b"nope")))
        sim.run()
        response = parse_frame(nic.transmitted[0].data).kv_response()
        assert response.status == KvStatus.NOT_FOUND

    def test_set_writes_through_hot_key(self, sim, nic):
        HostKvServer(nic.host)
        nic.control.enable_kv_cache()
        cache = nic.offload("kvcache")
        cache.cache_put(b"hot", b"old")
        nic.inject(
            build_kv_request_frame(KvRequest(KvOpcode.SET, 1, 8, b"hot", b"new"))
        )
        sim.run()
        assert cache.cache_get(b"hot") == b"new"
        assert nic.host.memory[b"hot"] == b"new"  # host got it too
        response = parse_frame(nic.transmitted[0].data).kv_response()
        assert response.status == KvStatus.OK

    def test_rdma_fast_path_reads_host_memory(self, sim, nic):
        from repro.packet.kv import KvOpcode as Op

        nic.control.route_kv_opcode(Op.GET, ["rdma"], append_dma=False)
        nic.host.store(b"mem-key", b"dma-read-value")
        nic.inject(build_kv_request_frame(KvRequest(Op.GET, 2, 9, b"mem-key")))
        sim.run()
        assert len(nic.transmitted) == 1
        response = parse_frame(nic.transmitted[0].data).kv_response()
        assert response.value == b"dma-read-value"
        # RDMA path: DMA read happened, but no interrupt-driven software.
        assert nic.host.mem_reads >= 1
        assert nic.host.interrupts_taken == 0


class TestIpsecPath:
    def test_encrypted_request_decrypted_then_served(self, sim, nic):
        nic.control.enable_kv_cache()
        nic.control.enable_ipsec_rx()
        ipsec = nic.offload("ipsec")
        from repro.engines import IpsecSa

        ipsec.install_sa(
            IpsecSa(spi=0x77, key=b"wan", tunnel_src="8.8.8.8",
                    tunnel_dst="9.9.9.9")
        )
        nic.offload("kvcache").cache_put(b"wan-key", b"wan-value")
        request = build_kv_request_frame(KvRequest(KvOpcode.GET, 3, 11, b"wan-key"))
        encrypted = ipsec.encrypt(request, 0x77)
        nic.inject(encrypted)
        sim.run()
        assert ipsec.decrypted == 1
        response = parse_frame(nic.transmitted[0].data).kv_response()
        assert response.value == b"wan-value"
        # Two heavyweight passes: encrypted, then decrypted (section 3.1.2),
        # plus one for the response.
        assert nic.rmt.processed == 3


class TestSlackProgramming:
    def test_tenant_slack_stamped_on_chain_header(self, sim, nic):
        nic.control.enable_kv_cache()
        nic.control.set_tenant_slack(5, 123 * US)
        packet = build_kv_request_frame(KvRequest(KvOpcode.GET, 5, 13, b"x"))
        nic.inject(packet)
        sim.run()
        assert packet.panic is not None
        # Deadline = pipeline-exit time + slack; bounded by injection+slack.
        assert packet.panic.slack_ps >= 123 * US

    def test_dscp_slack_for_non_kv(self, sim, nic):
        nic.control.set_dscp_slack(7, 55 * US)
        packet = plain_udp(dscp=7)
        nic.inject(packet)
        sim.run()
        assert packet.panic is not None
        assert packet.panic.slack_ps >= 55 * US


class TestStats:
    def test_stats_shape(self, sim, nic):
        nic.inject(plain_udp())
        sim.run()
        stats = nic.stats()
        assert stats["rmt"]["processed"] == 1
        assert stats["host"]["rx_delivered"] == 1
        assert "nic" in stats

    def test_transmit_callback(self, sim, nic):
        seen = []
        nic.on_transmit(seen.append)
        nic.control.enable_kv_cache()
        nic.offload("kvcache").cache_put(b"k", b"v")
        nic.inject(build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 14, b"k")))
        sim.run()
        assert len(seen) == 1
