"""End-to-end integration: two NICs on a wire, combined feature runs.

These tests exercise whole-system scenarios that cut across every
subpackage at once -- the closest thing to the paper's deployment story.
"""

from repro.core import HostKvServer, PanicConfig, PanicNic
from repro.packet import (
    KvOpcode,
    KvRequest,
    Packet,
    build_kv_request_frame,
    parse_frame,
)
from repro.sim import Simulator
from repro.sim.clock import NS, US
from repro.workloads import Wire
from tests import udp_frame


def kv_frame_bytes(opcode, tenant, request_id, key, value=b""):
    request = KvRequest(opcode, tenant, request_id, key, value)
    return build_kv_request_frame(request).data


class TestTwoNicWire:
    def build_pair(self, sim, propagation_ps=500 * NS):
        client = PanicNic(sim, PanicConfig(ports=1), name="client")
        server = PanicNic(sim, PanicConfig(ports=1), name="server")
        server.control.enable_kv_cache()
        HostKvServer(server.host)
        wire = Wire(sim, client, server, propagation_ps=propagation_ps)
        return client, server, wire

    def test_client_host_request_served_by_server_nic_cache(self, sim):
        client, server, wire = self.build_pair(sim)
        server.offload("kvcache").cache_put(b"hot", b"from-server-nic")
        responses = []

        def client_rx(packet, queue):
            frame = parse_frame(packet.data)
            if frame.is_kv and frame.payload[0] == KvOpcode.RESPONSE:
                responses.append(frame.kv_response())

        client.host.software_handler = client_rx
        # The client's application posts a request to its own NIC.
        client.host.enqueue_tx(
            kv_frame_bytes(KvOpcode.GET, 1, 77, b"hot"), queue=0
        )
        sim.run()
        assert len(responses) == 1
        assert responses[0].value == b"from-server-nic"
        assert responses[0].request_id == 77
        # The server host CPU never ran: pure NIC-to-NIC round trip.
        assert server.host.interrupts_taken == 0
        assert wire.ends["a"].transmitted == 1 and wire.ends["b"].transmitted == 1

    def test_server_host_serves_cache_miss_over_wire(self, sim):
        client, server, wire = self.build_pair(sim)
        server.host.store(b"cold", b"from-server-host")
        responses = []

        def client_rx(packet, queue):
            frame = parse_frame(packet.data)
            if frame.is_kv and frame.payload[0] == KvOpcode.RESPONSE:
                responses.append(frame.kv_response())

        client.host.software_handler = client_rx
        client.host.enqueue_tx(
            kv_frame_bytes(KvOpcode.GET, 1, 88, b"cold"), queue=0
        )
        sim.run()
        assert len(responses) == 1
        assert responses[0].value == b"from-server-host"
        assert server.host.interrupts_taken >= 1

    def test_propagation_delay_respected(self):
        rtts = {}
        for prop in (500 * NS, 50 * US):
            sim = Simulator()
            client, server, _wire = self.build_pair(sim, propagation_ps=prop)
            server.offload("kvcache").cache_put(b"k", b"v")
            done = {}

            def client_rx(packet, queue):
                done.setdefault("t", sim.now)

            client.host.software_handler = client_rx
            start = sim.now
            client.host.enqueue_tx(kv_frame_bytes(KvOpcode.GET, 1, 1, b"k"))
            sim.run()
            rtts[prop] = done["t"] - start
        assert rtts[50 * US] - rtts[500 * NS] >= 2 * (50 * US - 500 * NS) * 0.99

    def test_set_then_get_consistency_across_wire(self, sim):
        client, server, _wire = self.build_pair(sim)
        responses = []

        def client_rx(packet, queue):
            frame = parse_frame(packet.data)
            if frame.is_kv and frame.payload[0] == KvOpcode.RESPONSE:
                responses.append(frame.kv_response())

        client.host.software_handler = client_rx
        client.host.enqueue_tx(
            kv_frame_bytes(KvOpcode.SET, 2, 1, b"key", b"written")
        )
        sim.run()
        client.host.enqueue_tx(kv_frame_bytes(KvOpcode.GET, 2, 2, b"key"))
        sim.run()
        assert [r.request_id for r in responses] == [1, 2]
        assert responses[1].value == b"written"
        assert server.host.memory[b"key"] == b"written"


class TestCombinedFeatures:
    def test_pointer_mode_with_backpressure_and_chains(self, sim):
        nic = PanicNic(sim, PanicConfig(
            ports=1,
            offloads=("checksum", "regex"),
            offload_params={"regex": {"patterns": [b"x"]}},
            payload_mode="pointer",
            queue_capacity=4,
            overflow="backpressure",
        ))
        nic.control.route_dscp(1, ["checksum", "regex"])
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        for i in range(30):
            frame = udp_frame(
                src_port=1, dst_port=2, payload=bytes(800), dscp=1,
                identification=i)
            nic.inject(Packet(frame))
        sim.run()
        assert len(delivered) == 30
        assert nic.payload_buffer.live_handles == 0
        assert all(e.queue.dropped == 0 for e in nic.engines.values())

    def test_ipsec_plus_compression_chain(self, sim):
        """Decrypt, then decompress, then deliver -- a 2-offload chain
        with real transformations at each hop."""
        from repro.engines import IpsecSa, compress

        nic = PanicNic(sim, PanicConfig(
            ports=1, offloads=("ipsec", "compression")))
        nic.control.enable_ipsec_rx()
        ipsec = nic.offload("ipsec")
        ipsec.install_sa(IpsecSa(spi=0x42, key=b"k", tunnel_src="1.1.1.1",
                                 tunnel_dst="2.2.2.2"))
        # After decryption the inner packet (compressed payload) heads
        # through the compression engine for inflation.
        nic.control.route_dscp(9, ["compression"])

        original_payload = b"the quick brown fox " * 40
        inner = udp_frame(
            src_port=5, dst_port=6, payload=compress(original_payload), dscp=9)
        encrypted = ipsec.encrypt(Packet(inner), 0x42)

        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        nic.inject(encrypted)
        sim.run()
        assert len(delivered) == 1
        final = parse_frame(delivered[0].data)
        assert final.payload == original_payload
        assert nic.offload("ipsec").decrypted == 1
        assert nic.offload("compression").decompressed == 1

    def test_multiport_steering(self, sim):
        """Frames from port 1 get responses back out port 1."""
        nic = PanicNic(sim, PanicConfig(ports=2))
        nic.control.enable_kv_cache()
        nic.offload("kvcache").cache_put(b"k", b"v")
        nic.inject(build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 1, b"k")),
                   port=1)
        nic.inject(build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 2, b"k")),
                   port=0)
        sim.run()
        by_port = {p.meta.egress_port for p in nic.transmitted}
        assert by_port == {0, 1}
