"""Tests for the shared packet buffer and pointer-mode forwarding."""

import pytest

from repro.core import PanicConfig, PanicNic
from repro.noc.pktbuffer import PacketBuffer, PacketBufferError
from repro.packet.packet import DESCRIPTOR_BITS
from repro.packet import KvOpcode, KvRequest, build_kv_request_frame, parse_frame
from repro.sim import Simulator
from repro.sim.clock import MHZ


class TestPacketBuffer:
    def test_store_release(self, sim):
        buf = PacketBuffer(sim)
        handle = buf.store(7)
        assert buf._used == 7
        buf.release(handle)
        assert buf._used == 0
        assert buf.live_handles == 0

    def test_capacity_enforced(self, sim):
        buf = PacketBuffer(sim, capacity_bytes=10)
        buf.store(8)
        with pytest.raises(PacketBufferError):
            buf.store(4)

    def test_high_watermark(self, sim):
        buf = PacketBuffer(sim)
        a = buf.store(100)
        b = buf.store(50)
        buf.release(a)
        assert buf.high_watermark == 150

    def test_access_delay_scales_with_bytes(self, sim):
        buf = PacketBuffer(sim, ports=1)
        small = buf.access_delay_ps(64)
        sim2 = Simulator()
        buf2 = PacketBuffer(sim2, ports=1)
        large = buf2.access_delay_ps(6400)
        assert large == 100 * small

    def test_port_contention_serializes(self, sim):
        buf = PacketBuffer(sim, ports=1)
        first = buf.access_delay_ps(640)
        second = buf.access_delay_ps(640)
        assert second == 2 * first

    def test_more_ports_more_parallelism(self, sim):
        buf = PacketBuffer(sim, ports=2)
        first = buf.access_delay_ps(640)
        second = buf.access_delay_ps(640)  # takes the second port
        assert second == first

    def test_bad_handle_rejected(self, sim):
        buf = PacketBuffer(sim)
        with pytest.raises(PacketBufferError):
            buf.release(99)

    def test_invalid_params(self, sim):
        with pytest.raises(ValueError):
            PacketBuffer(sim, name="bad1", capacity_bytes=0)
        with pytest.raises(ValueError):
            PacketBuffer(sim, name="bad2", ports=0)


class TestPointerModeNic:
    def build(self, sim, mode):
        nic = PanicNic(sim, PanicConfig(ports=1, payload_mode=mode),
                       name=f"panic_{mode}")
        nic.control.enable_kv_cache()
        return nic

    def test_pointer_mode_end_to_end(self, sim):
        nic = self.build(sim, "pointer")
        nic.offload("kvcache").cache_put(b"k", b"v")
        nic.inject(build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 1, b"k")))
        sim.run()
        response = parse_frame(nic.transmitted[0].data).kv_response()
        assert response.value == b"v"

    def test_pointer_mode_frees_buffer_after_delivery(self, sim):
        nic = self.build(sim, "pointer")
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        from repro.packet import build_udp_frame, Packet

        frame = build_udp_frame(
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1", dst_ip="10.0.0.2",
            src_port=1, dst_port=2, payload=b"data",
        )
        nic.inject(Packet(frame))
        sim.run()
        assert len(delivered) == 1
        assert nic.payload_buffer.live_handles == 0
        assert nic.payload_buffer.allocations == 1

    def test_pointer_mode_shrinks_noc_load(self):
        loads = {}
        for mode in ("full", "pointer"):
            sim = Simulator()
            nic = self.build(sim, mode)
            from repro.packet import build_udp_frame, Packet

            for i in range(10):
                frame = build_udp_frame(
                    src_mac="02:00:00:00:00:01",
                    dst_mac="02:00:00:00:00:02",
                    src_ip="10.0.0.1", dst_ip="10.0.0.2",
                    src_port=1, dst_port=2,
                    payload=bytes(1000), identification=i,
                )
                nic.inject(Packet(frame))
            sim.run()
            loads[mode] = sum(c.bits_sent for c in nic.mesh.channels)
        assert loads["pointer"] < loads["full"] / 3

    def test_message_size_is_fixed_between_injection_and_delivery(self, sim):
        """``pbuf_handle`` is set and cleared only inside endpoints (the RX
        MAC parks the payload; the TX MAC and DMA free it), never while
        a packet is on the wires -- so the size its send fixed at
        injection is still what the packet reports at every hop."""
        from repro.packet import build_udp_frame, Packet

        nic = PanicNic(sim, PanicConfig(ports=1, payload_mode="pointer",
                                        fast_path=False),
                       name="panic_sizes")
        nic.control.enable_kv_cache()
        seen = []       # the sizes each transfer reported, one set each
        current = {}    # packet -> the set of its transfer in progress

        def watch(deliver):
            def on_hop(packet, channel):
                assert packet.bits == packet.chip_bits
                if packet.hops == 1:     # a transfer's injection hop
                    current[packet] = set()
                    seen.append(current[packet])
                current[packet].add(packet.bits)
                deliver(packet, channel)
            return on_hop

        for channel in nic.mesh.channels:
            channel.deliver = watch(channel.deliver)
        nic.offload("kvcache").cache_put(b"k", b"v")
        nic.inject(build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 1, b"k")))
        nic.inject(Packet(build_udp_frame(
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1", dst_ip="10.0.0.2",
            src_port=1, dst_port=2, payload=bytes(600))))
        sim.run()
        assert len(nic.transmitted) == 1                 # the GET's reply
        assert all(len(sizes) == 1 for sizes in seen)
        sizes = set().union(*seen)
        assert DESCRIPTOR_BITS in sizes                  # parked payloads
        assert len(sizes) > 1                            # and whole frames

    def test_full_mode_has_no_buffer(self, sim):
        nic = self.build(sim, "full")
        assert nic.payload_buffer is None

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            PanicConfig(payload_mode="telepathy")
