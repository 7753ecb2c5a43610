"""Tests for the Packet container, PANIC header, KV protocol and builders."""

import pytest

from repro.packet import (
    EthernetHeader,
    HeaderError,
    KV_UDP_PORT,
    KvOpcode,
    KvRequest,
    KvResponse,
    KvStatus,
    MIN_FRAME_BYTES,
    MacAddress,
    Packet,
    PanicHeader,
    build_kv_request_frame,
    build_kv_response_frame,
    build_udp_frame,
    parse_frame,
    wire_bits,
)
from repro.packet.packet import Direction, MessageKind


class TestWireBits:
    def test_minimum_frame_is_672_bits(self):
        # 64 B frame + 20 B preamble/IFG = 84 B = 672 bits (Table 2 basis).
        assert wire_bits(64) == 672

    def test_short_frames_padded(self):
        assert wire_bits(10) == 672
        assert wire_bits(0) == 672

    def test_large_frame(self):
        assert wire_bits(1500) == (1500 + 20) * 8

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            wire_bits(-1)


class TestPacket:
    def test_chip_bits_includes_chain_header(self):
        packet = Packet(b"\x00" * 100)
        assert packet.chip_bits == 800
        packet.panic = PanicHeader(chain=[1, 2])
        assert packet.chip_bits == (100 + 16 + 4) * 8

    def test_rewritten_keeps_the_packet_life(self):
        packet = Packet(b"data")
        packet.meta.tenant = 3
        packet.panic = PanicHeader(chain=[5], slack_ps=9)
        packet.trace = object()
        packet.pbuf_handle = 7
        out = packet.rewritten(b"other")
        assert out is not packet and out.data == b"other"
        assert out.meta is packet.meta and out.panic is packet.panic
        assert out.trace is packet.trace and out.pbuf_handle == 7

    def test_metadata_is_slotted_and_annotations_lazy(self):
        meta = Packet(b"").meta
        assert not hasattr(meta, "__dict__")
        with pytest.raises(AttributeError):
            meta.no_such_field = 1
        slot = type(meta).annotations        # the slot's own descriptor
        with pytest.raises(AttributeError):
            slot.__get__(meta)                # no dict until first use
        meta.annotations["k"] = 1
        assert slot.__get__(meta) == {"k": 1}

    def test_default_kind_and_direction(self):
        packet = Packet(b"")
        assert packet.kind == MessageKind.ETHERNET
        assert packet.meta.direction == Direction.RX


class TestPanicHeader:
    def test_pack_unpack_roundtrip(self):
        header = PanicHeader(chain=[10, 20, 30], cursor=1, slack_ps=123456,
                             needs_rmt=True, droppable=True)
        parsed, rest = PanicHeader.unpack(header.pack() + b"tail")
        assert parsed.chain == [10, 20, 30]
        assert parsed.cursor == 1
        assert parsed.slack_ps == 123456
        assert parsed.needs_rmt and parsed.droppable
        assert rest == b"tail"

    def test_empty_chain_roundtrip(self):
        parsed, _rest = PanicHeader.unpack(PanicHeader().pack())
        assert parsed.chain == [] and parsed.exhausted

    def test_advance_walks_chain(self):
        # Engines walk ``chain[cursor]`` in place, advancing the cursor.
        header = PanicHeader(chain=[7, 8])
        hops = []
        while not header.exhausted:
            hops.append(header.chain[header.cursor])
            header.cursor += 1
        assert hops == [7, 8] and header.remaining() == []

    def test_remaining(self):
        header = PanicHeader(chain=[1, 2, 3], cursor=1)
        assert header.remaining() == [2, 3]

    def test_bad_magic_rejected(self):
        blob = bytearray(PanicHeader(chain=[1]).pack())
        blob[0] = 0
        with pytest.raises(HeaderError):
            PanicHeader.unpack(bytes(blob))

    def test_cursor_outside_chain_rejected(self):
        with pytest.raises(HeaderError):
            PanicHeader(chain=[1], cursor=2)

    def test_address_range_validated(self):
        with pytest.raises(HeaderError):
            PanicHeader(chain=[1 << 16])

    def test_length_matches_pack(self):
        header = PanicHeader(chain=[1, 2, 3, 4])
        assert header.length == len(header.pack())

    def test_copy_is_deep(self):
        header = PanicHeader(chain=[1, 2])
        copy = header.copy()
        copy.cursor += 1
        copy.chain.append(3)
        assert header.cursor == 0 and header.chain == [1, 2]


class TestKvProtocol:
    def test_request_roundtrip(self):
        req = KvRequest(KvOpcode.SET, 9, 1234, b"key", b"value")
        parsed, rest = KvRequest.unpack(req.pack() + b"!")
        assert parsed == req
        assert rest == b"!"

    def test_get_cannot_carry_value(self):
        with pytest.raises(HeaderError):
            KvRequest(KvOpcode.GET, 0, 0, b"k", b"oops")

    def test_request_cannot_be_response(self):
        with pytest.raises(HeaderError):
            KvRequest(KvOpcode.RESPONSE, 0, 0, b"k")

    def test_response_roundtrip(self):
        resp = KvResponse(KvStatus.OK, 9, 1234, b"value")
        parsed, rest = KvResponse.unpack(resp.pack())
        assert parsed == resp
        assert rest == b""

    def test_response_opcode_enforced(self):
        blob = bytearray(KvResponse(KvStatus.OK, 0, 0).pack())
        blob[0] = int(KvOpcode.GET)
        with pytest.raises(HeaderError):
            KvResponse.unpack(bytes(blob))

    def test_truncated_body_rejected(self):
        req = KvRequest(KvOpcode.SET, 1, 2, b"key", b"value")
        with pytest.raises(HeaderError):
            KvRequest.unpack(req.pack()[:-1])


class TestBuilders:
    def test_udp_frame_parses_back(self):
        frame = build_udp_frame(
            src_mac="02:00:00:00:00:01",
            dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1",
            dst_ip="10.0.0.2",
            src_port=1111,
            dst_port=2222,
            payload=b"ping",
            dscp=5,
        )
        parsed = parse_frame(frame)
        assert parsed.ipv4 is not None and parsed.udp is not None
        assert str(parsed.ipv4.src) == "10.0.0.1"
        assert parsed.ipv4.dscp == 5
        assert parsed.udp.dst_port == 2222
        assert parsed.payload == b"ping"

    def test_kv_request_frame(self):
        packet = build_kv_request_frame(KvRequest(KvOpcode.GET, 3, 77, b"k"))
        parsed = parse_frame(packet.data)
        assert parsed.is_kv
        assert parsed.kv_request().request_id == 77
        assert packet.meta.tenant == 3

    def test_kv_response_frame(self):
        packet = build_kv_response_frame(KvResponse(KvStatus.OK, 3, 77, b"v"))
        parsed = parse_frame(packet.data)
        assert parsed.is_kv
        response = parsed.kv_response()
        assert response.value == b"v"
        assert parsed.udp.src_port == KV_UDP_PORT

    def test_parse_frame_respects_ip_total_length(self):
        frame = build_udp_frame(
            src_mac="02:00:00:00:00:01",
            dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1",
            dst_ip="10.0.0.2",
            src_port=1,
            dst_port=2,
            payload=b"x",
        )
        padded = frame + bytes(MIN_FRAME_BYTES - len(frame))
        parsed = parse_frame(padded)
        assert parsed.payload == b"x"

    def test_parse_frame_inconsistent_length_rejected(self):
        frame = bytearray(
            build_udp_frame(
                src_mac="02:00:00:00:00:01",
                dst_mac="02:00:00:00:00:02",
                src_ip="10.0.0.1",
                dst_ip="10.0.0.2",
                src_port=1,
                dst_port=2,
                payload=b"x",
            )
        )
        frame[16] = 0xFF  # total_length high byte absurdly large
        with pytest.raises(HeaderError):
            parse_frame(bytes(frame))

    def test_non_ip_frame_stops_at_l2(self):
        frame = EthernetHeader(
            MacAddress("02:00:00:00:00:02"), MacAddress("02:00:00:00:00:01"),
            0x88B5,
        ).pack() + b"raw"
        parsed = parse_frame(frame)
        assert parsed.ipv4 is None
        assert parsed.payload == b"raw"
