"""Tests for addresses, checksums and wire-format headers."""

import pytest

from repro.packet import (
    EthernetHeader,
    EspHeader,
    HeaderError,
    IP_PROTO_UDP,
    IPv4Address,
    Ipv4Header,
    MacAddress,
    TcpHeader,
    UdpHeader,
    crc32,
    internet_checksum,
    verify_internet_checksum,
)


class TestMacAddress:
    def test_from_string_roundtrip(self):
        mac = MacAddress("02:00:00:00:00:2a")
        assert str(mac) == "02:00:00:00:00:2a"
        assert mac.value == 0x02000000002A

    def test_from_bytes_roundtrip(self):
        raw = bytes.fromhex("0200000000ff")
        assert MacAddress(raw).to_bytes() == raw

    def test_malformed_string_rejected(self):
        with pytest.raises(ValueError):
            MacAddress("not-a-mac")

    def test_wrong_byte_length_rejected(self):
        with pytest.raises(ValueError):
            MacAddress(b"\x00" * 5)

    def test_out_of_range_int_rejected(self):
        with pytest.raises(ValueError):
            MacAddress(1 << 48)

    def test_equality_and_hash(self):
        a = MacAddress("02:00:00:00:00:01")
        b = MacAddress(0x020000000001)
        assert a == b and hash(a) == hash(b)


class TestIPv4Address:
    def test_from_string_roundtrip(self):
        ip = IPv4Address("192.168.1.200")
        assert str(ip) == "192.168.1.200"

    def test_from_int(self):
        assert str(IPv4Address(0x0A000001)) == "10.0.0.1"

    def test_octet_out_of_range(self):
        with pytest.raises(ValueError):
            IPv4Address("1.2.3.256")

    def test_wrong_part_count(self):
        with pytest.raises(ValueError):
            IPv4Address("1.2.3")

    def test_ordering(self):
        assert IPv4Address("1.0.0.1") < IPv4Address("2.0.0.0")


class TestChecksums:
    def test_rfc1071_example(self):
        # Known vector: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert internet_checksum(data) == 0x220D

    def test_verify_roundtrip(self):
        data = b"hello checksum world"
        cksum = internet_checksum(data)
        stamped = data + cksum.to_bytes(2, "big")
        assert verify_internet_checksum(stamped)

    def test_odd_length_padding(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")

    def test_corruption_detected(self):
        data = bytearray(b"some payload..")
        stamped = bytes(data) + internet_checksum(bytes(data)).to_bytes(2, "big")
        corrupted = bytearray(stamped)
        corrupted[0] ^= 0x40
        assert not verify_internet_checksum(bytes(corrupted))

    def test_crc32_matches_zlib(self):
        import zlib

        for blob in (b"", b"a", b"hello world", bytes(range(256))):
            assert crc32(blob) == zlib.crc32(blob)


class TestEthernetHeader:
    def test_pack_unpack_roundtrip(self):
        eth = EthernetHeader("02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800)
        parsed, rest = EthernetHeader.unpack(eth.pack() + b"payload")
        assert parsed == eth
        assert rest == b"payload"

    def test_length_is_14(self):
        eth = EthernetHeader(MacAddress(1), MacAddress(2))
        assert len(eth.pack()) == 14

    def test_truncated_rejected(self):
        with pytest.raises(HeaderError):
            EthernetHeader.unpack(b"\x00" * 13)

    def test_bad_ethertype_rejected(self):
        with pytest.raises(HeaderError):
            EthernetHeader(MacAddress(0), MacAddress(0), 0x1_0000)


class TestIpv4Header:
    def _header(self, **kwargs):
        defaults = dict(src="10.0.0.1", dst="10.0.0.2", protocol=IP_PROTO_UDP,
                        total_length=40)
        defaults.update(kwargs)
        return Ipv4Header(**defaults)

    def test_pack_unpack_roundtrip(self):
        header = self._header(ttl=17, dscp=9, identification=0xBEEF)
        parsed, rest = Ipv4Header.unpack(header.pack() + b"x")
        assert parsed.src == header.src
        assert parsed.dst == header.dst
        assert parsed.ttl == 17
        assert parsed.dscp == 9
        assert parsed.identification == 0xBEEF
        assert rest == b"x"

    def test_header_checksum_valid(self):
        packed = self._header().pack()
        assert verify_internet_checksum(packed)

    def test_version_validated(self):
        bad = bytearray(self._header().pack())
        bad[0] = (6 << 4) | 5
        with pytest.raises(HeaderError):
            Ipv4Header.unpack(bytes(bad))

    def test_options_unsupported(self):
        bad = bytearray(self._header().pack())
        bad[0] = (4 << 4) | 6
        with pytest.raises(HeaderError):
            Ipv4Header.unpack(bytes(bad) + b"\x00" * 8)

    def test_total_length_validated(self):
        with pytest.raises(HeaderError):
            self._header(total_length=19)


class TestUdpTcpEsp:
    def test_udp_roundtrip(self):
        udp = UdpHeader(1234, 80, 20, 0xABCD)
        parsed, rest = UdpHeader.unpack(udp.pack() + b"zz")
        assert parsed == udp
        assert rest == b"zz"

    def test_udp_port_validated(self):
        with pytest.raises(HeaderError):
            UdpHeader(70000, 80)

    def test_tcp_roundtrip(self):
        tcp = TcpHeader(5000, 443, seq=7, ack=9, flags=TcpHeader.FLAG_SYN)
        parsed, rest = TcpHeader.unpack(tcp.pack() + b"body")
        assert parsed.src_port == 5000
        assert parsed.seq == 7
        assert parsed.flags == TcpHeader.FLAG_SYN
        assert rest == b"body"

    def test_tcp_options_skipped(self):
        tcp = TcpHeader(1, 2)
        raw = bytearray(tcp.pack())
        raw[12] = (6 << 4)  # data offset 6 words: 4 bytes of options
        parsed, rest = TcpHeader.unpack(bytes(raw) + b"\x01\x01\x01\x01payload")
        assert rest == b"payload"

    def test_tcp_bad_offset_rejected(self):
        tcp = TcpHeader(1, 2)
        raw = bytearray(tcp.pack())
        raw[12] = (4 << 4)
        with pytest.raises(HeaderError):
            TcpHeader.unpack(bytes(raw))

    def test_esp_roundtrip(self):
        esp = EspHeader(spi=0xDEADBEEF, seq=42)
        parsed, rest = EspHeader.unpack(esp.pack() + b"cipher")
        assert parsed == esp
        assert rest == b"cipher"

    def test_esp_range_validated(self):
        with pytest.raises(HeaderError):
            EspHeader(spi=1 << 32, seq=0)


class TestBuilderFailsWithHeaderError:
    """Every out-of-range field of a built frame is the library's error,
    raised at build time -- the IPv4 identification included, which used
    to escape as ``struct.error`` from the pack."""

    KWARGS = dict(
        src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1, dst_port=2,
        payload=b"x",
    )

    @pytest.mark.parametrize("identification", [70000, 0x10000, -1])
    def test_identification_out_of_range(self, identification):
        from repro.packet import build_udp_frame

        with pytest.raises(HeaderError, match="identification out of range"):
            build_udp_frame(identification=identification, **self.KWARGS)
        with pytest.raises(HeaderError, match="identification out of range"):
            Ipv4Header(src="10.0.0.1", dst="10.0.0.2",
                       identification=identification)

    def test_identification_bounds_accepted(self):
        from repro.packet import build_udp_frame

        for identification in (0, 0xFFFF):
            frame = build_udp_frame(identification=identification,
                                    **self.KWARGS)
            assert int.from_bytes(frame[18:20], "big") == identification

    def test_kv_builders_mask_the_request_id_and_validate_the_rest(self):
        from repro.packet import (
            KvOpcode,
            KvRequest,
            KvResponse,
            KvStatus,
            build_kv_request_frame,
            build_kv_response_frame,
        )

        request = KvRequest(KvOpcode.GET, 1, 70000, b"k")
        packet = build_kv_request_frame(request)
        assert int.from_bytes(packet.data[18:20], "big") == 70000 & 0xFFFF
        response = KvResponse(KvStatus.OK, 1, 0xFFFF_FFFF)
        packet = build_kv_response_frame(response)
        assert int.from_bytes(packet.data[18:20], "big") == 0xFFFF
        for bad in (dict(dscp=64), dict(ecn=4), dict(src_port=0x10000)):
            with pytest.raises(HeaderError):
                build_kv_request_frame(request, **bad)
        with pytest.raises(HeaderError):
            build_kv_response_frame(response, dst_port=-1)

    def test_rack_node_frame(self):
        from repro.sim import Simulator
        from repro.workloads.rack import RackNode

        node = RackNode(Simulator(), "nic0", index=0, n_nics=3)
        assert node.frame(1, b"p", identification=0xFFFF)[18:20] == b"\xff\xff"
        for identification in (70000, -1):
            with pytest.raises(HeaderError, match="identification"):
                node.frame(1, b"p", identification=identification)


class TestParseFrameInputTypes:
    def test_bytearray_and_memoryview_parse_like_bytes(self):
        # A bytearray used to fail ("TypeError: unhashable type").
        from repro.packet import build_udp_frame, parse_frame

        frame = build_udp_frame(
            identification=4242, **TestBuilderFailsWithHeaderError.KWARGS)
        expected = parse_frame(frame)
        for spelling in (bytearray(frame), memoryview(frame),
                         bytearray(frame)):
            parsed = parse_frame(spelling)
            assert parsed == expected
            assert type(parsed.payload) is bytes
