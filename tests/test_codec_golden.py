"""Golden oracle of the frame codec, recorded before its rebuild.

Two things every layer of the simulator rests on are pinned here against
references that do not share code with the fast paths:

* **Building.**  ``build_udp_frame`` must equal, byte for byte, the frame
  the public header classes compose (``EthernetHeader.pack() +
  Ipv4Header.pack() + UdpHeader.pack() + payload``, the UDP checksum
  taken over a pseudo-header spelled with ``struct``) -- over thousands
  of seeded random builds, every spelling of an address (text, int,
  wire bytes, address object), the extreme payload sizes, a payload
  whose UDP sum folds to zero, and every out-of-range field, where the
  exception type and message must match too.  The checksums
  are cross-checked by a word-by-word RFC 1071 loop written here.
* **Parsing.**  ``ParseGraph.parse`` -- one walk for every graph, whose
  spine extractors read fields in place -- must fill the PHV exactly as
  the object-building reference FSM below does -- same fields, same
  values, *same insertion order* -- for valid and malformed KV frames,
  rack-tagged and plain UDP, and seeded byte-level mutations of all of
  them; a graph whose ``kv`` extractor or transitions were changed must
  run what it was given.  The reference (extractors built on the header
  classes and ``KvRequest`` / ``KvResponse``, and its own FSM loop) is
  written here and shares no code with the walk.  ``parse_frame`` and
  ``frame_checksums_ok`` are held to references written from the
  header classes.
"""

import random
import struct

import pytest

from repro.packet.addresses import IPv4Address, MacAddress
from repro.packet.builder import (
    build_kv_request_frame,
    build_kv_response_frame,
    build_udp_frame,
    frame_checksums_ok,
    parse_frame,
)
from repro.packet.checksum import (
    internet_checksum,
    verify_internet_checksum,
)
from repro.packet.headers import (
    ETHERTYPE_IPV4,
    IP_PROTO_UDP,
    RACK_TAG_UDP_PORT,
    EspHeader,
    EthernetHeader,
    HeaderError,
    Ipv4Header,
    TcpHeader,
    UdpHeader,
)
from repro.packet.kv import (
    KV_UDP_PORT,
    KvOpcode,
    KvRequest,
    KvResponse,
    KvStatus,
)
from repro.rmt.parser import (
    ACCEPT,
    ParseGraph,
    ParserState,
    default_parse_graph,
    extract_esp,
    extract_ethernet,
    extract_ipv4,
    extract_kv,
    extract_rack_tag,
    extract_tcp,
    extract_udp,
)
from repro.rmt.phv import Phv

RANDOM_BUILDS = 6_000
MUTATIONS = 4_000
MAX_UDP_PAYLOAD = 0xFFFF - 20 - 8  # 65 507

BASE = dict(
    src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
    src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000, dst_port=9000,
)


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------


def compose(*, src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port,
            payload, dscp=0, ecn=0, ttl=64, identification=0) -> bytes:
    """The frame as the header classes compose it."""
    udp_len = UdpHeader.LENGTH + len(payload)
    ipv4 = Ipv4Header(
        src=IPv4Address(src_ip), dst=IPv4Address(dst_ip),
        protocol=IP_PROTO_UDP, total_length=Ipv4Header.LENGTH + udp_len,
        dscp=dscp, ecn=ecn, ttl=ttl, identification=identification,
    )
    udp = UdpHeader(src_port, dst_port, udp_len)
    eth = EthernetHeader(MacAddress(dst_mac), MacAddress(src_mac),
                         ETHERTYPE_IPV4)
    pseudo = (ipv4.src.to_bytes() + ipv4.dst.to_bytes()
              + struct.pack("!BBH", 0, IP_PROTO_UDP, udp_len))
    datagram = udp.pack() + payload
    udp_sum = internet_checksum(pseudo + datagram) or 0xFFFF  # RFC 768
    return (eth.pack() + ipv4.pack() + datagram[:6]
            + struct.pack("!H", udp_sum) + payload)


def rfc1071(data: bytes) -> int:
    """Ones'-complement checksum, one 16-bit word at a time."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def udp_sum_of(frame: bytes) -> int:
    """RFC 1071 sum over pseudo-header + datagram with the checksum
    field zeroed -- what the sender computed before the zero rule."""
    udp_len = struct.unpack_from("!H", frame, 38)[0]
    pseudo = frame[26:34] + struct.pack("!BBH", 0, IP_PROTO_UDP, udp_len)
    datagram = frame[34:40] + b"\x00\x00" + frame[42:34 + udp_len]
    return rfc1071(pseudo + datagram)


def reference_checksums_ok(data: bytes) -> bool:
    """``frame_checksums_ok`` as specified, from the header classes."""
    try:
        eth, rest = EthernetHeader.unpack(data)
        if eth.ethertype != ETHERTYPE_IPV4:
            return True
        if len(rest) < Ipv4Header.LENGTH:
            return True
        ip_bytes = rest[: Ipv4Header.LENGTH]
        ipv4, after_ip = Ipv4Header.unpack(rest)
    except HeaderError:
        return True
    if not verify_internet_checksum(ip_bytes):
        return False
    if ipv4.protocol == IP_PROTO_UDP:
        l3_len = ipv4.total_length - Ipv4Header.LENGTH
        if not 0 <= l3_len <= len(after_ip):
            return False
        try:
            udp, _rest = UdpHeader.unpack(after_ip)
        except HeaderError:
            return False
        if udp.length > l3_len:
            return False
        if udp.checksum != 0:
            datagram = after_ip[: udp.length]
            pseudo = (ipv4.src.to_bytes() + ipv4.dst.to_bytes()
                      + struct.pack("!BBH", 0, IP_PROTO_UDP, udp.length))
            return verify_internet_checksum(pseudo + datagram)
    return True


def reference_parse(data: bytes):
    """What ``parse_frame`` must return for a UDP frame, or the
    HeaderError it must raise, from the header classes."""
    eth, rest = EthernetHeader.unpack(data)
    if eth.ethertype != ETHERTYPE_IPV4:
        return eth, None, None, rest
    ipv4, rest = Ipv4Header.unpack(rest)
    l3_payload_len = ipv4.total_length - Ipv4Header.LENGTH
    if l3_payload_len < 0 or l3_payload_len > len(rest):
        raise HeaderError(
            f"IPv4 total_length {ipv4.total_length} inconsistent with frame")
    rest = rest[:l3_payload_len]
    if ipv4.protocol != IP_PROTO_UDP:
        return eth, ipv4, None, rest
    udp, rest = UdpHeader.unpack(rest)
    return eth, ipv4, udp, rest[: udp.length - UdpHeader.LENGTH]


def outcome_of(function, *args, **kwargs):
    """``("ok", value)`` or ``("raised", type, message)``."""
    try:
        return ("ok", function(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 -- the type is the point
        return ("raised", type(exc), str(exc))


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------


def _spell(rng: random.Random, kind, value: int, width: int):
    """One of the four spellings a builder accepts for an address."""
    choice = rng.randrange(4)
    if choice == 0:
        return str(kind(value))
    if choice == 1:
        return value
    if choice == 2:
        return value.to_bytes(width, "big")
    return kind(value)


def _random_payload(rng: random.Random) -> bytes:
    roll = rng.random()
    if roll < 0.05:
        size = 0
    elif roll < 0.15:
        size = rng.choice((1, 3, 17, 21, 1399))       # odd sizes
    elif roll < 0.90:
        size = rng.randrange(0, 1473)
    else:
        size = rng.randrange(1473, 9001)
    return rng.randbytes(size)


def _random_build_kwargs(rng: random.Random) -> dict:
    return dict(
        src_mac=_spell(rng, MacAddress, rng.getrandbits(48), 6),
        dst_mac=_spell(rng, MacAddress, rng.getrandbits(48), 6),
        src_ip=_spell(rng, IPv4Address, rng.getrandbits(32), 4),
        dst_ip=_spell(rng, IPv4Address, rng.getrandbits(32), 4),
        src_port=rng.randrange(0x10000),
        dst_port=rng.randrange(0x10000),
        payload=_random_payload(rng),
        dscp=rng.randrange(64),
        ecn=rng.randrange(4),
        ttl=rng.randrange(256),
        identification=rng.randrange(0x10000),
    )


class TestBuildGolden:
    def test_random_builds_match_header_composition(self):
        rng = random.Random(0xC0DEC)
        for index in range(RANDOM_BUILDS):
            kwargs = _random_build_kwargs(rng)
            built = build_udp_frame(**kwargs)
            assert type(built) is bytes
            assert built == compose(**kwargs), (index, kwargs)
            if index % 40 == 0:  # the word loop is slow; sample it
                assert rfc1071(built[14:34]) == 0
                stored = struct.unpack_from("!H", built, 40)[0]
                assert stored == (udp_sum_of(built) or 0xFFFF)
                assert frame_checksums_ok(built)

    def test_defaults_match(self):
        built = build_udp_frame(payload=b"hello", **BASE)
        assert built == compose(payload=b"hello", **BASE)
        assert built[22] == 64 and built[15] == 0       # ttl, tos
        assert built[18:22] == b"\x00\x00\x40\x00"      # id 0, DF

    @pytest.mark.parametrize(
        "size", [0, 1, 2, 3, 1471, 1472, MAX_UDP_PAYLOAD - 1,
                 MAX_UDP_PAYLOAD])
    def test_extreme_payload_sizes(self, size):
        payload = random.Random(size).randbytes(size)
        built = build_udp_frame(payload=payload, dscp=5, ecn=1,
                                identification=0xBEEF, **BASE)
        assert built == compose(payload=payload, dscp=5, ecn=1,
                                identification=0xBEEF, **BASE)
        assert len(built) == 42 + size
        assert rfc1071(built[14:34]) == 0
        assert struct.unpack_from("!H", built, 40)[0] == (
            udp_sum_of(built) or 0xFFFF)
        assert frame_checksums_ok(built)

    def test_payload_sizes_past_the_ipv4_limit_are_refused(self):
        payload = bytes(MAX_UDP_PAYLOAD + 1)
        with pytest.raises(HeaderError, match="total_length out of range"):
            build_udp_frame(payload=payload, **BASE)
        assert (outcome_of(build_udp_frame, payload=payload, **BASE)
                == outcome_of(compose, payload=payload, **BASE))

    @pytest.mark.parametrize("odd", [False, True])
    def test_udp_sum_folding_to_zero_is_sent_as_all_ones(self, odd):
        # Pick the payload's first word so the whole UDP sum is 0xFFFF,
        # i.e. the computed checksum is zero -- RFC 768 sends 0xFFFF.
        tail = b"\x07" if odd else b""
        probe = build_udp_frame(payload=b"\x00\x00" + tail, **BASE)
        complement = udp_sum_of(probe)      # ~sum with a zero first word
        payload = struct.pack("!H", complement) + tail
        built = build_udp_frame(payload=payload, **BASE)
        assert udp_sum_of(built) == 0
        assert built[40:42] == b"\xff\xff"
        assert built == compose(payload=payload, **BASE)
        assert frame_checksums_ok(built)

    def test_every_address_spelling_gives_the_same_frame(self):
        mac_a, mac_b = 0x0200_0000_0001, 0x0200_0000_0002
        ip_a, ip_b = 0x0A00_0001, 0x0A00_0002
        expected = build_udp_frame(payload=b"x" * 9, **BASE)
        spellings = [
            lambda kind, value, width: str(kind(value)),
            lambda kind, value, width: value,
            lambda kind, value, width: value.to_bytes(width, "big"),
            lambda kind, value, width: bytearray(value.to_bytes(width, "big")),
            lambda kind, value, width: kind(value),
        ]
        for spell in spellings:
            built = build_udp_frame(
                src_mac=spell(MacAddress, mac_a, 6),
                dst_mac=spell(MacAddress, mac_b, 6),
                src_ip=spell(IPv4Address, ip_a, 4),
                dst_ip=spell(IPv4Address, ip_b, 4),
                src_port=40000, dst_port=9000, payload=b"x" * 9,
            )
            assert built == expected

    def test_many_distinct_text_addresses(self):
        # More distinct strings than any address memo may hold.
        for index in range(10_000):
            kwargs = dict(
                BASE,
                src_ip=f"10.{index >> 8 & 255}.{index & 255}.7",
                src_mac="02:00:00:00:%02x:%02x" % (index >> 8, index & 255),
                payload=b"p",
            )
            assert build_udp_frame(**kwargs) == compose(**kwargs)

    #: (field, bad value) -- each refused by the header classes.
    BAD_FIELDS = [
        ("dscp", 64), ("dscp", -1), ("ecn", 4), ("ecn", -1),
        ("ttl", 256), ("ttl", -1),
        ("src_port", 0x10000), ("src_port", -1),
        ("dst_port", 0x10000), ("dst_port", -1),
        ("src_ip", "10.0.0.256"), ("src_ip", "10.0.0"), ("src_ip", "a.b.c.d"),
        ("src_ip", 1 << 32), ("src_ip", -1), ("src_ip", b"\x0a\x00\x00"),
        ("src_ip", 1.5), ("src_ip", "02:00:00:00:00:01"),
        ("dst_ip", "10.0.0.256"), ("dst_ip", 1 << 32), ("dst_ip", None),
        ("dst_ip", b"\x0a\x00\x00\x01\x02"),
        ("src_mac", "02:00:00:00:00"), ("src_mac", "02-00-00-00-00-01"),
        ("src_mac", 1 << 48), ("src_mac", -1), ("src_mac", b"\x02" * 5),
        ("src_mac", 2.0), ("src_mac", "10.0.0.1"),
        ("dst_mac", "zz:00:00:00:00:01"), ("dst_mac", 1 << 48),
        ("dst_mac", b"\x02" * 7), ("dst_mac", None),
        ("payload", bytes(MAX_UDP_PAYLOAD + 1)),
    ]

    @pytest.mark.parametrize("field,value", BAD_FIELDS,
                             ids=lambda v: repr(v)[:24])
    def test_out_of_range_field_raises_what_the_headers_raise(
            self, field, value):
        kwargs = dict(BASE, payload=b"abc")
        kwargs[field] = value
        expected = outcome_of(compose, **kwargs)
        assert expected[0] == "raised"
        assert outcome_of(build_udp_frame, **kwargs) == expected
        if field in ("dscp", "ecn", "ttl", "src_port", "dst_port",
                     "payload"):
            assert expected[1] is HeaderError

    def test_two_bad_fields_raise_the_first_in_validation_order(self):
        rng = random.Random(7)
        for _ in range(400):
            (f1, v1), (f2, v2) = rng.sample(self.BAD_FIELDS, 2)
            kwargs = dict(BASE, payload=b"abc")
            kwargs[f1] = v1
            kwargs[f2] = v2
            assert (outcome_of(build_udp_frame, **kwargs)
                    == outcome_of(compose, **kwargs)), (f1, v1, f2, v2)

    def test_kv_builders_wrap_the_same_frame(self):
        request = KvRequest(KvOpcode.SET, 7, 0x1234_5678, b"key", b"v" * 33)
        packet = build_kv_request_frame(request, src_ip="10.7.0.1", dscp=7,
                                        ecn=2)
        assert packet.meta.tenant == 7
        assert packet.data == compose(
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip="10.7.0.1", dst_ip="10.0.0.2", src_port=40000,
            dst_port=KV_UDP_PORT, payload=request.pack(), dscp=7, ecn=2,
            identification=0x5678)
        response = KvResponse(KvStatus.OK, 7, 0x1234_5678, b"v" * 33)
        packet = build_kv_response_frame(response, dst_port=40001)
        assert packet.meta.tenant == 7
        assert packet.data == compose(
            src_mac="02:00:00:00:00:02", dst_mac="02:00:00:00:00:01",
            src_ip="10.0.0.2", dst_ip="10.0.0.1", src_port=KV_UDP_PORT,
            dst_port=40001, payload=response.pack(),
            identification=0x5678)


# ----------------------------------------------------------------------
# Parsing: the walk vs an object-building reference FSM
# ----------------------------------------------------------------------


def kv_frame(payload: bytes, *, src_port=40000, dst_port=KV_UDP_PORT,
             **extra) -> bytes:
    kwargs = dict(BASE, src_port=src_port, dst_port=dst_port,
                  payload=payload)
    kwargs.update(extra)
    return build_udp_frame(**kwargs)


def raw_request(opcode: int, key: bytes = b"k1", value: bytes = b"",
                tenant: int = 3, request_id: int = 99) -> bytes:
    """A request packed by hand, so invalid combinations can be sent."""
    return struct.pack("!BHIHI", opcode, tenant, request_id, len(key),
                       len(value)) + key + value


def raw_response(status: int, value: bytes = b"", tenant: int = 3,
                 request_id: int = 99) -> bytes:
    return struct.pack("!BBHII", 0x80, status, tenant, request_id,
                       len(value)) + value


def with_lengths(frame: bytes, *, total_length=None, udp_length=None):
    """Rewrite the IPv4 / UDP length fields (checksums left stale: the
    parser does not verify them)."""
    out = bytearray(frame)
    if total_length is not None:
        struct.pack_into("!H", out, 16, total_length)
    if udp_length is not None:
        struct.pack_into("!H", out, 38, udp_length)
    return bytes(out)


def _named_frames():
    get = raw_request(KvOpcode.GET, b"user:42")
    put = raw_request(KvOpcode.SET, b"user:42", b"v" * 300)
    ok = raw_response(KvStatus.OK, b"value-bytes")
    frames = {
        "get": kv_frame(get),
        "set": kv_frame(put, dscp=9, ecn=1, ttl=3, identification=77),
        "delete": kv_frame(raw_request(KvOpcode.DELETE, b"k")),
        "empty_key": kv_frame(raw_request(KvOpcode.GET, b"")),
        "set_empty_value": kv_frame(raw_request(KvOpcode.SET, b"k", b"")),
        "response_ok": kv_frame(ok, src_port=KV_UDP_PORT, dst_port=40000),
        "response_not_found": kv_frame(
            raw_response(KvStatus.NOT_FOUND),
            src_port=KV_UDP_PORT, dst_port=40000),
        "response_error": kv_frame(
            raw_response(KvStatus.ERROR), src_port=KV_UDP_PORT,
            dst_port=40000),
        "request_from_kv_port": kv_frame(
            get, src_port=KV_UDP_PORT, dst_port=40000),
        "response_to_kv_port": kv_frame(ok),
        "both_ports_kv": kv_frame(get, src_port=KV_UDP_PORT),
        "kv_source_rack_tag_dest": kv_frame(
            get, src_port=KV_UDP_PORT, dst_port=RACK_TAG_UDP_PORT),
        "trailing_bytes_after_request": kv_frame(get + b"trailer"),
        "trailing_bytes_after_response": kv_frame(ok + b"trailer"),
        "mac_padded_get": kv_frame(raw_request(KvOpcode.GET, b"k")).ljust(
            64, b"\x00"),
        "mac_padded_response": kv_frame(
            raw_response(KvStatus.OK), src_port=KV_UDP_PORT,
            dst_port=40000).ljust(64, b"\x00"),
        # Malformed: each must come out of the FSM's parse_error path.
        "empty_payload": kv_frame(b""),
        "one_byte": kv_frame(b"\x01"),
        "truncated_request_header": kv_frame(get[:12]),
        "truncated_request_body": kv_frame(put[:-1]),
        "truncated_key": kv_frame(get[:15]),
        "truncated_response_header": kv_frame(ok[:11]),
        "truncated_response_body": kv_frame(ok[:-1]),
        "unknown_opcode": kv_frame(raw_request(0x55)),
        "opcode_zero": kv_frame(raw_request(0)),
        "get_with_value": kv_frame(raw_request(KvOpcode.GET, b"k", b"v")),
        "delete_with_value": kv_frame(
            raw_request(KvOpcode.DELETE, b"k", b"vv")),
        "response_status_3": kv_frame(raw_response(3)),
        "response_status_255": kv_frame(raw_response(255, b"x")),
        "huge_value_len": kv_frame(
            struct.pack("!BHIHI", 2, 1, 1, 1, 0xFFFFFFFF) + b"k"),
        # Length fields that disagree with the bytes on the wire.
        "total_length_cuts_kv_body": with_lengths(
            kv_frame(put), total_length=20 + 8 + 13 + 7 + 10),
        "total_length_cuts_udp_header": with_lengths(
            kv_frame(get), total_length=24),
        "total_length_below_header": with_lengths(
            kv_frame(get), total_length=19),
        "total_length_past_frame": with_lengths(
            kv_frame(get), total_length=4000),
        "udp_length_too_small": with_lengths(kv_frame(get), udp_length=7),
        "udp_length_lies_short": with_lengths(kv_frame(put), udp_length=12),
        "udp_length_lies_long": with_lengths(kv_frame(get), udp_length=900),
        # Not KV at all: the rest of the UDP spine.
        "plain_udp": build_udp_frame(payload=b"plain" * 9, **BASE),
        "plain_udp_empty": build_udp_frame(payload=b"", **BASE),
        "rack_tagged": build_udp_frame(
            payload=b"\x12\x34" + bytes(20),
            **dict(BASE, dst_port=RACK_TAG_UDP_PORT)),
        "rack_tag_short": build_udp_frame(
            payload=b"\x01", **dict(BASE, dst_port=RACK_TAG_UDP_PORT)),
        "kv_garbage_ascii": kv_frame(b"get user:42\r\n"),
    }
    tcp = bytearray(frames["get"])
    tcp[23] = 6
    frames["tcp_protocol"] = bytes(tcp)
    options = bytearray(frames["get"])
    options[14] = 0x46
    frames["ipv4_options"] = bytes(options)
    arp = bytearray(frames["get"])
    arp[12:14] = b"\x08\x06"
    frames["not_ipv4"] = bytes(arp)
    frames["runt"] = frames["get"][:41]
    return frames


NAMED_FRAMES = _named_frames()


# The reference: the per-state extractors as built on the header
# classes and KV message objects, and a plain FSM loop over them.


def ref_ethernet(data, phv):
    eth, rest = EthernetHeader.unpack(data)
    phv.set("eth.dst", eth.dst.value)
    phv.set("eth.src", eth.src.value)
    phv.set("eth.type", eth.ethertype)
    return rest, eth.ethertype


def ref_ipv4(data, phv):
    ipv4, rest = Ipv4Header.unpack(data)
    phv.set("ipv4.src", ipv4.src.value)
    phv.set("ipv4.dst", ipv4.dst.value)
    phv.set("ipv4.proto", ipv4.protocol)
    phv.set("ipv4.ttl", ipv4.ttl)
    phv.set("ipv4.dscp", ipv4.dscp)
    phv.set("ipv4.ecn", ipv4.ecn)
    phv.set("ipv4.len", ipv4.total_length)
    phv.set("ipv4.id", ipv4.identification)
    l3_payload = ipv4.total_length - Ipv4Header.LENGTH
    if 0 <= l3_payload <= len(rest):
        rest = rest[:l3_payload]
    return rest, ipv4.protocol


def ref_udp(data, phv):
    udp, rest = UdpHeader.unpack(data)
    phv.set("udp.src_port", udp.src_port)
    phv.set("udp.dst_port", udp.dst_port)
    phv.set("udp.len", udp.length)
    if KV_UDP_PORT in (udp.src_port, udp.dst_port):
        return rest, KV_UDP_PORT
    if udp.dst_port == RACK_TAG_UDP_PORT:
        return rest, RACK_TAG_UDP_PORT
    return rest, 0


def ref_rack_tag(data, phv):
    if len(data) < 2:
        raise HeaderError("rack-tagged payload shorter than the tag shim")
    phv.set("rack.tag", int.from_bytes(data[:2], "big"))
    return data, None


def ref_tcp(data, phv):
    tcp, rest = TcpHeader.unpack(data)
    phv.set("tcp.src_port", tcp.src_port)
    phv.set("tcp.dst_port", tcp.dst_port)
    phv.set("tcp.flags", tcp.flags)
    phv.set("tcp.seq", tcp.seq)
    return rest, None


def ref_esp(data, phv):
    esp, rest = EspHeader.unpack(data)
    phv.set("esp.spi", esp.spi)
    phv.set("esp.seq", esp.seq)
    return rest, None


def ref_kv(data, phv):
    if not data:
        raise HeaderError("empty KV payload")
    phv.set("kv.opcode", data[0])
    if data[0] == KvOpcode.RESPONSE:
        response, rest = KvResponse.unpack(data)
        phv.set("kv.tenant", response.tenant)
        phv.set("kv.request_id", response.request_id)
        phv.set("kv.status", int(response.status))
        return rest, None
    request, rest = KvRequest.unpack(data)
    phv.set("kv.tenant", request.tenant)
    phv.set("kv.request_id", request.request_id)
    phv.set("kv.key", request.key)
    return rest, None


REFERENCE_GRAPH = {
    "ethernet": (ref_ethernet, {ETHERTYPE_IPV4: "ipv4", None: ACCEPT}),
    "ipv4": (ref_ipv4, {IP_PROTO_UDP: "udp", 6: "tcp", 50: "esp",
                        None: ACCEPT}),
    "udp": (ref_udp, {KV_UDP_PORT: "kv", RACK_TAG_UDP_PORT: "rack_tag",
                      None: ACCEPT}),
    "tcp": (ref_tcp, {None: ACCEPT}),
    "esp": (ref_esp, {None: ACCEPT}),
    "kv": (ref_kv, {None: ACCEPT}),
    "rack_tag": (ref_rack_tag, {None: ACCEPT}),
}


def reference_phv(data: bytes, phv=None) -> Phv:
    """The default graph's PHV for ``data``, by the reference FSM."""
    phv = Phv() if phv is None else phv
    state, remaining = "ethernet", data
    while state != ACCEPT:
        extractor, transitions = REFERENCE_GRAPH[state]
        try:
            remaining, select = extractor(remaining, phv)
        except HeaderError:
            phv.set("meta.parse_error", 1)
            phv.set("meta.parse_error_state", state.encode())
            break
        if select is not None and select in transitions:
            state = transitions[select]
        else:
            state = transitions.get(None, ACCEPT)
    phv.set("meta.payload", remaining)
    return phv


def ordered(phv):
    return list(phv._fields.items())


class TestParseGolden:
    """The default graph's walk against the reference FSM.  Test names
    read "fused" for the walk under test and "fsm" for the reference."""

    @pytest.mark.parametrize("name", sorted(NAMED_FRAMES))
    def test_named_frame_fused_equals_fsm(self, name):
        frame = NAMED_FRAMES[name]
        assert ordered(default_parse_graph().parse(frame)) == ordered(
            reference_phv(frame))

    def test_expected_fields_of_a_get(self):
        phv = default_parse_graph().parse(NAMED_FRAMES["get"])
        assert list(phv._fields) == [
            "eth.dst", "eth.src", "eth.type",
            "ipv4.src", "ipv4.dst", "ipv4.proto", "ipv4.ttl", "ipv4.dscp",
            "ipv4.ecn", "ipv4.len", "ipv4.id",
            "udp.src_port", "udp.dst_port", "udp.len",
            "kv.opcode", "kv.tenant", "kv.request_id", "kv.key",
            "meta.payload",
        ]
        assert phv.get("kv.opcode") == KvOpcode.GET
        assert phv.get("kv.tenant") == 3
        assert phv.get("kv.request_id") == 99
        assert phv.get("kv.key") == b"user:42"
        assert type(phv.get("kv.key")) is bytes
        assert phv.get("meta.payload") == b""
        assert phv.get("eth.dst") == 0x0200_0000_0002
        assert phv.get("ipv4.src") == 0x0A00_0001

    def test_expected_fields_of_a_response(self):
        phv = default_parse_graph().parse(NAMED_FRAMES["response_ok"])
        assert list(phv._fields)[14:] == [
            "kv.opcode", "kv.tenant", "kv.request_id", "kv.status",
            "meta.payload",
        ]
        assert phv.get("kv.opcode") == 0x80
        assert phv.get("kv.status") == 0
        assert type(phv.get("kv.status")) is int
        assert phv.get("meta.payload") == b""

    def test_trailing_bytes_stay_in_meta_payload(self):
        graph = default_parse_graph()
        for name in ("trailing_bytes_after_request",
                     "trailing_bytes_after_response"):
            assert graph.parse(NAMED_FRAMES[name]).get(
                "meta.payload") == b"trailer"

    def test_mac_padding_is_trimmed_by_the_ip_length(self):
        phv = default_parse_graph().parse(NAMED_FRAMES["mac_padded_get"])
        assert len(NAMED_FRAMES["mac_padded_get"]) == 64
        assert phv.get("kv.key") == b"k"
        assert phv.get("meta.payload") == b""
        assert "meta.parse_error" not in phv

    @pytest.mark.parametrize("name,state", [
        ("empty_payload", b"kv"), ("one_byte", b"kv"),
        ("truncated_request_header", b"kv"),
        ("truncated_request_body", b"kv"),
        ("truncated_response_header", b"kv"),
        ("truncated_response_body", b"kv"),
        ("unknown_opcode", b"kv"), ("get_with_value", b"kv"),
        ("response_status_3", b"kv"), ("huge_value_len", b"kv"),
        ("total_length_cuts_kv_body", b"kv"),
        ("total_length_cuts_udp_header", b"udp"),
        ("total_length_below_header", b"ipv4"),
        ("udp_length_too_small", b"udp"),
        ("rack_tag_short", b"rack_tag"), ("kv_garbage_ascii", b"kv"),
        ("ipv4_options", b"ipv4"),
    ])
    def test_malformed_frames_mark_parse_error(self, name, state):
        phv = default_parse_graph().parse(NAMED_FRAMES[name])
        assert phv.get("meta.parse_error") == 1
        assert phv.get("meta.parse_error_state") == state

    def test_intrinsic_metadata_keeps_its_place(self):
        # The pipeline seeds meta.* before parsing; parsed fields follow.
        graph = default_parse_graph()
        for name in ("get", "response_ok", "rack_tagged", "unknown_opcode"):
            frame = NAMED_FRAMES[name]
            seeded = graph.parse(frame, Phv({"meta.ingress_port": 2}))
            assert list(seeded._fields)[0] == "meta.ingress_port"
            assert ordered(seeded) == ordered(
                reference_phv(frame, Phv({"meta.ingress_port": 2})))

    def test_random_kv_frames_fused_equals_fsm(self):
        rng = random.Random(0x4B56)
        graph = default_parse_graph()
        for _ in range(1_500):
            if rng.random() < 0.6:
                opcode = rng.choice((KvOpcode.GET, KvOpcode.SET,
                                     KvOpcode.DELETE))
                value = (rng.randbytes(rng.randrange(0, 1200))
                         if opcode == KvOpcode.SET else b"")
                request = KvRequest(opcode, rng.randrange(0x10000),
                                    rng.getrandbits(32),
                                    rng.randbytes(rng.randrange(0, 40)),
                                    value)
                packet = build_kv_request_frame(
                    request, src_ip=rng.getrandbits(32),
                    src_port=rng.randrange(0x10000),
                    dscp=rng.randrange(64), ecn=rng.randrange(4))
            else:
                response = KvResponse(
                    rng.choice(list(KvStatus)), rng.randrange(0x10000),
                    rng.getrandbits(32),
                    rng.randbytes(rng.randrange(0, 1200)))
                packet = build_kv_response_frame(
                    response, dst_port=rng.randrange(0x10000))
            walked = graph.parse(packet.data)
            assert "meta.parse_error" not in walked
            assert ordered(walked) == ordered(reference_phv(packet.data))

    def test_mutated_frames_fused_equals_fsm(self):
        # Byte-level damage anywhere in the frame: flips, truncation,
        # padding.  Whatever the reference makes of it, the walk agrees.
        rng = random.Random(0xF022)
        graph = default_parse_graph()
        seeds = [NAMED_FRAMES[name] for name in (
            "get", "set", "delete", "response_ok", "request_from_kv_port",
            "mac_padded_get", "rack_tagged", "plain_udp",
            "trailing_bytes_after_request")]
        errors = 0
        for _ in range(MUTATIONS):
            frame = bytearray(rng.choice(seeds))
            roll = rng.random()
            if roll < 0.70:
                for _flip in range(rng.choice((1, 1, 2, 3))):
                    # Bias towards the length / type / opcode bytes.
                    index = (rng.choice((12, 13, 14, 16, 17, 23, 34, 35,
                                         36, 37, 38, 39, 42, 43, 49, 50,
                                         51, 52, 53, 54))
                             if rng.random() < 0.6
                             else rng.randrange(len(frame)))
                    if index < len(frame):
                        frame[index] = rng.randrange(256)
            elif roll < 0.85:
                del frame[rng.randrange(0, len(frame)):]
            else:
                frame += bytes(rng.randrange(1, 30))
            data = bytes(frame)
            walked = graph.parse(data)
            assert ordered(walked) == ordered(reference_phv(data)), data.hex()
            errors += "meta.parse_error" in walked
        assert 200 < errors < MUTATIONS - 200  # both outcomes exercised


class TestReprogrammedGraphs:
    """A hand-built graph runs the same walk as the default one: a copy
    of the stock graph parses as it does, and an edit anywhere on the
    UDP spine shows in the PHV."""

    STOCK = {
        "ethernet": (extract_ethernet, {ETHERTYPE_IPV4: "ipv4", None: ACCEPT}),
        "ipv4": (extract_ipv4, {17: "udp", 6: "tcp", 50: "esp",
                                None: ACCEPT}),
        "udp": (extract_udp, {KV_UDP_PORT: "kv",
                              RACK_TAG_UDP_PORT: "rack_tag", None: ACCEPT}),
        "tcp": (extract_tcp, {None: ACCEPT}),
        "esp": (extract_esp, {None: ACCEPT}),
        "kv": (extract_kv, {None: ACCEPT}),
        "rack_tag": (extract_rack_tag, {None: ACCEPT}),
    }

    def build(self, **overrides) -> ParseGraph:
        graph = ParseGraph(start="ethernet")
        for name, (extractor, transitions) in self.STOCK.items():
            extractor, transitions = overrides.get(
                name, (extractor, transitions))
            graph.add_state(ParserState(name, extractor, dict(transitions)))
        return graph

    def test_hand_built_stock_graph_equals_the_default(self):
        graph = self.build()
        stock = default_parse_graph()
        for name, frame in NAMED_FRAMES.items():
            assert ordered(graph.parse(frame)) == ordered(
                stock.parse(frame)), name
            assert ordered(graph.parse(frame)) == ordered(
                reference_phv(frame)), name

    def test_replaced_kv_extractor_is_always_called(self):
        seen = []

        def custom_kv(data, phv):
            seen.append(bytes(data))
            phv.set("kv.custom", len(data))
            return data, None

        graph = self.build(kv=(custom_kv, {None: ACCEPT}))
        for name in ("get", "response_ok", "unknown_opcode",
                     "request_from_kv_port"):
            phv = graph.parse(NAMED_FRAMES[name])
            assert "kv.custom" in phv and "kv.opcode" not in phv, name
            assert "meta.parse_error" not in phv
        assert len(seen) == 4
        # Non-KV traffic through the same graph is unaffected.
        assert ordered(graph.parse(NAMED_FRAMES["rack_tagged"])) == ordered(
            default_parse_graph().parse(NAMED_FRAMES["rack_tagged"]))

    def test_wrapped_kv_extractor_is_not_mistaken_for_the_stock_one(self):
        calls = []

        def wrapped(data, phv):
            calls.append(1)
            return extract_kv(data, phv)

        graph = self.build(kv=(wrapped, {None: ACCEPT}))
        phv = graph.parse(NAMED_FRAMES["get"])
        assert calls == [1]
        assert ordered(phv) == ordered(
            default_parse_graph().parse(NAMED_FRAMES["get"]))

    def test_kv_state_with_a_next_state_walks_on(self):
        def tail(data, phv):
            phv.set("tail.len", len(data))
            return data, None

        graph = self.build(kv=(extract_kv, {None: "tail"}))
        graph.add_state(ParserState("tail", tail, {None: ACCEPT}))
        phv = graph.parse(NAMED_FRAMES["trailing_bytes_after_request"])
        assert phv.get("tail.len") == len(b"trailer")
        assert phv.get("kv.key") == b"user:42"

    def test_udp_transitions_without_kv_leave_kv_unparsed(self):
        graph = self.build(udp=(extract_udp, {
            RACK_TAG_UDP_PORT: "rack_tag", None: ACCEPT}))
        phv = graph.parse(NAMED_FRAMES["get"])
        assert "kv.opcode" not in phv and "udp.dst_port" in phv
        assert phv.get("meta.payload") == raw_request(KvOpcode.GET,
                                                      b"user:42")
        # ... and a malformed KV body is no longer an error.
        assert "meta.parse_error" not in graph.parse(
            NAMED_FRAMES["unknown_opcode"])

    def test_udp_transitions_sending_plain_udp_to_kv(self):
        graph = self.build(udp=(extract_udp, {
            KV_UDP_PORT: "kv", RACK_TAG_UDP_PORT: "rack_tag", None: "kv"}))
        phv = graph.parse(NAMED_FRAMES["plain_udp"])
        assert phv.get("meta.parse_error_state") == b"kv"

    def test_ipv4_transitions_without_udp_stop_at_l3(self):
        graph = self.build(ipv4=(extract_ipv4, {None: ACCEPT}))
        for name in ("get", "plain_udp", "rack_tagged"):
            phv = graph.parse(NAMED_FRAMES[name])
            assert "udp.src_port" not in phv and "ipv4.dst" in phv, name

    def test_ethernet_transitions_without_ipv4_stop_at_l2(self):
        graph = self.build(ethernet=(extract_ethernet, {None: ACCEPT}))
        phv = graph.parse(NAMED_FRAMES["get"])
        assert list(phv._fields) == ["eth.dst", "eth.src", "eth.type",
                                     "meta.payload"]

    def test_rack_tag_state_chained_into_kv(self):
        graph = self.build(rack_tag=(extract_rack_tag, {None: "kv"}))
        phv = graph.parse(NAMED_FRAMES["rack_tagged"])
        assert phv.get("rack.tag") == 0x1234
        assert phv.get("meta.parse_error_state") == b"kv"

    def test_other_start_state(self):
        graph = ParseGraph(start="ipv4")
        for name, (extractor, transitions) in self.STOCK.items():
            graph.add_state(ParserState(name, extractor, dict(transitions)))
        phv = graph.parse(NAMED_FRAMES["get"][14:])
        assert "eth.dst" not in phv and phv.get("kv.key") == b"user:42"

    def test_graph_without_a_kv_state_is_an_error_only_for_kv_traffic(self):
        graph = ParseGraph(start="ethernet")
        for name, (extractor, transitions) in self.STOCK.items():
            if name != "kv":
                graph.add_state(
                    ParserState(name, extractor, dict(transitions)))
        assert "udp.len" in graph.parse(NAMED_FRAMES["plain_udp"])
        with pytest.raises(ValueError, match="unknown state 'kv'"):
            graph.parse(NAMED_FRAMES["get"])

    def test_states_added_later_are_seen(self):
        # The walk follows the graph as it is built up, whatever order
        # the states arrive in.
        graph = ParseGraph(start="ethernet")
        order = ["kv", "rack_tag", "udp", "esp", "tcp", "ipv4", "ethernet"]
        for name in order:
            extractor, transitions = self.STOCK[name]
            graph.add_state(ParserState(name, extractor, dict(transitions)))
        stock = default_parse_graph()
        for name, frame in NAMED_FRAMES.items():
            assert ordered(graph.parse(frame)) == ordered(
                stock.parse(frame)), name


# ----------------------------------------------------------------------
# parse_frame / frame_checksums_ok
# ----------------------------------------------------------------------


def _same_parse(data: bytes) -> None:
    expected = outcome_of(reference_parse, data)
    got = outcome_of(parse_frame, data)
    if expected[0] == "raised":
        assert got == expected
        return
    assert got[0] == "ok", got
    eth, ipv4, udp, payload = expected[1]
    frame = got[1]
    assert (frame.eth, frame.ipv4, frame.udp) == (eth, ipv4, udp)
    assert frame.payload == payload
    assert frame.tcp is None and frame.esp is None


class TestWholeFrameHelpers:
    def test_parse_frame_named_frames(self):
        for name, data in NAMED_FRAMES.items():
            if name == "tcp_protocol":
                continue  # the reference above stops at UDP
            _same_parse(data)

    def test_parse_frame_returns_header_objects(self):
        frame = parse_frame(NAMED_FRAMES["set"])
        assert type(frame.eth) is EthernetHeader
        assert type(frame.eth.dst) is MacAddress
        assert type(frame.ipv4) is Ipv4Header
        assert type(frame.ipv4.src) is IPv4Address
        assert type(frame.udp) is UdpHeader
        assert (frame.ipv4.dscp, frame.ipv4.ecn, frame.ipv4.ttl,
                frame.ipv4.identification, frame.ipv4.flags_fragment) == (
                    9, 1, 3, 77, 0x4000)
        assert frame.udp.checksum == struct.unpack_from(
            "!H", NAMED_FRAMES["set"], 40)[0]
        assert frame.is_kv and frame.kv_request().key == b"user:42"
        assert type(frame.payload) is bytes

    def test_mutated_frames(self):
        rng = random.Random(0xC4EC)
        seeds = [NAMED_FRAMES[name] for name in (
            "get", "set", "response_ok", "mac_padded_get", "rack_tagged",
            "plain_udp", "plain_udp_empty")]
        verdicts = {True: 0, False: 0}
        for _ in range(MUTATIONS):
            frame = bytearray(rng.choice(seeds))
            roll = rng.random()
            if roll < 0.75:
                for _flip in range(rng.choice((1, 1, 2))):
                    index = (rng.choice((12, 13, 14, 16, 17, 23, 24, 25,
                                         38, 39, 40, 41))
                             if rng.random() < 0.5
                             else rng.randrange(len(frame)))
                    if index < len(frame):
                        frame[index] ^= 1 << rng.randrange(8)
            elif roll < 0.9:
                del frame[rng.randrange(0, len(frame)):]
            else:
                frame += bytes(rng.randrange(1, 30))
            data = bytes(frame)
            verdict = frame_checksums_ok(data)
            assert verdict is reference_checksums_ok(data), data.hex()
            verdicts[verdict] += 1
            if data[23:24] != b"\x06":
                _same_parse(data)
        assert min(verdicts.values()) > 200

    def test_checksums_of_named_frames(self):
        for name, data in NAMED_FRAMES.items():
            assert frame_checksums_ok(data) is reference_checksums_ok(
                data), name

    def test_zero_udp_checksum_means_unchecked(self):
        frame = bytearray(NAMED_FRAMES["plain_udp"])
        frame[40:42] = b"\x00\x00"
        frame[50] ^= 0xFF                       # payload damage
        assert frame_checksums_ok(bytes(frame))
        frame[40:42] = NAMED_FRAMES["plain_udp"][40:42]
        assert not frame_checksums_ok(bytes(frame))
