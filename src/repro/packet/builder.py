"""Frame builders, a whole-frame parser and the tiles' frame codec.

These helpers assemble byte-accurate Ethernet/IPv4/UDP frames (optionally
carrying KV protocol messages) and parse them back into header objects.
They are used by workload generators, tests and the host model alike.
The offload tiles verify and rewrite frames in place through the one RX
verdict (:func:`checksum_verdict`), the one UDP rewrite
(:func:`split_udp_frame`, :func:`rewrite_udp_frame`) and the one IPv4
header patch (:func:`set_ipv4_ecn`) here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.packet.addresses import IPv4Address, MacAddress
from repro.packet.checksum import verify_internet_checksum
from repro.packet.headers import (
    ETH_IPV4_UDP,
    ETHERTYPE_IPV4,
    IP_PROTO_ESP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    EspHeader,
    EthernetHeader,
    HeaderError,
    Ipv4Header,
    TcpHeader,
    UdpHeader,
)
from repro.packet.kv import KV_UDP_PORT, KvRequest, KvResponse
from repro.packet.packet import MessageKind, Packet


@dataclass
class ParsedFrame:
    """All the views a full parse produces (missing layers are ``None``)."""

    eth: EthernetHeader
    ipv4: Optional[Ipv4Header] = None
    udp: Optional[UdpHeader] = None
    tcp: Optional[TcpHeader] = None
    esp: Optional[EspHeader] = None
    payload: bytes = b""

    @property
    def is_kv(self) -> bool:
        """Heuristic: UDP on the well-known KV port."""
        return self.udp is not None and KV_UDP_PORT in (
            self.udp.src_port,
            self.udp.dst_port,
        )

    def kv_request(self) -> KvRequest:
        request, _rest = KvRequest.unpack(self.payload)
        return request

    def kv_response(self) -> KvResponse:
        response, _rest = KvResponse.unpack(self.payload)
        return response


def parse_frame(data: bytes) -> ParsedFrame:
    """Parse an Ethernet frame down to the transport payload.

    Unknown EtherTypes stop at L2; unknown IP protocols stop at L3.  ESP
    packets stop at the ESP header (the remainder is ciphertext only the
    IPSec engine can interpret).
    """
    if data.__class__ is not bytes:
        data = bytes(data)  # bytearray / memoryview: payloads come out bytes
    eth, rest = EthernetHeader.unpack(data)
    parsed = ParsedFrame(eth=eth, payload=rest)
    if eth.ethertype != ETHERTYPE_IPV4:
        return parsed
    ipv4, rest = Ipv4Header.unpack(rest)
    parsed.ipv4 = ipv4
    # Respect total_length: the MAC may have padded the frame to 64 bytes.
    l3_payload_len = ipv4.total_length - Ipv4Header.LENGTH
    if l3_payload_len < 0 or l3_payload_len > len(rest):
        raise HeaderError(
            f"IPv4 total_length {ipv4.total_length} inconsistent with frame"
        )
    rest = rest[:l3_payload_len]
    parsed.payload = rest
    if ipv4.protocol == IP_PROTO_UDP:
        udp, rest = UdpHeader.unpack(rest)
        parsed.udp = udp
        parsed.payload = rest[: udp.length - UdpHeader.LENGTH]
    elif ipv4.protocol == IP_PROTO_TCP:
        tcp, rest = TcpHeader.unpack(rest)
        parsed.tcp = tcp
        parsed.payload = rest
    elif ipv4.protocol == IP_PROTO_ESP:
        esp, rest = EspHeader.unpack(rest)
        parsed.esp = esp
        parsed.payload = rest
    return parsed


def ipv4_ecn(data: bytes) -> Optional[int]:
    """The ECN codepoint of an Ethernet frame carrying an option-less
    IPv4 header, else ``None``: a runt, another EtherType, IPv4 options
    or a ``total_length`` under 20 leaves nothing to read or patch."""
    if (len(data) < 34 or (data[12] << 8) | data[13] != ETHERTYPE_IPV4
            or data[14] != 0x45 or (data[16] << 8) | data[17] < 20):
        return None
    return data[15] & 3


def checksum_verdict(data: bytes) -> Optional[bool]:
    """The RX verdict on the integrity checks a frame carries.

    ``None`` when there is nothing to verify (see :func:`ipv4_ecn`),
    else whether the IPv4 header checksum holds and, for UDP, whether
    the datagram fits the bytes present (``total_length`` within the
    frame, UDP length within [8, the IPv4 payload]) and its checksum,
    when non-zero, holds over the pseudo-header.  The frame is read in
    place at its fixed offsets.
    """
    if ipv4_ecn(data) is None:
        return None
    if not verify_internet_checksum(data[14:34]):
        return False
    if data[23] != IP_PROTO_UDP:
        return True
    total_length = (data[16] << 8) | data[17]
    if total_length > len(data) - 14 or total_length < 28:
        return False  # the IPv4 payload runs past the bytes, or holds no UDP
    udp_len = (data[38] << 8) | data[39]
    if udp_len < 8 or udp_len > total_length - 20:
        return False
    if not (data[40] or data[41]):
        return True  # checksum zero: the sender opted out
    # Pseudo-header (addresses, protocol, length) + datagram, summed as
    # one integer mod 0xFFFF; an odd datagram is padded on the right.
    datagram = int.from_bytes(data[34:34 + udp_len], "big")
    if udp_len & 1:
        datagram <<= 8
    return (int.from_bytes(data[26:34], "big") + IP_PROTO_UDP + udp_len
            + datagram) % 0xFFFF == 0


def frame_checksums_ok(data: bytes) -> bool:
    """False exactly when :func:`checksum_verdict` finds a check broken.

    This is the RX-side detection point the fault-injection harness
    relies on: link bit-flips land here (or at the IPSec ICV) and are
    dropped with accounting instead of propagating.  A frame with
    nothing to verify passes: unparseable traffic is the host's
    problem, not a detected corruption.
    """
    return checksum_verdict(data) is not False


def set_ipv4_ecn(data: bytes, ecn: int) -> bytes:
    """``data`` with its IPv4 ECN field set to ``ecn`` and the header
    checksum recomputed; every other byte is kept.  ``data`` must be a
    frame :func:`ipv4_ecn` reads."""
    head = data[14:15] + bytes(((data[15] & 0xFC) | ecn,)) + data[16:24]
    tail = data[26:34]
    checksum = -(int.from_bytes(head, "big")
                 + int.from_bytes(tail, "big")) % 0xFFFF
    return (data[:14] + head + checksum.to_bytes(2, "big") + tail
            + data[34:])


def split_udp_frame(data: bytes) -> Optional[Tuple[tuple, bytes]]:
    """``(record, payload)`` of an Ethernet/IPv4/UDP frame: its 42-byte
    header as one ``ETH_IPV4_UDP.unpack_from``, and the payload its UDP
    length covers.  ``None`` for any other frame, and for a UDP length
    under 8."""
    if len(data) < 42:
        return None
    record = ETH_IPV4_UDP.unpack_from(data)
    if (record[2] != ETHERTYPE_IPV4 or record[3] != 0x45 or record[5] < 20
            or record[9] != IP_PROTO_UDP or record[15] < 8):
        return None
    return record, data[42:34 + record[15]]


def rewrite_udp_frame(record: tuple, payload: bytes) -> bytes:
    """The frame ``record`` (from :func:`split_udp_frame`) heads, built
    again around ``payload``: every header field is kept but the
    lengths, the checksums and the flags word, which is DF as
    :func:`build_udp_frame` writes it."""
    (macs, src_mac_low, _ethertype, _version_ihl, tos, _total_length,
     identification, _flags, ttl, _protocol, _ip_sum, src_ip, dst_ip,
     src_port, dst_port, _udp_len, _udp_sum) = record
    return build_udp_frame(
        src_mac=(macs & 0xFFFF) << 32 | src_mac_low, dst_mac=macs >> 16,
        src_ip=src_ip, dst_ip=dst_ip, src_port=src_port, dst_port=dst_port,
        payload=payload, dscp=tos >> 2, ecn=tos & 3, ttl=ttl,
        identification=identification)


#: Text address -> int, per address family.  Workloads name endpoints by
#: the same few strings frame after frame; bounded by wholesale clearing.
_IP_INTS: dict = {}
_MAC_INTS: dict = {}
_ADDRESS_MEMO_MAX = 4096


def _address_int(value, kind, memo: dict, limit: int) -> int:
    """``kind(value).value`` -- same validation, same errors -- with the
    text spelling memoised; an int in ``[0, limit)`` is returned as it
    came, without building an address."""
    cls = value.__class__
    if cls is int and 0 <= value < limit:
        return value
    if cls is kind:
        return value.value
    if cls is not str:
        return kind(value).value
    number = memo.get(value)
    if number is None:
        number = kind(value).value
        if len(memo) >= _ADDRESS_MEMO_MAX:
            memo.clear()
        memo[value] = number
    return number


def build_udp_frame(
    *,
    src_mac: Union[str, MacAddress],
    dst_mac: Union[str, MacAddress],
    src_ip: Union[str, IPv4Address],
    dst_ip: Union[str, IPv4Address],
    src_port: int,
    dst_port: int,
    payload: bytes,
    dscp: int = 0,
    ecn: int = 0,
    ttl: int = 64,
    identification: int = 0,
) -> bytes:
    """A full Ethernet/IPv4/UDP frame with valid lengths and checksums.

    One ``struct`` pack of the 42-byte header from ints.  Both checksums
    are ones'-complement sums taken arithmetically: a big-endian integer
    is congruent mod 0xFFFF to the sum of its 16-bit words, so the 32-bit
    addresses and the whole payload enter as single terms.
    """
    size = len(payload)
    src = _address_int(src_ip, IPv4Address, _IP_INTS, 1 << 32)
    dst = _address_int(dst_ip, IPv4Address, _IP_INTS, 1 << 32)
    udp_len = 8 + size
    total_length = 28 + size
    if not (total_length <= 0xFFFF and 0 <= ttl <= 0xFF and 0 <= dscp <= 0x3F
            and 0 <= ecn <= 3 and 0 <= identification <= 0xFFFF
            and 0 <= src_port <= 0xFFFF and 0 <= dst_port <= 0xFFFF):
        # Out of range: the header classes name the field, in their order.
        Ipv4Header(src, dst, IP_PROTO_UDP, total_length, ttl, dscp, ecn,
                   identification)
        UdpHeader(src_port, dst_port, udp_len)
    dst_hw = _address_int(dst_mac, MacAddress, _MAC_INTS, 1 << 48)
    src_hw = _address_int(src_mac, MacAddress, _MAC_INTS, 1 << 48)
    tos = (dscp << 2) | ecn
    ip_sum = (0x4500 + tos + total_length + identification + 0x4000
              + (ttl << 8) + IP_PROTO_UDP + src + dst)
    body = int.from_bytes(payload, "big")
    if size & 1:
        body <<= 8  # the RFC 1071 zero pad byte
    udp_sum = (src + dst + IP_PROTO_UDP + udp_len
               + src_port + dst_port + udp_len + body)
    return ETH_IPV4_UDP.pack(
        (dst_hw << 16) | (src_hw >> 32), src_hw & 0xFFFFFFFF, ETHERTYPE_IPV4,
        0x45, tos, total_length, identification, 0x4000, ttl, IP_PROTO_UDP,
        -ip_sum % 0xFFFF, src, dst,
        # RFC 768: a computed zero is transmitted as all-ones.
        src_port, dst_port, udp_len, -udp_sum % 0xFFFF or 0xFFFF,
    ) + payload


def build_kv_request_frame(
    request: KvRequest,
    *,
    src_mac: Union[str, MacAddress] = "02:00:00:00:00:01",
    dst_mac: Union[str, MacAddress] = "02:00:00:00:00:02",
    src_ip: Union[str, IPv4Address] = "10.0.0.1",
    dst_ip: Union[str, IPv4Address] = "10.0.0.2",
    src_port: int = 40000,
    dscp: int = 0,
    ecn: int = 0,
) -> Packet:
    """Wrap a KV request in a UDP frame and return it as a Packet."""
    frame = build_udp_frame(
        src_mac=src_mac,
        dst_mac=dst_mac,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=KV_UDP_PORT,
        payload=request.pack(),
        dscp=dscp,
        ecn=ecn,
        identification=request.request_id & 0xFFFF,
    )
    packet = Packet(frame, MessageKind.ETHERNET)
    packet.meta.tenant = request.tenant
    return packet


def kv_reply_frame(request_frame: ParsedFrame, response: KvResponse) -> bytes:
    """The frame answering a parsed KV request: its MACs and IPs
    swapped, from the KV port back to the port that asked."""
    assert request_frame.ipv4 is not None and request_frame.udp is not None
    return build_udp_frame(
        src_mac=request_frame.eth.dst,
        dst_mac=request_frame.eth.src,
        src_ip=request_frame.ipv4.dst,
        dst_ip=request_frame.ipv4.src,
        src_port=KV_UDP_PORT,
        dst_port=request_frame.udp.src_port,
        payload=response.pack(),
        identification=response.request_id & 0xFFFF,
    )


def build_kv_response_frame(
    response: KvResponse,
    *,
    src_mac: Union[str, MacAddress] = "02:00:00:00:00:02",
    dst_mac: Union[str, MacAddress] = "02:00:00:00:00:01",
    src_ip: Union[str, IPv4Address] = "10.0.0.2",
    dst_ip: Union[str, IPv4Address] = "10.0.0.1",
    dst_port: int = 40000,
) -> Packet:
    """Wrap a KV response in a UDP frame and return it as a Packet."""
    frame = build_udp_frame(
        src_mac=src_mac,
        dst_mac=dst_mac,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=KV_UDP_PORT,
        dst_port=dst_port,
        payload=response.pack(),
        identification=response.request_id & 0xFFFF,
    )
    packet = Packet(frame, MessageKind.ETHERNET)
    packet.meta.tenant = response.tenant
    return packet
