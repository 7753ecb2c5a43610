"""Frame builders and a whole-frame parser.

These helpers assemble byte-accurate Ethernet/IPv4/UDP frames (optionally
carrying KV protocol messages) and parse them back into header objects.
They are used by workload generators, tests and the host model alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

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


def frame_checksums_ok(data: bytes) -> bool:
    """Verify the integrity checks a frame carries on the wire.

    Checks the IPv4 header checksum and, when present and non-zero, the
    UDP checksum over the pseudo-header.  Frames without an IPv4 layer
    (or too mangled to parse) return True -- there is nothing to verify,
    and unparseable traffic is the host's problem, not a detected
    corruption.  This is the RX-side detection point the fault-injection
    harness relies on: link bit-flips land here (or at the IPSec ICV) and
    are dropped with accounting instead of propagating.

    The frame is read in place at its fixed offsets; each ``return True``
    below is a shape the header classes would refuse to unpack, or a
    length field that disagrees with the bytes present.
    """
    size = len(data)
    if (size < 34 or (data[12] << 8) | data[13] != ETHERTYPE_IPV4
            or data[14] != 0x45):
        return True  # runt, not IPv4, or not an option-less IPv4 header
    total_length = (data[16] << 8) | data[17]
    if total_length < 20:
        return True
    if not verify_internet_checksum(data[14:34]):
        return False
    if data[23] != IP_PROTO_UDP or total_length > size - 14 or size < 42:
        return True  # not UDP, or lengths the bytes present cannot back
    udp_len = (data[38] << 8) | data[39]
    if (udp_len < 8 or udp_len > total_length - 20
            or not (data[40] or data[41])):
        return True  # bad length, or checksum zero: sender opted out
    # Pseudo-header (addresses, protocol, length) + datagram, summed as
    # one integer mod 0xFFFF; an odd datagram is padded on the right.
    datagram = int.from_bytes(data[34:34 + udp_len], "big")
    if udp_len & 1:
        datagram <<= 8
    return (int.from_bytes(data[26:34], "big") + IP_PROTO_UDP + udp_len
            + datagram) % 0xFFFF == 0


#: Text address -> int, per address family.  Workloads name endpoints by
#: the same few strings frame after frame; bounded by wholesale clearing.
_IP_INTS: dict = {}
_MAC_INTS: dict = {}
_ADDRESS_MEMO_MAX = 4096


def _address_int(value, kind, memo: dict) -> int:
    """``kind(value).value`` -- same validation, same errors -- with the
    text spelling memoised."""
    if value.__class__ is kind:
        return value.value
    if value.__class__ is not str:
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
    src = _address_int(src_ip, IPv4Address, _IP_INTS)
    dst = _address_int(dst_ip, IPv4Address, _IP_INTS)
    udp_len = 8 + size
    total_length = 28 + size
    if not (total_length <= 0xFFFF and 0 <= ttl <= 0xFF and 0 <= dscp <= 0x3F
            and 0 <= ecn <= 3 and 0 <= identification <= 0xFFFF
            and 0 <= src_port <= 0xFFFF and 0 <= dst_port <= 0xFFFF):
        # Out of range: the header classes name the field, in their order.
        Ipv4Header(src, dst, IP_PROTO_UDP, total_length, ttl, dscp, ecn,
                   identification)
        UdpHeader(src_port, dst_port, udp_len)
    dst_hw = _address_int(dst_mac, MacAddress, _MAC_INTS)
    src_hw = _address_int(src_mac, MacAddress, _MAC_INTS)
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
