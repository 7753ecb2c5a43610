"""Wire-format protocol headers: Ethernet, IPv4, UDP, TCP, IPSec ESP.

Each header class packs to and parses from real network byte order, and
validates its fields, so simulated offloads operate on genuine wire bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

from repro.packet.addresses import IPv4Address, MacAddress
from repro.packet.checksum import internet_checksum

# EtherTypes.
ETHERTYPE_IPV4 = 0x0800
#: Locally administered EtherType for PANIC's internal chain header
#: (prepended to messages while they travel the on-chip network).
ETHERTYPE_PANIC = 0x88B5  # IEEE 802 local experimental

# IP protocol numbers.
IP_PROTO_TCP = 6
IP_PROTO_UDP = 17
IP_PROTO_ESP = 50

#: UDP destination port keying the rack flow-identity tag shim: payloads
#: to this port start with a 16-bit big-endian flow tag (VXLAN-style --
#: the tag rides the payload so every fixed wire offset below it stays
#: put, unlike an 802.1Q tag which would shift the whole L3 stack).  The
#: parser's ``rack_tag`` state extracts it into ``rack.tag`` without
#: consuming it; RMT tables key TX steering and RX slack on the field.
#: 16 bits cover all-pairs flow identity for rack rows far beyond the
#: 6-bit DSCP cap (src * n + dst for n up to 255).
RACK_TAG_UDP_PORT = 9100
#: Width of the tag shim at the start of a RACK_TAG_UDP_PORT payload.
RACK_TAG_BYTES = 2


class HeaderError(ValueError):
    """Raised when bytes cannot be parsed as the requested header."""


#: Ethernet II + option-less IPv4 + UDP as one 42-byte record, for the
#: one-pass builder.  The MAC pair travels as a 64 + 32 bit split:
#: ``dst << 16 | src >> 32`` and ``src & 0xFFFFFFFF``.
ETH_IPV4_UDP = struct.Struct("!QIHBBHHHBBHIIHHHH")
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_UDP = struct.Struct("!HHHH")


@dataclass
class EthernetHeader:
    """A 14-byte Ethernet II header (FCS is modelled, not stored)."""

    dst: MacAddress
    src: MacAddress
    ethertype: int = ETHERTYPE_IPV4

    LENGTH = 14

    def __post_init__(self) -> None:
        self.dst = MacAddress(self.dst)
        self.src = MacAddress(self.src)
        if not 0 <= self.ethertype <= 0xFFFF:
            raise HeaderError(f"ethertype out of range: {self.ethertype:#x}")

    def pack(self) -> bytes:
        return self.dst.to_bytes() + self.src.to_bytes() + struct.pack(
            "!H", self.ethertype
        )

    @classmethod
    def unpack(cls, data: bytes) -> Tuple["EthernetHeader", bytes]:
        if len(data) < cls.LENGTH:
            raise HeaderError(f"truncated Ethernet header: {len(data)} bytes")
        # Wire values cannot violate __post_init__'s range checks (two
        # bytes are always a valid ethertype), so construction bypasses
        # the dataclass validation on this hot parse path.
        header = object.__new__(cls)
        header.dst = MacAddress.from_wire(data[0:6])
        header.src = MacAddress.from_wire(data[6:12])
        header.ethertype = (data[12] << 8) | data[13]
        return header, data[cls.LENGTH :]


@dataclass
class Ipv4Header:
    """An IPv4 header without options (IHL fixed at 5 words / 20 bytes)."""

    src: IPv4Address
    dst: IPv4Address
    protocol: int = IP_PROTO_UDP
    total_length: int = 20
    ttl: int = 64
    dscp: int = 0
    ecn: int = 0  # 0=Not-ECT, 1=ECT(1), 2=ECT(0), 3=CE
    identification: int = 0
    flags_fragment: int = 0x4000  # DF set, offset 0

    LENGTH = 20

    def __post_init__(self) -> None:
        self.src = IPv4Address(self.src)
        self.dst = IPv4Address(self.dst)
        if not 0 <= self.protocol <= 0xFF:
            raise HeaderError(f"protocol out of range: {self.protocol}")
        if not self.LENGTH <= self.total_length <= 0xFFFF:
            raise HeaderError(f"total_length out of range: {self.total_length}")
        if not 0 <= self.ttl <= 0xFF:
            raise HeaderError(f"ttl out of range: {self.ttl}")
        if not 0 <= self.dscp <= 0x3F:
            raise HeaderError(f"dscp out of range: {self.dscp}")
        if not 0 <= self.ecn <= 3:
            raise HeaderError(f"ecn out of range: {self.ecn}")
        if not 0 <= self.identification <= 0xFFFF:
            raise HeaderError(
                f"identification out of range: {self.identification}")

    def pack(self) -> bytes:
        """Serialize with a freshly computed header checksum."""
        version_ihl = (4 << 4) | 5
        tos = (self.dscp << 2) | self.ecn
        without_cksum = struct.pack(
            "!BBHHHBBH4s4s",
            version_ihl,
            tos,
            self.total_length,
            self.identification,
            self.flags_fragment,
            self.ttl,
            self.protocol,
            0,
            self.src.to_bytes(),
            self.dst.to_bytes(),
        )
        cksum = internet_checksum(without_cksum)
        return without_cksum[:10] + struct.pack("!H", cksum) + without_cksum[12:]

    @classmethod
    def unpack(cls, data: bytes) -> Tuple["Ipv4Header", bytes]:
        if len(data) < cls.LENGTH:
            raise HeaderError(f"truncated IPv4 header: {len(data)} bytes")
        (
            version_ihl,
            tos,
            total_length,
            identification,
            flags_fragment,
            ttl,
            protocol,
            _cksum,
            src,
            dst,
        ) = _IPV4.unpack_from(data)
        version = version_ihl >> 4
        ihl = version_ihl & 0xF
        if version != 4:
            raise HeaderError(f"not an IPv4 packet (version {version})")
        if ihl != 5:
            raise HeaderError(f"IPv4 options unsupported (IHL {ihl})")
        # Of __post_init__'s checks, only total_length can fail on wire
        # input (a !H can be < 20); replicate it and bypass the rest.
        if total_length < cls.LENGTH:
            raise HeaderError(f"total_length out of range: {total_length}")
        header = object.__new__(cls)
        header.src = IPv4Address.from_wire(src)
        header.dst = IPv4Address.from_wire(dst)
        header.protocol = protocol
        header.total_length = total_length
        header.ttl = ttl
        header.dscp = tos >> 2
        header.ecn = tos & 0x3
        header.identification = identification
        header.flags_fragment = flags_fragment
        return header, data[cls.LENGTH :]


@dataclass
class UdpHeader:
    """An 8-byte UDP header."""

    src_port: int
    dst_port: int
    length: int = 8
    checksum: int = 0

    LENGTH = 8

    def __post_init__(self) -> None:
        for label, port in (("src", self.src_port), ("dst", self.dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise HeaderError(f"{label} port out of range: {port}")
        if not self.LENGTH <= self.length <= 0xFFFF:
            raise HeaderError(f"UDP length out of range: {self.length}")

    def pack(self) -> bytes:
        return struct.pack(
            "!HHHH", self.src_port, self.dst_port, self.length, self.checksum
        )

    @classmethod
    def unpack(cls, data: bytes) -> Tuple["UdpHeader", bytes]:
        if len(data) < cls.LENGTH:
            raise HeaderError(f"truncated UDP header: {len(data)} bytes")
        src_port, dst_port, length, checksum = _UDP.unpack_from(data)
        # Ports from a !H are always in range; only the length check of
        # __post_init__ can fail on wire input.
        if length < cls.LENGTH:
            raise HeaderError(f"UDP length out of range: {length}")
        header = object.__new__(cls)
        header.src_port = src_port
        header.dst_port = dst_port
        header.length = length
        header.checksum = checksum
        return header, data[8:]


@dataclass
class TcpHeader:
    """A 20-byte TCP header (no options)."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0x10  # ACK
    window: int = 0xFFFF
    checksum: int = 0
    urgent: int = 0

    LENGTH = 20

    FLAG_FIN = 0x01
    FLAG_SYN = 0x02
    FLAG_RST = 0x04
    FLAG_PSH = 0x08
    FLAG_ACK = 0x10

    def __post_init__(self) -> None:
        for label, port in (("src", self.src_port), ("dst", self.dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise HeaderError(f"{label} port out of range: {port}")
        if not 0 <= self.seq < 1 << 32 or not 0 <= self.ack < 1 << 32:
            raise HeaderError("TCP sequence/ack number out of range")

    def pack(self) -> bytes:
        offset_flags = (5 << 12) | (self.flags & 0x1FF)
        return struct.pack(
            "!HHIIHHHH",
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            offset_flags,
            self.window,
            self.checksum,
            self.urgent,
        )

    @classmethod
    def unpack(cls, data: bytes) -> Tuple["TcpHeader", bytes]:
        if len(data) < cls.LENGTH:
            raise HeaderError(f"truncated TCP header: {len(data)} bytes")
        (
            src_port,
            dst_port,
            seq,
            ack,
            offset_flags,
            window,
            checksum,
            urgent,
        ) = struct.unpack("!HHIIHHHH", data[: cls.LENGTH])
        offset_words = offset_flags >> 12
        if offset_words < 5:
            raise HeaderError(f"bad TCP data offset: {offset_words}")
        option_bytes = (offset_words - 5) * 4
        if len(data) < cls.LENGTH + option_bytes:
            raise HeaderError("truncated TCP options")
        header = cls(
            src_port,
            dst_port,
            seq,
            ack,
            offset_flags & 0x1FF,
            window,
            checksum,
            urgent,
        )
        return header, data[cls.LENGTH + option_bytes :]


@dataclass
class EspHeader:
    """An IPSec ESP header (RFC 4303): SPI + sequence number.

    The trailer (padding, pad-length, next-header) and the integrity check
    value are handled by the IPSec engine, which owns the cipher state.
    """

    spi: int
    seq: int

    LENGTH = 8

    def __post_init__(self) -> None:
        if not 0 <= self.spi < 1 << 32:
            raise HeaderError(f"ESP SPI out of range: {self.spi}")
        if not 0 <= self.seq < 1 << 32:
            raise HeaderError(f"ESP sequence out of range: {self.seq}")

    def pack(self) -> bytes:
        return struct.pack("!II", self.spi, self.seq)

    @classmethod
    def unpack(cls, data: bytes) -> Tuple["EspHeader", bytes]:
        if len(data) < cls.LENGTH:
            raise HeaderError(f"truncated ESP header: {len(data)} bytes")
        spi, seq = struct.unpack("!II", data[:8])
        return cls(spi, seq), data[8:]
