"""Byte-accurate packet model and protocol stack.

The NIC simulators operate on real bytes: headers serialize to and parse
from wire format, checksums are computed with the real Internet-checksum
algorithm, and offload engines (IPSec, compression, KV cache) transform the
actual payload.  This lets the test suite assert end-to-end functional
correctness, not just timing.

Layers provided:

* :mod:`repro.packet.addresses` -- MAC / IPv4 address values.
* :mod:`repro.packet.headers`   -- Ethernet, IPv4, UDP, TCP, ESP headers.
* :mod:`repro.packet.panic_hdr` -- PANIC's internal chain + slack header.
* :mod:`repro.packet.kv`        -- the key-value application protocol used
  by the paper's DynamoDB-style running example.
* :mod:`repro.packet.packet`    -- the :class:`Packet` container carried
  through simulations (bytes + parsed views + NIC metadata).
* :mod:`repro.packet.builder`   -- convenience constructors for full frames.
"""

from repro.packet.addresses import IPv4Address, MacAddress
from repro.packet.checksum import internet_checksum, verify_internet_checksum, crc32
from repro.packet.headers import (
    ETHERTYPE_IPV4,
    ETHERTYPE_PANIC,
    IP_PROTO_ESP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    EthernetHeader,
    EspHeader,
    HeaderError,
    Ipv4Header,
    TcpHeader,
    UdpHeader,
)
from repro.packet.kv import KvOpcode, KvRequest, KvResponse, KvStatus, KV_UDP_PORT
from repro.packet.packet import (
    MIN_FRAME_BYTES,
    WIRE_OVERHEAD_BYTES,
    Packet,
    PacketMetadata,
    wire_bits,
)
from repro.packet.panic_hdr import PanicHeader
from repro.packet.builder import (
    build_kv_request_frame,
    build_kv_response_frame,
    build_udp_frame,
    frame_checksums_ok,
    parse_frame,
    ParsedFrame,
)

__all__ = [
    "EthernetHeader",
    "EspHeader",
    "ETHERTYPE_IPV4",
    "ETHERTYPE_PANIC",
    "HeaderError",
    "IP_PROTO_ESP",
    "IP_PROTO_TCP",
    "IP_PROTO_UDP",
    "IPv4Address",
    "Ipv4Header",
    "KV_UDP_PORT",
    "KvOpcode",
    "KvRequest",
    "KvResponse",
    "KvStatus",
    "MacAddress",
    "MIN_FRAME_BYTES",
    "Packet",
    "PacketMetadata",
    "PanicHeader",
    "ParsedFrame",
    "TcpHeader",
    "UdpHeader",
    "WIRE_OVERHEAD_BYTES",
    "build_kv_request_frame",
    "build_kv_response_frame",
    "build_udp_frame",
    "frame_checksums_ok",
    "crc32",
    "internet_checksum",
    "parse_frame",
    "verify_internet_checksum",
    "wire_bits",
]
