"""The programmable packet parser (parse graph).

An RMT parser is a finite state machine: each state extracts one header,
writes its fields into the PHV, and selects the next state from a PHV
field it just extracted (EtherType, IP protocol, UDP port...).  This module
implements that model and ships the default parse graph used by the PANIC
reference program: Ethernet -> IPv4 -> {UDP -> {KV | rack_tag} | TCP | ESP}.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.packet.headers import (
    ETH_IPV4_UDP,
    ETHERTYPE_IPV4,
    IP_PROTO_ESP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    RACK_TAG_BYTES,
    RACK_TAG_UDP_PORT,
    EspHeader,
    EthernetHeader,
    HeaderError,
    Ipv4Header,
    TcpHeader,
    UdpHeader,
)
from repro.packet.kv import KV_UDP_PORT, KvOpcode, KvRequest, KvResponse
from repro.rmt.phv import Phv

#: An extraction function: consumes bytes, writes PHV fields, returns the
#: remaining bytes and the value used for next-state selection (or None).
Extractor = Callable[[bytes, Phv], Tuple[bytes, Optional[int]]]

#: Terminal pseudo-state.
ACCEPT = "accept"


@dataclass(frozen=True)
class ParserState:
    """One node of the parse graph.

    Immutable, transitions included (a read-only copy is taken): a graph
    decides once, as states are added, whether it is the stock UDP spine
    the one-pass walk may serve, and nothing can change under it later.
    To reprogram a parser, build another graph.
    """

    name: str
    extractor: Extractor
    #: Map from select value to next state name; ``None`` key is default.
    transitions: Mapping[Optional[int], str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "transitions", MappingProxyType(dict(self.transitions)))

    def next_state(self, select: Optional[int]) -> str:
        if select is not None and select in self.transitions:
            return self.transitions[select]
        return self.transitions.get(None, ACCEPT)


class ParseGraph:
    """A programmable parser: a named set of states plus a start state."""

    def __init__(self, start: str):
        self._start = start
        self._states: Dict[str, ParserState] = {}
        #: States added so far that equal their ``_STOCK_SPINE`` entry;
        #: with all of them in (none can be replaced or removed) the graph
        #: *is* the stock UDP spine and ``parse`` may try the one-pass walk.
        self._stock_states = 0
        self._fused = False

    @property
    def start(self) -> str:
        return self._start

    def add_state(self, state: ParserState) -> "ParseGraph":
        if state.name in self._states:
            raise ValueError(f"duplicate parser state {state.name!r}")
        self._states[state.name] = state
        stock = _STOCK_SPINE.get(state.name)
        if (state.extractor, state.transitions) == stock:
            self._stock_states += 1
            self._fused = (self._start == "ethernet"
                           and self._stock_states == len(_STOCK_SPINE))
        return self

    def parse(self, data: bytes, phv: Optional[Phv] = None) -> Phv:
        """Run the FSM over ``data``; returns the populated PHV.

        A :class:`~repro.packet.headers.HeaderError` mid-parse stops the
        walk and marks ``meta.parse_error`` instead of raising: real
        parsers deliver malformed packets to a default queue rather than
        wedging the pipeline.
        """
        if phv is None:
            phv = Phv()
        if (self._fused and len(data) >= 42
                and _fused_default_parse(data, phv._fields)):
            return phv
        state_name = self._start
        remaining = data
        steps = 0
        while state_name != ACCEPT:
            if steps > len(self._states) + 8:
                raise RuntimeError("parse graph did not terminate (cycle?)")
            steps += 1
            state = self._states.get(state_name)
            if state is None:
                raise ValueError(f"parse graph references unknown state {state_name!r}")
            try:
                remaining, select = state.extractor(remaining, phv)
            except HeaderError as exc:
                phv.set("meta.parse_error", 1)
                phv.set("meta.parse_error_state", state_name.encode())
                break
            state_name = state.next_state(select)
        phv.set("meta.payload", remaining)
        return phv


# ----------------------------------------------------------------------
# Default extractors
# ----------------------------------------------------------------------


def extract_ethernet(data: bytes, phv: Phv) -> Tuple[bytes, Optional[int]]:
    eth, rest = EthernetHeader.unpack(data)
    # The hot extractors write the field store directly: every value here
    # is an int by construction, so Phv.set's type check adds nothing.
    fields = phv._fields
    fields["eth.dst"] = eth.dst.value
    fields["eth.src"] = eth.src.value
    fields["eth.type"] = eth.ethertype
    return rest, eth.ethertype


def extract_ipv4(data: bytes, phv: Phv) -> Tuple[bytes, Optional[int]]:
    ipv4, rest = Ipv4Header.unpack(data)
    fields = phv._fields
    fields["ipv4.src"] = ipv4.src.value
    fields["ipv4.dst"] = ipv4.dst.value
    fields["ipv4.proto"] = ipv4.protocol
    fields["ipv4.ttl"] = ipv4.ttl
    fields["ipv4.dscp"] = ipv4.dscp
    fields["ipv4.ecn"] = ipv4.ecn
    fields["ipv4.len"] = ipv4.total_length
    fields["ipv4.id"] = ipv4.identification
    # Trim MAC padding using the IP length, like a real deparser would.
    l3_payload = ipv4.total_length - Ipv4Header.LENGTH
    if 0 <= l3_payload <= len(rest):
        rest = rest[:l3_payload]
    return rest, ipv4.protocol


def extract_udp(data: bytes, phv: Phv) -> Tuple[bytes, Optional[int]]:
    udp, rest = UdpHeader.unpack(data)
    fields = phv._fields
    fields["udp.src_port"] = udp.src_port
    fields["udp.dst_port"] = udp.dst_port
    fields["udp.len"] = udp.length
    if KV_UDP_PORT in (udp.src_port, udp.dst_port):
        select = KV_UDP_PORT
    elif udp.dst_port == RACK_TAG_UDP_PORT:
        select = RACK_TAG_UDP_PORT
    else:
        select = 0
    return rest, select


def extract_rack_tag(data: bytes, phv: Phv) -> Tuple[bytes, Optional[int]]:
    """Extract the 16-bit rack flow tag leading a RACK_TAG_UDP_PORT
    payload into ``rack.tag``, without consuming it -- the tag is part of
    the payload the host and checksum offload see, exactly like a VXLAN
    VNI rides inside the outer UDP payload."""
    if len(data) < RACK_TAG_BYTES:
        raise HeaderError("rack-tagged payload shorter than the tag shim")
    phv._fields["rack.tag"] = (data[0] << 8) | data[1]
    return data, None


def extract_tcp(data: bytes, phv: Phv) -> Tuple[bytes, Optional[int]]:
    tcp, rest = TcpHeader.unpack(data)
    phv.set("tcp.src_port", tcp.src_port)
    phv.set("tcp.dst_port", tcp.dst_port)
    phv.set("tcp.flags", tcp.flags)
    phv.set("tcp.seq", tcp.seq)
    return rest, None


def extract_esp(data: bytes, phv: Phv) -> Tuple[bytes, Optional[int]]:
    esp, rest = EspHeader.unpack(data)
    phv.set("esp.spi", esp.spi)
    phv.set("esp.seq", esp.seq)
    # Ciphertext beyond the ESP header is opaque to the parser.
    return rest, None


def extract_kv(data: bytes, phv: Phv) -> Tuple[bytes, Optional[int]]:
    """Extract the KV opcode/tenant/key without copying the value."""
    if not data:
        raise HeaderError("empty KV payload")
    opcode = data[0]
    phv.set("kv.opcode", opcode)
    if opcode == KvOpcode.RESPONSE:
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


#: The default graph's UDP spine, state by state: what ``default_parse_graph``
#: builds, and what ``ParseGraph.add_state`` holds a graph to before the
#: one-pass walk below may stand in for it.  ``tcp`` and ``esp`` are not
#: listed: the walk declines their traffic, so they may be anything.
_STOCK_SPINE = {
    "ethernet": (extract_ethernet, {ETHERTYPE_IPV4: "ipv4", None: ACCEPT}),
    "ipv4": (extract_ipv4, {IP_PROTO_UDP: "udp", IP_PROTO_TCP: "tcp",
                            IP_PROTO_ESP: "esp", None: ACCEPT}),
    "udp": (extract_udp, {KV_UDP_PORT: "kv", RACK_TAG_UDP_PORT: "rack_tag",
                          None: ACCEPT}),
    "kv": (extract_kv, {None: ACCEPT}),
    "rack_tag": (extract_rack_tag, {None: ACCEPT}),
}

_KV_REQUEST = struct.Struct(KvRequest.HEADER_FMT)
_KV_RESPONSE = struct.Struct(KvResponse.HEADER_FMT)
_KV_RESPONSE_OPCODE = int(KvOpcode.RESPONSE)
_KV_SET_OPCODE = int(KvOpcode.SET)


def _fused_default_parse(data: bytes, fields: dict) -> bool:
    """One-pass Ethernet/IPv4/UDP/{KV, rack tag} walk of the stock spine.

    The per-state FSM walk costs an extractor call, a header ``unpack``
    and the address / message objects it builds per state -- all to
    produce some twenty PHV values whose wire offsets are fixed once the
    frame is known to be UDP-in-IPv4.  This reads them in place.  Only
    a graph ``add_state`` found to be the stock spine gets here, with at
    least 42 bytes.  Every validation the FSM would apply (including
    ``KvRequest`` / ``KvResponse``'s) is replicated as a pure read, and
    any mismatch -- other EtherType or protocol, IPv4 options,
    truncation, a malformed KV message -- returns False before writing
    a single field, leaving the FSM to produce its exact result
    (including the ``meta.parse_error`` paths).  Field write order
    matches the FSM's.
    """
    (macs, src_low, ethertype, version_ihl, tos, total_length, ident,
     _fragment, ttl, protocol, _ip_checksum, ip_src, ip_dst,
     src_port, dst_port, udp_len, _checksum) = ETH_IPV4_UDP.unpack_from(data)
    if (ethertype != ETHERTYPE_IPV4 or version_ihl != 0x45
            or total_length < 28 or protocol != IP_PROTO_UDP
            or udp_len < 8):
        return False  # total_length < 28 truncates UDP: a parse_error
    # extract_ipv4's MAC-padding trim: the L3 payload ends at ``end``.
    end = len(data)
    if 14 + total_length < end:
        end = 14 + total_length
    opcode = key = tag = None
    payload_at = 42
    if src_port == KV_UDP_PORT or dst_port == KV_UDP_PORT:
        if end == 42:
            return False  # empty KV payload
        opcode = data[42]
        if opcode == _KV_RESPONSE_OPCODE:
            if end < 54:
                return False
            _, status, tenant, request_id, value_len = (
                _KV_RESPONSE.unpack_from(data, 42))
            payload_at = 54 + value_len
            if payload_at > end or status > 2:  # truncated / no such status
                return False
        else:
            if end < 55 or not 1 <= opcode <= 3:
                return False
            _, tenant, request_id, key_len, value_len = (
                _KV_REQUEST.unpack_from(data, 42))
            payload_at = 55 + key_len + value_len
            if payload_at > end or (value_len and opcode != _KV_SET_OPCODE):
                return False  # truncated / a value only SET may carry
            key = data[55:55 + key_len]
    elif dst_port == RACK_TAG_UDP_PORT:
        if end < 42 + RACK_TAG_BYTES:
            return False  # truncated tag shim
        tag = (data[42] << 8) | data[43]
    fields["eth.dst"] = macs >> 16
    fields["eth.src"] = (macs & 0xFFFF) << 32 | src_low
    fields["eth.type"] = ETHERTYPE_IPV4
    fields["ipv4.src"] = ip_src
    fields["ipv4.dst"] = ip_dst
    fields["ipv4.proto"] = IP_PROTO_UDP
    fields["ipv4.ttl"] = ttl
    fields["ipv4.dscp"] = tos >> 2
    fields["ipv4.ecn"] = tos & 0x3
    fields["ipv4.len"] = total_length
    fields["ipv4.id"] = ident
    fields["udp.src_port"] = src_port
    fields["udp.dst_port"] = dst_port
    fields["udp.len"] = udp_len
    if opcode is not None:
        fields["kv.opcode"] = opcode
        fields["kv.tenant"] = tenant
        fields["kv.request_id"] = request_id
        if key is None:
            fields["kv.status"] = status
        else:
            fields["kv.key"] = key
    elif tag is not None:
        fields["rack.tag"] = tag
    fields["meta.payload"] = data[payload_at:end]
    return True


def default_parse_graph() -> ParseGraph:
    """Ethernet -> IPv4 -> {UDP -> KV, TCP, ESP} parse graph."""
    graph = ParseGraph(start="ethernet")
    for name, (extractor, transitions) in _STOCK_SPINE.items():
        graph.add_state(ParserState(name, extractor, transitions))
    graph.add_state(ParserState("tcp", extract_tcp, {None: ACCEPT}))
    graph.add_state(ParserState("esp", extract_esp, {None: ACCEPT}))
    return graph


# ----------------------------------------------------------------------
# Deparser
# ----------------------------------------------------------------------

#: Writable header fields: PHV name -> (byte offset, width) in an
#: Ethernet/IPv4/UDP frame, fixed since no IPv4 options parse.
#: ``ipv4.dscp`` and ``ipv4.ecn`` share the TOS byte.
HEADER_BYTES = {
    "eth.dst": (0, 6), "eth.src": (6, 6), "eth.type": (12, 2),
    "ipv4.dscp": (15, 1), "ipv4.ecn": (15, 1), "ipv4.len": (16, 2),
    "ipv4.id": (18, 2), "ipv4.ttl": (22, 1), "ipv4.proto": (23, 1),
    "ipv4.src": (26, 4), "ipv4.dst": (30, 4),
    "udp.src_port": (34, 2), "udp.dst_port": (36, 2), "udp.len": (38, 2),
}


def _udp_words(frame) -> int:
    """Sum of the UDP-checksummed words a header write can change: the
    pseudo-header's addresses, protocol and length, and the UDP header."""
    return (int.from_bytes(frame[26:40], "big") + frame[23]
            + ((frame[38] << 8) | frame[39]))


def deparse(data: bytes, fields: Dict[str, object]) -> bytes:
    """``data`` with the header fields in ``fields`` written back, its
    IPv4 and UDP checksums patched incrementally (RFC 1624) as a switch
    does: a valid checksum stays valid, a corrupt one corrupt, a zero UDP
    one zero (a TCP checksum is not patched).  ``data`` itself when no
    byte changed."""
    frame = bytearray(data)
    for name, (at, width) in HEADER_BYTES.items():
        if name in fields:
            frame[at:at + width] = fields[name].to_bytes(width, "big")
    if "ipv4.dscp" in fields:
        frame[15] = (fields["ipv4.dscp"] << 2) | fields["ipv4.ecn"]
    if frame == data:
        return data
    if "ipv4.ttl" in fields:
        checksum = (int.from_bytes(data[24:26], "big")
                    + int.from_bytes(data[14:34], "big")
                    - int.from_bytes(frame[14:34], "big")) % 0xFFFF
        frame[24:26] = checksum.to_bytes(2, "big")
    if "udp.len" in fields and (data[40] or data[41]):
        checksum = (int.from_bytes(data[40:42], "big") + _udp_words(data)
                    - _udp_words(frame)) % 0xFFFF
        frame[40:42] = (checksum or 0xFFFF).to_bytes(2, "big")
    return bytes(frame)
