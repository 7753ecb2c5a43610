"""The programmable packet parser (parse graph).

An RMT parser is a finite state machine: each state extracts one header,
writes its fields into the PHV, and selects the next state from a PHV
field it just extracted (EtherType, IP protocol, UDP port...).  This module
implements that model and ships the default parse graph used by the PANIC
reference program: Ethernet -> IPv4 -> {UDP -> {KV | rack_tag} | TCP | ESP}.

Every graph, the default one or a hand-built one, runs the same walk.
The extractors of the default graph's UDP spine read their fields in
place with ``unpack_from`` and write the PHV's field store directly, so
no header, address or KV message object is built per frame.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.packet.headers import (
    ETHERTYPE_IPV4,
    IP_PROTO_ESP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    RACK_TAG_BYTES,
    RACK_TAG_UDP_PORT,
    EspHeader,
    HeaderError,
    TcpHeader,
)
from repro.packet.kv import (
    KV_UDP_PORT, KvOpcode, KvRequest, KvResponse, KvStatus)
from repro.rmt.phv import Phv

#: An extraction function: consumes bytes, writes PHV fields, returns the
#: remaining bytes and the value used for next-state selection (or None).
Extractor = Callable[[bytes, Phv], Tuple[bytes, Optional[int]]]

#: Terminal pseudo-state.
ACCEPT = "accept"


@dataclass(frozen=True)
class ParserState:
    """One node of the parse graph.  To reprogram a parser, build
    another graph."""

    name: str
    extractor: Extractor
    #: Map from select value to next state name; ``None`` key is default.
    transitions: Mapping[Optional[int], str] = field(default_factory=dict)


class ParseGraph:
    """A programmable parser: a named set of states plus a start state."""

    def __init__(self, start: str):
        self._start = start
        self._states: Dict[str, ParserState] = {}

    def add_state(self, state: ParserState) -> "ParseGraph":
        if state.name in self._states:
            raise ValueError(f"duplicate parser state {state.name!r}")
        self._states[state.name] = state
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
        states = self._states
        state_name = self._start
        remaining = data
        steps = 0
        while state_name != ACCEPT:
            # A walk of at most 8 states cannot exceed the bound, so the
            # common case pays no ``len`` call for it.
            if steps > 8 and steps > len(states) + 8:
                raise RuntimeError("parse graph did not terminate (cycle?)")
            steps += 1
            try:
                state = states[state_name]
            except KeyError:
                raise ValueError(f"parse graph references unknown state "
                                 f"{state_name!r}") from None
            try:
                remaining, select = state.extractor(remaining, phv)
            except HeaderError:
                phv.set("meta.parse_error", 1)
                phv.set("meta.parse_error_state", state_name.encode())
                break
            transitions = state.transitions
            if select in transitions:
                state_name = transitions[select]
            elif None in transitions:
                state_name = transitions[None]
            else:
                state_name = ACCEPT
        phv._fields["meta.payload"] = remaining
        return phv


# ----------------------------------------------------------------------
# Default extractors
# ----------------------------------------------------------------------
#
# The spine's extractors write the field store directly: every value is
# an int (or, for ``kv.key``, bytes) by construction, so Phv.set's type
# check adds nothing.  A short header surfaces as ``struct.error`` from
# ``unpack_from`` and is re-raised as the HeaderError the header classes
# raise, so the common case pays no ``len`` call.

#: MACs as 16 + 32 bit halves, then the EtherType.
_ETHERNET = struct.Struct("!HIHIH")
#: An option-less IPv4 header, less flags/fragment and checksum.
_IPV4 = struct.Struct("!BBHH2xBB2xII")
#: Ports and length; the checksum is skipped but must be present.
_UDP = struct.Struct("!HHH2x")
_KV_REQUEST = struct.Struct(KvRequest.HEADER_FMT)
_KV_RESPONSE = struct.Struct(KvResponse.HEADER_FMT)
_KV_RESPONSE_OPCODE = int(KvOpcode.RESPONSE)
_KV_SET_OPCODE = int(KvOpcode.SET)
_KV_REQUEST_OPCODES = frozenset(
    int(op) for op in KvOpcode if op != KvOpcode.RESPONSE)
_KV_STATUSES = frozenset(int(status) for status in KvStatus)


def extract_ethernet(data: bytes, phv: Phv) -> Tuple[bytes, Optional[int]]:
    try:
        dst_high, dst_low, src_high, src_low, ethertype = (
            _ETHERNET.unpack_from(data))
    except struct.error:
        raise HeaderError(
            f"truncated Ethernet header: {len(data)} bytes") from None
    fields = phv._fields
    fields["eth.dst"] = dst_high << 32 | dst_low
    fields["eth.src"] = src_high << 32 | src_low
    fields["eth.type"] = ethertype
    return data[14:], ethertype


def extract_ipv4(data: bytes, phv: Phv) -> Tuple[bytes, Optional[int]]:
    try:
        version_ihl, tos, total_length, ident, ttl, protocol, src, dst = (
            _IPV4.unpack_from(data))
    except struct.error:
        raise HeaderError(
            f"truncated IPv4 header: {len(data)} bytes") from None
    if version_ihl != 0x45:
        if version_ihl >> 4 != 4:
            raise HeaderError(
                f"not an IPv4 packet (version {version_ihl >> 4})")
        raise HeaderError(f"IPv4 options unsupported (IHL {version_ihl & 0xF})")
    if total_length < 20:
        raise HeaderError(f"total_length out of range: {total_length}")
    fields = phv._fields
    fields["ipv4.src"] = src
    fields["ipv4.dst"] = dst
    fields["ipv4.proto"] = protocol
    fields["ipv4.ttl"] = ttl
    fields["ipv4.dscp"] = tos >> 2
    fields["ipv4.ecn"] = tos & 0x3
    fields["ipv4.len"] = total_length
    fields["ipv4.id"] = ident
    # Trim MAC padding using the IP length, like a real deparser would; a
    # length past the frame's end keeps everything there is.
    return data[20:total_length], protocol


def extract_udp(data: bytes, phv: Phv) -> Tuple[bytes, Optional[int]]:
    try:
        src_port, dst_port, length = _UDP.unpack_from(data)
    except struct.error:
        raise HeaderError(f"truncated UDP header: {len(data)} bytes") from None
    if length < 8:
        raise HeaderError(f"UDP length out of range: {length}")
    fields = phv._fields
    fields["udp.src_port"] = src_port
    fields["udp.dst_port"] = dst_port
    fields["udp.len"] = length
    if src_port == KV_UDP_PORT or dst_port == KV_UDP_PORT:
        select = KV_UDP_PORT
    elif dst_port == RACK_TAG_UDP_PORT:
        select = RACK_TAG_UDP_PORT
    else:
        select = 0
    return data[8:], select


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
    """Extract the KV opcode/tenant/key without copying the value.

    ``kv.opcode`` is written before the message is validated, so a
    malformed body leaves it beside ``meta.parse_error``."""
    if not data:
        raise HeaderError("empty KV payload")
    fields = phv._fields
    opcode = fields["kv.opcode"] = data[0]
    if opcode == _KV_RESPONSE_OPCODE:
        try:
            _, status, tenant, request_id, value_len = (
                _KV_RESPONSE.unpack_from(data))
        except struct.error:
            raise HeaderError(
                f"truncated KV response: {len(data)} bytes") from None
        end = KvResponse.HEADER_LEN + value_len
        if len(data) < end:
            raise HeaderError("truncated KV response body")
        if status not in _KV_STATUSES:
            raise HeaderError(f"{status} is not a valid KvStatus")
        fields["kv.tenant"] = tenant
        fields["kv.request_id"] = request_id
        fields["kv.status"] = status
        return data[end:], None
    try:
        _, tenant, request_id, key_len, value_len = (
            _KV_REQUEST.unpack_from(data))
    except struct.error:
        raise HeaderError(f"truncated KV request: {len(data)} bytes") from None
    key_end = KvRequest.HEADER_LEN + key_len
    end = key_end + value_len
    if len(data) < end:
        raise HeaderError("truncated KV request body")
    if opcode not in _KV_REQUEST_OPCODES:
        raise HeaderError(f"{opcode} is not a valid KvOpcode")
    if value_len and opcode != _KV_SET_OPCODE:
        raise HeaderError(
            f"{KvOpcode(opcode).name} request cannot carry a value")
    fields["kv.tenant"] = tenant
    fields["kv.request_id"] = request_id
    fields["kv.key"] = data[KvRequest.HEADER_LEN:key_end]
    return data[end:], None


def default_parse_graph() -> ParseGraph:
    """Ethernet -> IPv4 -> {UDP -> {KV, rack_tag}, TCP, ESP} parse graph."""
    graph = ParseGraph(start="ethernet")
    graph.add_state(ParserState(
        "ethernet", extract_ethernet, {ETHERTYPE_IPV4: "ipv4", None: ACCEPT}))
    graph.add_state(ParserState(
        "ipv4", extract_ipv4, {IP_PROTO_UDP: "udp", IP_PROTO_TCP: "tcp",
                               IP_PROTO_ESP: "esp", None: ACCEPT}))
    graph.add_state(ParserState(
        "udp", extract_udp, {KV_UDP_PORT: "kv", RACK_TAG_UDP_PORT: "rack_tag",
                             None: ACCEPT}))
    graph.add_state(ParserState("kv", extract_kv, {None: ACCEPT}))
    graph.add_state(ParserState("rack_tag", extract_rack_tag, {None: ACCEPT}))
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
