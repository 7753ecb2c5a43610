"""The tiles that rewrite a frame keep every header field they do not own.

The checksum tile's TX path and the compression tile (both directions)
rebuild a UDP frame through ``repro.packet.builder.rewrite_udp_frame``;
the ECN marker and the checksum tile's non-UDP TX path patch the IPv4
header through ``set_ipv4_ecn``.  Over generated frames -- every DSCP
class, all four ECN codepoints, TTLs and identifications, and flags
words other than DF -- a rebuild keeps every field but the lengths, the
checksums and the flags word (always DF, as ``build_udp_frame`` writes
it), and a mark changes the ECN bits and the IPv4 checksum only.
"""

import random
import struct
from types import SimpleNamespace

import pytest

from repro.engines import ChecksumEngine, CompressionEngine, EcnMarkerEngine
from repro.engines.compression import MAGIC
from repro.packet import Packet, build_udp_frame, parse_frame
from repro.packet.builder import frame_checksums_ok
from repro.packet.checksum import internet_checksum
from repro.packet.packet import Direction
from repro.sim import Simulator

ECN_CE = 3
DF = 0x4000


def _with_flags(frame: bytes, flags: int) -> bytes:
    """``frame`` with another IPv4 flags word, its checksum kept valid."""
    out = bytearray(frame)
    out[20:22] = struct.pack("!H", flags)
    out[24:26] = b"\x00\x00"
    out[24:26] = struct.pack("!H", internet_checksum(bytes(out[14:34])))
    return bytes(out)


def generated_frames(count: int = 96):
    """Seeded UDP frames over DSCP, ECN, TTL and identification, each
    ECN codepoint equally often, some with a flags word other than DF;
    their payloads compress."""
    rng = random.Random(0xEC7)
    for index in range(count):
        frame = build_udp_frame(
            src_mac=rng.getrandbits(48), dst_mac=rng.getrandbits(48),
            src_ip=rng.getrandbits(32), dst_ip=rng.getrandbits(32),
            src_port=rng.randrange(0x10000), dst_port=rng.randrange(0x10000),
            payload=bytes([rng.randrange(256)]) * rng.randrange(40, 400),
            dscp=rng.randrange(64), ecn=index % 4, ttl=rng.randrange(256),
            identification=rng.randrange(0x10000))
        flags = rng.choice((DF, DF, 0x0000, 0x2000, 0x6000))
        yield frame if flags == DF else _with_flags(frame, flags)


def kept(frame: bytes):
    """Every header field but lengths, checksums and the flags word,
    with the UDP payload."""
    parsed = parse_frame(frame)
    ipv4, udp = parsed.ipv4, parsed.udp
    return (parsed.eth, ipv4.src, ipv4.dst, ipv4.protocol, ipv4.ttl,
            ipv4.dscp, ipv4.ecn, ipv4.identification, udp.src_port,
            udp.dst_port, parsed.payload)


def _handle(tile, packet) -> bytes:
    [(out, _dest)] = tile.handle(packet)
    assert out is not packet, "the tile passed the frame through"
    return out.data


def _assert_rebuilt(before: bytes, after: bytes) -> None:
    assert kept(after)[:-1] == kept(before)[:-1]
    assert parse_frame(after).ipv4.flags_fragment == DF
    assert frame_checksums_ok(after)


@pytest.fixture
def sim():
    return Simulator()


def test_checksum_tx_keeps_every_field(sim):
    tile = ChecksumEngine(sim, "csum")
    for frame in generated_frames():
        packet = Packet(frame)
        packet.meta.direction = Direction.TX
        out = _handle(tile, packet)
        _assert_rebuilt(frame, out)
        assert kept(out) == kept(frame)


def test_checksum_tx_of_a_non_udp_frame_patches_the_ipv4_checksum_only(sim):
    tile = ChecksumEngine(sim, "csum")
    for frame in generated_frames(16):
        other = bytearray(frame)
        other[23] = 6                            # TCP, say
        other[24:26] = b"\x00\x00"               # the checksum to fill in
        packet = Packet(bytes(other))
        packet.meta.direction = Direction.TX
        out = _handle(tile, packet)
        assert out[:24] == bytes(other[:24]) and out[26:] == bytes(other[26:])
        assert internet_checksum(out[14:34]) == 0


def test_compression_keeps_every_field_both_ways(sim):
    tile = CompressionEngine(sim, "z")
    for frame in generated_frames():
        packet = Packet(frame)
        packet.meta.annotations["compress"] = True
        packed = _handle(tile, packet)
        _assert_rebuilt(frame, packed)
        assert parse_frame(packed).payload.startswith(MAGIC)
        unpacked = _handle(tile, Packet(packed))
        _assert_rebuilt(frame, unpacked)
        assert kept(unpacked) == kept(frame)
    assert tile.compressed == tile.decompressed == 96


def test_the_marker_changes_ecn_and_the_ipv4_checksum_only(sim):
    marker = EcnMarkerEngine(sim, "mark", k_min=0, k_max=1, p_max=1.0)
    marker.watch_engine = SimpleNamespace(backlog=5)   # always marks
    for frame in generated_frames():
        [(out, _dest)] = marker.handle(Packet(frame))
        if frame[15] & 3 in (1, 2):              # ECT(1), ECT(0)
            marked = out.data
            assert marked[15] == (frame[15] & 0xFC) | ECN_CE
            assert marked[:15] == frame[:15]
            assert marked[16:24] == frame[16:24]
            assert marked[26:] == frame[26:]
            assert frame_checksums_ok(marked)
        else:
            assert out.data is frame
    assert marker.marked == marker.eligible == 48
