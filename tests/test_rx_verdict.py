"""One RX verdict: the checksum tile and the RMT tile's drop point agree.

``repro.packet.builder.checksum_verdict`` is the one reading of the
integrity checks a received frame carries: ``None`` when there is
nothing to verify, else whether they hold.  The checksum tile annotates
it (``csum_ok``; no annotation for ``None``) and the RMT tile's
``verify_checksums`` drop calls it through ``frame_checksums_ok``, which
fails a frame exactly when the verdict is ``False``.  These tests hold
the two to one answer over generated single-bit flips and length lies,
and catch every UDP-length bit flip of a rack frame: a UDP length
outside [8, the IPv4 payload], or a UDP datagram whose ``total_length``
runs past the bytes present, fails.
"""

import random
import struct

from repro.core import PanicConfig, PanicNic
from repro.engines import ChecksumEngine
from repro.packet import (
    KvOpcode,
    KvRequest,
    Packet,
    build_kv_request_frame,
    build_udp_frame,
)
from repro.packet.builder import frame_checksums_ok
from repro.packet.checksum import internet_checksum
from repro.packet.headers import RACK_TAG_UDP_PORT
from repro.sim import Simulator


def rack_frame(ecn: int = 0) -> bytes:
    """A 288-byte tagged rack frame: flow tag, sequence number, source
    and zero pad, as ``RackNode.frame`` builds them."""
    payload = (b"\x00\x21" + (5).to_bytes(8, "big") + b"\x00\x03"
               + bytes(234))
    return build_udp_frame(
        src_mac="02:00:00:00:00:04", dst_mac="02:00:00:00:00:02",
        src_ip="10.0.3.1", dst_ip="10.0.1.1", src_port=40003,
        dst_port=RACK_TAG_UDP_PORT, payload=payload, ecn=ecn,
        identification=5)


def _with_ip_checksum(frame: bytearray) -> bytes:
    """``frame`` with its IPv4 header checksum made valid again, so a
    length lie reaches the rules behind it."""
    frame[24:26] = b"\x00\x00"
    frame[24:26] = struct.pack("!H", internet_checksum(bytes(frame[14:34])))
    return bytes(frame)


def seed_frames():
    odd = build_udp_frame(
        src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1, dst_port=9000,
        payload=bytes(range(21)), dscp=46, ecn=2, ttl=7)
    unchecked = bytearray(odd)
    unchecked[40:42] = b"\x00\x00"          # the sender opted out
    not_udp = bytearray(odd)
    not_udp[23] = 6
    return [rack_frame(), odd, bytes(unchecked), _with_ip_checksum(not_udp),
            build_kv_request_frame(
                KvRequest(KvOpcode.GET, 3, 99, b"user:42")).data]


def single_bit_flips(frame: bytes, rng: random.Random, extra: int):
    """Every bit of the 42 header bytes flipped, then ``extra`` random
    bits anywhere."""
    positions = [(i, b) for i in range(42) for b in range(8)]
    positions += [(rng.randrange(len(frame)), rng.randrange(8))
                  for _ in range(extra)]
    for index, bit in positions:
        flipped = bytearray(frame)
        flipped[index] ^= 1 << bit
        yield bytes(flipped)


def length_lies(frame: bytes):
    """``total_length`` and UDP length set to values around the truth
    (the IPv4 checksum kept valid), and the frame cut short or padded."""
    size = len(frame)
    total = size - 14
    for value in (0, 19, 20, 27, 28, total - 1, total + 1, total + 8,
                  0xFFFF):
        lie = bytearray(frame)
        lie[16:18] = struct.pack("!H", value)
        yield _with_ip_checksum(lie)
    for value in (0, 7, 8, total - 21, total - 20, total - 19, 0xFFFF):
        lie = bytearray(frame)
        lie[38:40] = struct.pack("!H", value)
        yield bytes(lie)
    for cut in (14, 33, 34, 41, 42, size - 1):
        yield frame[:cut]
    yield frame + bytes(22)                 # MAC padding: still valid


def tile_verdict(tile: ChecksumEngine, frame: bytes):
    """What the checksum tile annotates on an RX frame (None: nothing)."""
    packet = Packet(frame)
    [(out, _dest)] = tile.handle(packet)
    return out.meta.peek("csum_ok")


def test_the_tile_and_the_drop_point_give_one_verdict():
    tile = ChecksumEngine(Simulator(), "csum")
    rng = random.Random(54)
    seen = {True: 0, False: 0, None: 0}
    for seed in seed_frames():
        for frame in [*single_bit_flips(seed, rng, 64), *length_lies(seed)]:
            verdict = tile_verdict(tile, frame)
            assert frame_checksums_ok(frame) is (verdict is not False), (
                frame.hex())
            seen[verdict] += 1
    assert min(seen.values()) > 50, seen


def test_no_udp_length_bit_flip_of_a_rack_frame_passes():
    frame = rack_frame()
    assert len(frame) == 288
    tile = ChecksumEngine(Simulator(), "csum")
    for index in (38, 39):
        for bit in range(8):
            flipped = bytearray(frame)
            flipped[index] ^= 1 << bit
            assert not frame_checksums_ok(bytes(flipped)), (index, bit)
            assert tile_verdict(tile, bytes(flipped)) is False, (index, bit)


def test_the_nic_drops_exactly_what_the_tile_finds_broken():
    """The RMT tile's ``verify_checksums`` drop, on a NIC: every frame
    whose tile verdict is False is counted in ``corrupt_drops``, every
    other one reaches the host."""
    tile = ChecksumEngine(Simulator(), "csum")
    frames = [*length_lies(rack_frame()),
              *single_bit_flips(rack_frame(), random.Random(1), 0)][::7]
    broken = sum(tile_verdict(tile, frame) is False for frame in frames)
    assert 0 < broken < len(frames)
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1, verify_checksums=True))
    delivered = []
    nic.host.software_handler = lambda packet, _q: delivered.append(packet)
    for frame in frames:
        nic.inject(Packet(frame))
    sim.run()
    assert nic.corrupt_drops == broken
    assert len(delivered) + nic.corrupt_drops + nic.rmt_drops == len(frames)
