"""The compression offload engine (LZ77, implemented from scratch).

Another offload the paper names as impossible in an RMT pipeline
(section 2.3.3: "RMT NICs cannot support compression").  The engine
compresses or decompresses the transport payload of a frame in place,
with a per-byte timing model.

Format: a 1-byte tag stream -- literal runs and back-references --
compact enough to show real ratios on text-like payloads while staying
dependency-free and exactly invertible (tests assert round trips).

Wire format of the compressed payload::

    magic "LZ1" + u32 original_length + token stream
    token 0x00 len  <bytes>      -- literal run (len 1..255)
    token 0x01 dist:u16 len:u8   -- back-reference (len 3..255)
"""

from __future__ import annotations

import struct
from typing import Dict, List

from repro.engines.base import Engine, EngineOutput
from repro.packet.builder import rewrite_udp_frame, split_udp_frame
from repro.packet.packet import Packet
from repro.sim.kernel import Simulator

MAGIC = b"LZ1"
_MIN_MATCH = 4
_MAX_MATCH = 255
_WINDOW = 4096

#: Service time: ``FIXED_CYCLES + CYCLES_PER_BYTE * frame bytes`` cycles.
FIXED_CYCLES = 24
CYCLES_PER_BYTE = 1.0


class CompressionError(RuntimeError):
    """Raised when decompressing malformed data."""


def compress(data: bytes) -> bytes:
    """LZ77-compress ``data`` (greedy hash-chain matcher)."""
    out = bytearray(MAGIC + struct.pack("!I", len(data)))
    table: Dict[bytes, int] = {}
    literals = bytearray()

    def flush_literals() -> None:
        start = 0
        while start < len(literals):
            run = literals[start : start + 255]
            out.append(0x00)
            out.append(len(run))
            out.extend(run)
            start += len(run)
        literals.clear()

    i = 0
    n = len(data)
    while i < n:
        match_len = 0
        match_dist = 0
        if i + _MIN_MATCH <= n:
            key = bytes(data[i : i + _MIN_MATCH])
            candidate = table.get(key)
            if candidate is not None and i - candidate <= _WINDOW:
                length = _MIN_MATCH
                limit = min(_MAX_MATCH, n - i)
                while (
                    length < limit
                    and data[candidate + length] == data[i + length]
                ):
                    length += 1
                match_len = length
                match_dist = i - candidate
            table[key] = i
        if match_len >= _MIN_MATCH:
            flush_literals()
            out.append(0x01)
            out.extend(struct.pack("!HB", match_dist, match_len))
            i += match_len
        else:
            literals.append(data[i])
            i += 1
    flush_literals()
    return bytes(out)


def decompress(blob: bytes) -> bytes:
    """Invert :func:`compress`; validates magic, length and references."""
    if len(blob) < len(MAGIC) + 4 or blob[: len(MAGIC)] != MAGIC:
        raise CompressionError("bad compression magic")
    (expected_len,) = struct.unpack("!I", blob[3:7])
    out = bytearray()
    i = 7
    n = len(blob)
    while i < n:
        token = blob[i]
        i += 1
        if token == 0x00:
            if i >= n:
                raise CompressionError("truncated literal token")
            run_len = blob[i]
            i += 1
            if run_len == 0 or i + run_len > n:
                raise CompressionError("bad literal run")
            out.extend(blob[i : i + run_len])
            i += run_len
        elif token == 0x01:
            if i + 3 > n:
                raise CompressionError("truncated match token")
            dist, length = struct.unpack("!HB", blob[i : i + 3])
            i += 3
            if dist == 0 or dist > len(out):
                raise CompressionError(f"bad match distance {dist}")
            for _ in range(length):
                out.append(out[-dist])
        else:
            raise CompressionError(f"unknown token {token:#x}")
    if len(out) != expected_len:
        raise CompressionError(
            f"decompressed {len(out)} bytes, expected {expected_len}"
        )
    return bytes(out)


class CompressionEngine(Engine):
    """Compress/decompress UDP payloads as a chain offload.

    Mode is chosen per packet: ``meta.annotations['compress']`` requests
    compression; payloads that already carry the magic are decompressed;
    anything else passes through.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        **engine_kwargs,
    ):
        super().__init__(sim, name, **engine_kwargs)
        self.compressed = 0
        self.decompressed = 0
        self.bytes_saved = 0

    def service_time_ps(self, packet: Packet) -> int:
        cycles = FIXED_CYCLES + CYCLES_PER_BYTE * packet.frame_bytes
        return self.clock.cycles_to_ps(cycles)

    def handle(self, packet: Packet) -> List[EngineOutput]:
        split = split_udp_frame(packet.data)
        if split is None:
            return [(packet, None)]
        record, payload = split
        if packet.meta.peek("compress"):
            del packet.meta.annotations["compress"]
            new_payload = compress(payload)
            if len(new_payload) >= len(payload):
                # Incompressible: send as-is (the tag's absence says so).
                return [(packet, None)]
            self.compressed += 1
            self.bytes_saved += len(payload) - len(new_payload)
        elif payload.startswith(MAGIC):
            new_payload = decompress(payload)
            self.decompressed += 1
        else:
            return [(packet, None)]
        return [(packet.rewritten(rewrite_udp_frame(record, new_payload)),
                 None)]
