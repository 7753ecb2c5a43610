"""Checksum algorithms used by the protocol stack.

``internet_checksum`` is the RFC 1071 ones'-complement sum used by IPv4,
UDP and TCP.  ``crc32`` is the IEEE 802.3 CRC used for Ethernet FCS and as
the integrity check of the simulated checksum-offload engine.
"""

from __future__ import annotations

import zlib


def internet_checksum(data: bytes) -> int:
    """RFC 1071 16-bit ones'-complement checksum of ``data``.

    Odd-length input is implicitly padded with a zero byte, per the RFC.
    Returns the checksum as an integer in [0, 0xFFFF] ready to be stored in
    a header (i.e. already complemented).

    The word sum is computed as the big-endian integer value of the data
    reduced mod ``0xFFFF`` (powers of 2**16 are all congruent to 1), which
    keeps the whole computation in C instead of a per-word Python loop.
    The carry-fold of a nonzero sum never yields 0, so a zero residue from
    nonzero data folds to ``0xFFFF``.
    """
    if len(data) % 2:
        data += b"\x00"
    value = int.from_bytes(data, "big")
    if value == 0:
        return 0xFFFF
    folded = value % 0xFFFF
    if folded == 0:
        folded = 0xFFFF
    return ~folded & 0xFFFF


def verify_internet_checksum(data: bytes) -> bool:
    """True when ``data`` (with its checksum field in place) sums to zero."""
    if len(data) % 2:
        data += b"\x00"
    value = int.from_bytes(data, "big")
    # Folded sum == 0xFFFF iff the word sum is a nonzero multiple of 0xFFFF.
    return value != 0 and value % 0xFFFF == 0


def crc32(data: bytes) -> int:
    """IEEE 802.3 CRC-32 (the same polynomial as Ethernet FCS / zlib)."""
    return zlib.crc32(data)
