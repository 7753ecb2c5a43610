"""PANIC's lightweight on-chip message header (chain + slack).

Section 3.1.2 of the paper: when the heavyweight RMT pipeline processes a
message it computes the full *chain* of engine destinations and prepends it
as "a lightweight message header"; each engine's local lookup logic then
pops the next hop without another heavyweight traversal.  Section 3.1.3:
the pipeline also computes a per-engine *slack time* carried in the same
header, which orders the per-engine priority queues.

Wire layout (big endian)::

    0      2      3      4       8        16
    +------+------+------+-------+--------+----------------~~~+
    | magic| flags| hops | cursor| slack  | hop entries ...   |
    +------+------+------+-------+--------+----------------~~~+

    magic   : u16, 0xA21C ("PANIC")
    flags   : u8  (bit0 = needs second RMT pass, bit1 = droppable/lossy)
    hops    : u8  number of chain entries
    cursor  : u32 index of the next un-visited entry
    slack   : u64 absolute deadline in picoseconds (scheduler rank)
    entries : hops * u16 engine addresses
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.packet.headers import HeaderError

PANIC_MAGIC = 0xA21C

FLAG_NEEDS_RMT = 0x01
FLAG_DROPPABLE = 0x02


@dataclass
class PanicHeader:
    """The parsed form of PANIC's internal chain header."""

    chain: List[int] = field(default_factory=list)
    cursor: int = 0
    slack_ps: int = 0
    needs_rmt: bool = False
    droppable: bool = False

    FIXED_LENGTH = 16
    MAX_HOPS = 255

    def __post_init__(self) -> None:
        if len(self.chain) > self.MAX_HOPS:
            raise HeaderError(f"chain too long: {len(self.chain)} hops")
        for address in self.chain:
            if not 0 <= address <= 0xFFFF:
                raise HeaderError(f"engine address out of range: {address}")
        if not 0 <= self.cursor <= len(self.chain):
            raise HeaderError(
                f"cursor {self.cursor} outside chain of {len(self.chain)} hops"
            )
        if self.slack_ps < 0:
            raise HeaderError(f"negative slack: {self.slack_ps}")

    # ------------------------------------------------------------------
    # Chain traversal
    # ------------------------------------------------------------------

    @property
    def length(self) -> int:
        """Serialized length in bytes."""
        return self.FIXED_LENGTH + 2 * len(self.chain)

    @property
    def exhausted(self) -> bool:
        """True when every hop in the chain has been visited."""
        return self.cursor >= len(self.chain)

    def remaining(self) -> List[int]:
        """Engine addresses not yet visited."""
        return list(self.chain[self.cursor :])

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def pack(self) -> bytes:
        flags = (FLAG_NEEDS_RMT if self.needs_rmt else 0) | (
            FLAG_DROPPABLE if self.droppable else 0
        )
        head = struct.pack(
            "!HBBIQ",
            PANIC_MAGIC,
            flags,
            len(self.chain),
            self.cursor,
            self.slack_ps,
        )
        entries = struct.pack(f"!{len(self.chain)}H", *self.chain) if self.chain else b""
        return head + entries

    @classmethod
    def unpack(cls, data: bytes) -> Tuple["PanicHeader", bytes]:
        if len(data) < cls.FIXED_LENGTH:
            raise HeaderError(f"truncated PANIC header: {len(data)} bytes")
        magic, flags, hops, cursor, slack = struct.unpack(
            "!HBBIQ", data[: cls.FIXED_LENGTH]
        )
        if magic != PANIC_MAGIC:
            raise HeaderError(f"bad PANIC magic: {magic:#06x}")
        need = cls.FIXED_LENGTH + 2 * hops
        if len(data) < need:
            raise HeaderError("truncated PANIC chain entries")
        chain = list(struct.unpack(f"!{hops}H", data[cls.FIXED_LENGTH : need])) if hops else []
        header = cls(
            chain=chain,
            cursor=cursor,
            slack_ps=slack,
            needs_rmt=bool(flags & FLAG_NEEDS_RMT),
            droppable=bool(flags & FLAG_DROPPABLE),
        )
        return header, data[need:]

    def copy(self) -> "PanicHeader":
        # The source header already passed __post_init__ validation and
        # every field is copied verbatim, so skip re-validating.
        clone = object.__new__(PanicHeader)
        clone.chain = list(self.chain)
        clone.cursor = self.cursor
        clone.slack_ps = self.slack_ps
        clone.needs_rmt = self.needs_rmt
        clone.droppable = self.droppable
        return clone
