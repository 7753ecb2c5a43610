"""MAC and IPv4 address value types.

Implemented from scratch (no ``ipaddress`` import) so the wire encoding is
explicit and the types stay tiny, hashable and cheap to compare -- they are
used as match keys in RMT tables.
"""

from __future__ import annotations

import re
from typing import Union


class MacAddress:
    """A 48-bit Ethernet MAC address."""

    __slots__ = ("value",)

    _STR_RE = re.compile(r"^([0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}$")

    def __init__(self, value: Union[int, str, bytes, "MacAddress"]):
        if isinstance(value, MacAddress):
            self.value = value.value
        elif isinstance(value, int):
            if not 0 <= value < 1 << 48:
                raise ValueError(f"MAC address out of range: {value:#x}")
            self.value = value
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 6:
                raise ValueError(f"MAC address needs 6 bytes, got {len(value)}")
            self.value = int.from_bytes(value, "big")
        elif isinstance(value, str):
            if not self._STR_RE.match(value):
                raise ValueError(f"malformed MAC address string: {value!r}")
            self.value = int(value.replace(":", ""), 16)
        else:
            raise TypeError(f"cannot build MacAddress from {type(value).__name__}")

    @classmethod
    def from_wire(cls, raw: bytes) -> "MacAddress":
        """Length-checked wire bytes -> address, skipping re-validation.

        For parsers that have already sliced exactly 6 bytes; a 6-byte
        big-endian integer cannot be out of range.
        """
        self = object.__new__(cls)
        self.value = int.from_bytes(raw, "big")
        return self

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(6, "big")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MacAddress) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("mac", self.value))

    def __str__(self) -> str:
        raw = f"{self.value:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"


class IPv4Address:
    """A 32-bit IPv4 address."""

    __slots__ = ("value",)

    def __init__(self, value: Union[int, str, bytes, "IPv4Address"]):
        if isinstance(value, IPv4Address):
            self.value = value.value
        elif isinstance(value, int):
            if not 0 <= value < 1 << 32:
                raise ValueError(f"IPv4 address out of range: {value:#x}")
            self.value = value
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 4:
                raise ValueError(f"IPv4 address needs 4 bytes, got {len(value)}")
            self.value = int.from_bytes(value, "big")
        elif isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise ValueError(f"malformed IPv4 address string: {value!r}")
            acc = 0
            for part in parts:
                if not part.isdigit():
                    raise ValueError(f"malformed IPv4 address string: {value!r}")
                octet = int(part)
                if octet > 255:
                    raise ValueError(f"IPv4 octet out of range in {value!r}")
                acc = (acc << 8) | octet
            self.value = acc
        else:
            raise TypeError(f"cannot build IPv4Address from {type(value).__name__}")

    @classmethod
    def from_wire(cls, raw: bytes) -> "IPv4Address":
        """Length-checked wire bytes -> address, skipping re-validation.

        For parsers that have already sliced exactly 4 bytes; a 4-byte
        big-endian integer cannot be out of range.
        """
        self = object.__new__(cls)
        self.value = int.from_bytes(raw, "big")
        return self

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(4, "big")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IPv4Address) and self.value == other.value

    def __lt__(self, other: "IPv4Address") -> bool:
        return self.value < other.value

    def __hash__(self) -> int:
        return hash(("ipv4", self.value))

    def __str__(self) -> str:
        return ".".join(str((self.value >> shift) & 0xFF) for shift in (24, 16, 8, 0))

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"
