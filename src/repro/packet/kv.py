"""The key-value application protocol for the paper's running example.

Section 2.2 / 3.2 motivate PANIC with a geodistributed multi-tenant
key-value store (DynamoDB-style).  This module defines a compact binary
GET/SET/DELETE protocol carried over UDP, parsed both by the host software
model and by the on-NIC KV-cache engine.

Request wire layout (big endian)::

    opcode:u8  tenant:u16  request_id:u32  key_len:u16  value_len:u32
    key bytes  value bytes

Response wire layout::

    opcode:u8  status:u8  tenant:u16  request_id:u32  value_len:u32
    value bytes
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Tuple

from repro.packet.headers import HeaderError

#: Well-known UDP port the KVS listens on.
KV_UDP_PORT = 11211


class KvOpcode(enum.IntEnum):
    GET = 1
    SET = 2
    DELETE = 3
    RESPONSE = 0x80


class KvStatus(enum.IntEnum):
    OK = 0
    NOT_FOUND = 1
    ERROR = 2


def _wire_enum(kind, value: int):
    """``kind(value)``, with a byte no member claims reported as the
    malformed header it is (a bare ``ValueError`` would escape every
    ``except HeaderError`` on the parse path and abort the simulation)."""
    try:
        return kind(value)
    except ValueError:
        raise HeaderError(
            f"{value} is not a valid {kind.__name__}") from None


@dataclass
class KvRequest:
    """A client request (GET / SET / DELETE)."""

    opcode: KvOpcode
    tenant: int
    request_id: int
    key: bytes
    value: bytes = b""

    HEADER_FMT = "!BHIHI"
    HEADER_LEN = struct.calcsize(HEADER_FMT)

    def __post_init__(self) -> None:
        self.opcode = _wire_enum(KvOpcode, self.opcode)
        if self.opcode == KvOpcode.RESPONSE:
            raise HeaderError("KvRequest cannot carry the RESPONSE opcode")
        if not 0 <= self.tenant <= 0xFFFF:
            raise HeaderError(f"tenant id out of range: {self.tenant}")
        if not 0 <= self.request_id < 1 << 32:
            raise HeaderError(f"request id out of range: {self.request_id}")
        if len(self.key) > 0xFFFF:
            raise HeaderError(f"key too long: {len(self.key)} bytes")
        if self.opcode != KvOpcode.SET and self.value:
            raise HeaderError(f"{self.opcode.name} request cannot carry a value")

    def pack(self) -> bytes:
        head = struct.pack(
            self.HEADER_FMT,
            int(self.opcode),
            self.tenant,
            self.request_id,
            len(self.key),
            len(self.value),
        )
        return head + self.key + self.value

    @classmethod
    def unpack(cls, data: bytes) -> Tuple["KvRequest", bytes]:
        if len(data) < cls.HEADER_LEN:
            raise HeaderError(f"truncated KV request: {len(data)} bytes")
        opcode, tenant, request_id, key_len, value_len = struct.unpack(
            cls.HEADER_FMT, data[: cls.HEADER_LEN]
        )
        end = cls.HEADER_LEN + key_len + value_len
        if len(data) < end:
            raise HeaderError("truncated KV request body")
        key = data[cls.HEADER_LEN : cls.HEADER_LEN + key_len]
        value = data[cls.HEADER_LEN + key_len : end]
        return cls(opcode, tenant, request_id, key, value), data[end:]


@dataclass
class KvResponse:
    """A server (or on-NIC cache) response."""

    status: KvStatus
    tenant: int
    request_id: int
    value: bytes = b""

    HEADER_FMT = "!BBHII"
    HEADER_LEN = struct.calcsize(HEADER_FMT)

    def __post_init__(self) -> None:
        self.status = _wire_enum(KvStatus, self.status)
        if not 0 <= self.tenant <= 0xFFFF:
            raise HeaderError(f"tenant id out of range: {self.tenant}")
        if not 0 <= self.request_id < 1 << 32:
            raise HeaderError(f"request id out of range: {self.request_id}")

    def pack(self) -> bytes:
        head = struct.pack(
            self.HEADER_FMT,
            int(KvOpcode.RESPONSE),
            int(self.status),
            self.tenant,
            self.request_id,
            len(self.value),
        )
        return head + self.value

    @classmethod
    def unpack(cls, data: bytes) -> Tuple["KvResponse", bytes]:
        if len(data) < cls.HEADER_LEN:
            raise HeaderError(f"truncated KV response: {len(data)} bytes")
        opcode, status, tenant, request_id, value_len = struct.unpack(
            cls.HEADER_FMT, data[: cls.HEADER_LEN]
        )
        if opcode != KvOpcode.RESPONSE:
            raise HeaderError(f"not a KV response (opcode {opcode})")
        end = cls.HEADER_LEN + value_len
        if len(data) < end:
            raise HeaderError("truncated KV response body")
        value = data[cls.HEADER_LEN : end]
        return cls(status, tenant, request_id, value), data[end:]
