"""The IPSec (ESP) offload engine.

The paper's canonical example of an offload that *cannot* live in an RMT
pipeline (section 2.3.3: "it is not possible to perform IPSec offloading
with an RMT pipeline") because it must touch every payload byte and take
variable time.  Here it is a self-contained engine: real ESP tunnel-mode
encapsulation with an XOR keystream cipher (SHA-256 counter mode) and a
CRC-32 integrity check, plus a per-byte timing model.

The cipher is intentionally *not* cryptographically serious -- the point
is byte-accurate, verifiable transformation with realistic costs, not
security.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.engines.base import Engine, EngineOutput
from repro.packet.addresses import IPv4Address
from repro.packet.checksum import crc32
from repro.packet.headers import (
    ETHERTYPE_IPV4,
    IP_PROTO_ESP,
    EspHeader,
    EthernetHeader,
    HeaderError,
    Ipv4Header,
)
from repro.packet.packet import Packet
from repro.sim.clock import MHZ
from repro.sim.kernel import Simulator
from repro.sim.stats import Counter

#: Bytes of CRC-32 integrity check value appended to the ESP payload.
ICV_BYTES = 4


class IpsecError(RuntimeError):
    """Raised on authentication failures or unknown SPIs."""


@dataclass
class IpsecSa:
    """A security association: SPI, key, tunnel endpoints."""

    spi: int
    key: bytes
    tunnel_src: IPv4Address
    tunnel_dst: IPv4Address
    next_seq: int = 1

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError(f"SA {self.spi:#x} needs a non-empty key")
        self.tunnel_src = IPv4Address(self.tunnel_src)
        self.tunnel_dst = IPv4Address(self.tunnel_dst)


def keystream(key: bytes, spi: int, seq: int, length: int) -> bytes:
    """SHA-256 counter-mode keystream, deterministic per (key, spi, seq)."""
    out = bytearray()
    counter = 0
    seed = key + spi.to_bytes(4, "big") + seq.to_bytes(4, "big")
    while len(out) < length:
        out.extend(hashlib.sha256(seed + counter.to_bytes(4, "big")).digest())
        counter += 1
    return bytes(out[:length])


def xor_bytes(data: bytes, stream: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(data, stream))


class IpsecEngine(Engine):
    """ESP tunnel-mode encrypt/decrypt as a PANIC offload engine."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        fixed_cycles: int = 32,
        cycles_per_byte: float = 0.5,
        freq_hz: float = 500 * MHZ,
        queue_capacity: Optional[int] = None,
        drop_on_auth_failure: bool = False,
        **engine_kwargs,
    ):
        super().__init__(sim, name, freq_hz=freq_hz,
                         queue_capacity=queue_capacity, **engine_kwargs)
        if cycles_per_byte <= 0:
            raise ValueError(f"{name}: cycles_per_byte must be positive")
        self.fixed_cycles = fixed_cycles
        self.cycles_per_byte = cycles_per_byte
        #: Production profile: silently drop packets that fail ICV or
        #: reference an unknown SPI instead of raising.
        self.drop_on_auth_failure = drop_on_auth_failure
        self._sa_by_spi: Dict[int, IpsecSa] = {}
        self.encrypted = Counter(f"{name}.encrypted")
        self.decrypted = Counter(f"{name}.decrypted")
        self.auth_failures = Counter(f"{name}.auth_failures")
        self.dropped_packets = Counter(f"{name}.dropped_packets")

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def install_sa(self, sa: IpsecSa) -> None:
        if sa.spi in self._sa_by_spi:
            raise ValueError(f"{self.name}: SPI {sa.spi:#x} already installed")
        self._sa_by_spi[sa.spi] = sa

    def sa(self, spi: int) -> IpsecSa:
        try:
            return self._sa_by_spi[spi]
        except KeyError:
            raise IpsecError(f"{self.name}: unknown SPI {spi:#x}") from None

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------

    def service_time_ps(self, packet: Packet) -> int:
        cycles = self.fixed_cycles + self.cycles_per_byte * packet.frame_bytes
        return self.clock.cycles_to_ps(cycles)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def handle(self, packet: Packet) -> List[EngineOutput]:
        direction = self._classify(packet)
        if direction == "decrypt":
            if self.drop_on_auth_failure:
                try:
                    out = self.decrypt(packet)
                except IpsecError:
                    self.dropped_packets.add()
                    return []
            else:
                out = self.decrypt(packet)
        elif direction == "encrypt":
            spi = int(packet.meta.annotations["ipsec_spi"])
            out = self.encrypt(packet, spi)
        else:
            # Not IPSec traffic: pass through untouched.
            return [(packet, None)]
        return [(out, None)]

    def _classify(self, packet: Packet) -> str:
        if "ipsec_spi" in packet.meta.annotations:
            return "encrypt"
        try:
            eth, rest = EthernetHeader.unpack(packet.data)
            if eth.ethertype != ETHERTYPE_IPV4:
                return "passthrough"
            ipv4, _ = Ipv4Header.unpack(rest)
        except HeaderError:
            return "passthrough"
        return "decrypt" if ipv4.protocol == IP_PROTO_ESP else "passthrough"

    def encrypt(self, packet: Packet, spi: int) -> Packet:
        """Tunnel-mode encapsulate: the whole inner IPv4 packet becomes
        ESP ciphertext inside a fresh outer IPv4 header."""
        sa = self.sa(spi)
        eth, inner = EthernetHeader.unpack(packet.data)
        seq = sa.next_seq
        sa.next_seq += 1
        stream = keystream(sa.key, spi, seq, len(inner))
        ciphertext = xor_bytes(inner, stream)
        icv = crc32(ciphertext).to_bytes(ICV_BYTES, "big")
        esp = EspHeader(spi, seq)
        body = esp.pack() + ciphertext + icv
        outer = Ipv4Header(
            src=sa.tunnel_src,
            dst=sa.tunnel_dst,
            protocol=IP_PROTO_ESP,
            total_length=Ipv4Header.LENGTH + len(body),
        )
        out = Packet(eth.pack() + outer.pack() + body, packet.kind, packet.meta)
        out.panic = packet.panic
        out.meta.annotations.pop("ipsec_spi", None)
        out.meta.annotations["ipsec_encrypted"] = True
        self.encrypted.add()
        return out

    def decrypt(self, packet: Packet) -> Packet:
        """Reverse of :meth:`encrypt`; raises on ICV mismatch."""
        eth, rest = EthernetHeader.unpack(packet.data)
        outer, rest = Ipv4Header.unpack(rest)
        if outer.protocol != IP_PROTO_ESP:
            raise IpsecError(f"{self.name}: not an ESP packet")
        body = rest[: outer.total_length - Ipv4Header.LENGTH]
        esp, remainder = EspHeader.unpack(body)
        if len(remainder) < ICV_BYTES:
            raise IpsecError(f"{self.name}: ESP payload shorter than ICV")
        ciphertext, icv = remainder[:-ICV_BYTES], remainder[-ICV_BYTES:]
        sa = self.sa(esp.spi)
        if crc32(ciphertext) != int.from_bytes(icv, "big"):
            self.auth_failures.add()
            raise IpsecError(f"{self.name}: ICV mismatch for SPI {esp.spi:#x}")
        stream = keystream(sa.key, esp.spi, esp.seq, len(ciphertext))
        inner = xor_bytes(ciphertext, stream)
        out = Packet(eth.pack() + inner, packet.kind, packet.meta)
        out.panic = packet.panic
        out.meta.annotations["ipsec_decrypted"] = True
        self.decrypted.add()
        return out
