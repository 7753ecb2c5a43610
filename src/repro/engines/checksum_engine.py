"""The checksum offload engine (verify on RX, fill in on TX).

The classic fixed-function offload (the paper cites Intel NICs using
bump-in-the-wire pipelines "for TCP checksums and IPSec").  As a PANIC
engine it verifies IPv4 + UDP checksums on receive, annotating validity,
and recomputes them on transmit.
"""

from __future__ import annotations

from typing import List

from repro.engines.base import Engine, EngineOutput
from repro.packet.builder import build_udp_frame
from repro.packet.checksum import verify_internet_checksum
from repro.packet.headers import (
    EthernetHeader,
    HeaderError,
    IP_PROTO_UDP,
    Ipv4Header,
    UdpHeader,
)
from repro.packet.packet import Direction, Packet
from repro.sim.kernel import Simulator


def _rx_verdict(data: bytes):
    """``None`` when ``data`` has no parseable Ethernet/IPv4 layer, else
    whether the IPv4 (and any non-zero UDP) checksum verified."""
    # Fixed-offset reads replacing EthernetHeader/Ipv4Header/UdpHeader
    # unpacks: each validation those would apply is replicated below
    # (truncation, IPv4 version/IHL/total_length, UDP length), so the
    # verdict -- including the None "unparseable" cases -- is identical
    # without building header or address objects.
    if len(data) < 34 or data[14] != 0x45:
        return None
    rest = data[14:]
    if ((rest[2] << 8) | rest[3]) < Ipv4Header.LENGTH:  # total_length
        return None
    ok = verify_internet_checksum(rest[:20])
    if ok and rest[9] == IP_PROTO_UDP:
        after_ip = rest[20:]
        if len(after_ip) < 8:
            return False
        udp_length = (after_ip[4] << 8) | after_ip[5]
        if udp_length < UdpHeader.LENGTH:
            return False
        if after_ip[6] or after_ip[7]:  # checksum != 0
            # Ipv4Header.pseudo_header: src + dst + zero, proto (UDP
            # here), L4 length (bytes 4:6).
            pseudo = rest[12:20] + b"\x00\x11" + after_ip[4:6]
            ok = verify_internet_checksum(pseudo + after_ip[:udp_length])
    return ok


class ChecksumEngine(Engine):
    """Verify (RX) or regenerate (TX) IPv4/UDP checksums.

    The RX verdict rides the packet (``csum_ok``), with the ``data``
    bytes object it was taken over (``csum_data``): a later tile reuses
    it until an engine or a NoC fault replaces the frame's bytes."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        fixed_cycles: int = 8,
        cycles_per_byte: float = 0.0625,  # 16 bytes per cycle
        **engine_kwargs,
    ):
        super().__init__(sim, name, **engine_kwargs)
        self.fixed_cycles = fixed_cycles
        self.cycles_per_byte = cycles_per_byte
        self.verified = 0
        self.bad_checksums = 0
        self.generated = 0

    def service_time_ps(self, packet: Packet) -> int:
        cycles = self.fixed_cycles + self.cycles_per_byte * packet.frame_bytes
        return self.clock.cycles_to_ps(cycles)

    def handle(self, packet: Packet) -> List[EngineOutput]:
        if packet.meta.direction == Direction.TX:
            try:
                eth, rest = EthernetHeader.unpack(packet.data)
                ipv4, after_ip = Ipv4Header.unpack(rest)
            except HeaderError:
                return [(packet, None)]
            return [(self._regenerate(packet, eth, ipv4, after_ip), None)]
        return [(self._verify(packet), None)]

    def _verify(self, packet: Packet) -> Packet:
        data = packet.data
        annotations = packet.meta.annotations
        if annotations.get("csum_data") is data:  # verified up the chain
            ok = annotations["csum_ok"]
        else:
            ok = _rx_verdict(data)
            if ok is None:
                # Unparseable: nothing to verify, pass through unannotated.
                return packet
            annotations["csum_ok"] = ok
            annotations["csum_data"] = data
        if ok:
            self.verified += 1
        else:
            self.bad_checksums += 1
        return packet

    def _regenerate(self, packet: Packet, eth: EthernetHeader, ipv4: Ipv4Header, after_ip: bytes) -> Packet:
        if ipv4.protocol != IP_PROTO_UDP:
            # IPv4 header checksum is recomputed by Ipv4Header.pack().
            frame = eth.pack() + ipv4.pack() + after_ip
            self.generated += 1
            return packet.rewritten(frame)
        try:
            udp, _rest = UdpHeader.unpack(after_ip)
        except HeaderError:
            return packet
        payload = after_ip[UdpHeader.LENGTH : udp.length]
        frame = build_udp_frame(
            src_mac=eth.src,
            dst_mac=eth.dst,
            src_ip=ipv4.src,
            dst_ip=ipv4.dst,
            src_port=udp.src_port,
            dst_port=udp.dst_port,
            payload=payload,
            dscp=ipv4.dscp,
            ttl=ipv4.ttl,
            identification=ipv4.identification,
        )
        self.generated += 1
        return packet.rewritten(frame)
