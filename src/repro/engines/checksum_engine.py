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


#: Memo of RX verification verdicts by frame bytes: ``None`` when the
#: frame has no parseable Ethernet/IPv4 layer, else whether the IPv4 (and
#: any non-zero UDP) checksum verified.  The verdict is a pure function of
#: the bytes, and chained checksum engines verify the same frame
#: repeatedly.  Bounded by wholesale clearing.
_RX_VERDICT_MEMO: dict = {}
_RX_VERDICT_MAX = 256
_MISSING = object()


def _rx_verdict(data: bytes):
    verdict = _RX_VERDICT_MEMO.get(data, _MISSING)
    if verdict is not _MISSING:
        return verdict
    # Fixed-offset reads replacing EthernetHeader/Ipv4Header/UdpHeader
    # unpacks: each validation those would apply is replicated below
    # (truncation, IPv4 version/IHL/total_length, UDP length), so the
    # verdict -- including the None "unparseable" cases -- is identical
    # without building header or address objects.
    if len(data) < 34 or data[14] != 0x45:
        verdict = None
    else:
        rest = data[14:]
        total_length = (rest[2] << 8) | rest[3]
        if total_length < Ipv4Header.LENGTH:
            verdict = None
        else:
            ok = verify_internet_checksum(rest[:20])
            if ok and rest[9] == IP_PROTO_UDP:
                after_ip = rest[20:]
                if len(after_ip) < 8:
                    ok = False
                else:
                    udp_length = (after_ip[4] << 8) | after_ip[5]
                    if udp_length < UdpHeader.LENGTH:
                        ok = False
                    elif after_ip[6] or after_ip[7]:  # checksum != 0
                        # Ipv4Header.pseudo_header: src + dst + zero,
                        # proto (UDP here), L4 length (bytes 4:6).
                        pseudo = (rest[12:20] + b"\x00\x11"
                                  + after_ip[4:6])
                        ok = verify_internet_checksum(
                            pseudo + after_ip[:udp_length])
            verdict = ok
    if len(_RX_VERDICT_MEMO) >= _RX_VERDICT_MAX:
        _RX_VERDICT_MEMO.clear()
    _RX_VERDICT_MEMO[bytes(data)] = verdict
    return verdict


class ChecksumEngine(Engine):
    """Verify (RX) or regenerate (TX) IPv4/UDP checksums."""

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
        ok = _rx_verdict(packet.data)
        if ok is None:
            # Unparseable: nothing to verify, pass through unannotated.
            return packet
        packet.meta.annotations["csum_ok"] = ok
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
