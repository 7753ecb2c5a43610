"""The checksum offload engine (verify on RX, fill in on TX).

The classic fixed-function offload (the paper cites Intel NICs using
bump-in-the-wire pipelines "for TCP checksums and IPSec").  As a PANIC
engine it verifies IPv4 + UDP checksums on receive, annotating validity,
and recomputes them on transmit.
"""

from __future__ import annotations

from typing import List

from repro.engines.base import Engine, EngineOutput
from repro.packet.builder import (
    checksum_verdict,
    ipv4_ecn,
    rewrite_udp_frame,
    set_ipv4_ecn,
    split_udp_frame,
)
from repro.packet.headers import IP_PROTO_UDP
from repro.packet.packet import Direction, Packet
from repro.sim.kernel import Simulator

#: Service time: ``FIXED_CYCLES + CYCLES_PER_BYTE * frame bytes``
#: cycles (16 bytes per cycle).
FIXED_CYCLES = 8
CYCLES_PER_BYTE = 0.0625


class ChecksumEngine(Engine):
    """Verify (RX) or regenerate (TX) IPv4/UDP checksums.

    The RX verdict rides the packet (``csum_ok``), with the ``data``
    bytes object it was taken over (``csum_data``): a later tile reuses
    it until an engine or a NoC fault replaces the frame's bytes."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        **engine_kwargs,
    ):
        super().__init__(sim, name, **engine_kwargs)
        self.verified = 0
        self.bad_checksums = 0
        self.generated = 0

    def service_time_ps(self, packet: Packet) -> int:
        cycles = FIXED_CYCLES + CYCLES_PER_BYTE * packet.frame_bytes
        return self.clock.cycles_to_ps(cycles)

    def handle(self, packet: Packet) -> List[EngineOutput]:
        data = packet.data
        if packet.meta.direction == Direction.TX:
            split = split_udp_frame(data)
            if split is not None:
                frame = rewrite_udp_frame(*split)
            else:
                ecn = ipv4_ecn(data)
                if ecn is None or data[23] == IP_PROTO_UDP:
                    # Not IPv4, or UDP whose length cannot be rewritten.
                    return [(packet, None)]
                frame = set_ipv4_ecn(data, ecn)
            self.generated += 1
            return [(packet.rewritten(frame), None)]
        annotations = packet.meta.annotations
        if annotations.get("csum_data") is data:  # verified up the chain
            ok = annotations["csum_ok"]
        else:
            ok = checksum_verdict(data)
            if ok is None:
                # Nothing to verify: pass through unannotated.
                return [(packet, None)]
            annotations["csum_ok"] = ok
            annotations["csum_data"] = data
        if ok:
            self.verified += 1
        else:
            self.bad_checksums += 1
        return [(packet, None)]
