"""Line-rate packet-per-second model (reproduces Table 2 and section 4.2).

A minimal Ethernet frame occupies 84 bytes on the wire (64-byte frame +
8-byte preamble/SFD + 12-byte inter-frame gap), i.e. 672 bits.  A port at
line rate ``R`` therefore carries ``R / 672`` packets per second *per
direction*; Table 2 counts both RX and TX across all ports:

    PPS = ports * 2 * R / 672

which gives 238.1 Mpps for a 2-port 40 Gbps NIC (the paper rounds to
"240 Mpps") and 297.6 Mpps for a 1-port 100 Gbps NIC ("300 Mpps").

Section 4.2's feasibility argument: the heavyweight RMT pipeline
processes ``F * P`` packets per second (two 500 MHz pipelines = 1000
Mpps), so line rate holds while

    F * P >= PPS * passes_per_packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.packet.packet import MIN_FRAME_BYTES, wire_bits

#: Bits per minimal frame on the wire (84 bytes).
MIN_FRAME_WIRE_BITS = wire_bits(MIN_FRAME_BYTES)


def min_frame_pps(line_rate_bps: float, ports: int, directions: int = 2) -> float:
    """Packets/sec of minimal frames at line rate over all ports, RX+TX."""
    if line_rate_bps <= 0 or ports <= 0 or directions <= 0:
        raise ValueError("line rate, ports and directions must be positive")
    return ports * directions * line_rate_bps / MIN_FRAME_WIRE_BITS


def rmt_pipeline_pps(freq_hz: float, pipelines: int) -> float:
    """Section 4.2: F * P packets per second."""
    if freq_hz <= 0 or pipelines <= 0:
        raise ValueError("frequency and pipeline count must be positive")
    return freq_hz * pipelines


def sustainable_rmt_passes(
    freq_hz: float, pipelines: int, line_rate_bps: float, ports: int
) -> float:
    """How many RMT passes each packet can take while holding line rate."""
    return rmt_pipeline_pps(freq_hz, pipelines) / min_frame_pps(line_rate_bps, ports)


def required_rmt_pipelines(
    line_rate_bps: float,
    ports: int,
    freq_hz: float,
    passes_per_packet: float = 1.0,
) -> int:
    """Minimum P so that F * P covers line rate at the given pass count."""
    needed_pps = min_frame_pps(line_rate_bps, ports) * passes_per_packet
    pipelines = needed_pps / freq_hz
    whole = int(pipelines)
    return whole if whole == pipelines else whole + 1


@dataclass
class LineRatePoint:
    """One row of Table 2."""

    line_rate_gbps: int
    ports: int
    pps_mpps: float
    paper_mpps: int

    def label(self) -> str:
        return f"{self.line_rate_gbps}Gbps x{self.ports}"


#: Table 2's parameter grid and the values the paper prints.
TABLE2_GRID = (
    (40, 2, 240),
    (40, 4, 480),
    (100, 1, 300),
    (100, 2, 600),
)


def table2_rows() -> List[LineRatePoint]:
    """Compute every row of Table 2."""
    rows = []
    for rate_gbps, ports, paper_mpps in TABLE2_GRID:
        pps = min_frame_pps(rate_gbps * 1e9, ports)
        rows.append(LineRatePoint(rate_gbps, ports, pps / 1e6, paper_mpps))
    return rows
