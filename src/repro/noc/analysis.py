"""Closed-form mesh performance model (reproduces the paper's Table 3).

The paper characterizes candidate on-chip topologies by bisection bandwidth
and by the average offload-chain length sustainable at line rate under
uniform traffic (section 4.2, citing Dally & Towles).  The model below
reproduces every row of Table 3 exactly:

* **Bisection bandwidth** of a ``k x k`` mesh with channel bandwidth ``b``
  (``width_bits * freq``): the mid cut crosses ``k`` channel pairs, so
  ``B = 2 * k * b`` counting both directions.

* **All-to-all capacity** under uniform traffic: every traversal crosses
  the bisection with probability 1/2, so the total sustainable traversal
  bandwidth is ``2 * B``.

* **Chain length**: each packet makes ``C + OVERHEAD`` traversals of the
  network, where ``C`` is the number of offloads in its chain and
  ``OVERHEAD = 4`` accounts for the fixed hops every packet takes
  (Ethernet MAC -> RMT pipeline, RMT -> first engine ... last engine ->
  RMT/DMA -> PCIe).  With ``ports`` Ethernet ports at line rate ``R``
  (full duplex, the paper's "both transmit and receive directions"),
  sustaining line rate requires::

      ports * R * (C + 4) <= 2 * B_bisection / 2  =  2 * k * b

  giving  ``C = 2 * k * b / (ports * R) - 4``.

Checked against the paper: (40G x2, 6x6, 64b) -> 5.60; (40G x2, 8x8, 64b)
-> 8.80; (100G x2, 6x6, 128b) -> 3.68; (100G x2, 8x8, 128b) -> 6.24.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim.clock import MHZ

#: Fixed per-packet network traversals outside the offload chain itself
#: (MAC->RMT, RMT->chain, chain->RMT, RMT->DMA, DMA->PCIe bookkeeping).
CHAIN_OVERHEAD_TRAVERSALS = 4


@dataclass
class MeshAnalysis:
    """Analytical properties of a ``width x height`` mesh."""

    width: int
    height: int
    channel_bits: int
    freq_hz: float

    def __post_init__(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ValueError(
                f"analysis assumes a mesh of at least 2x2, got "
                f"{self.width}x{self.height}"
            )
        if self.channel_bits <= 0 or self.freq_hz <= 0:
            raise ValueError("channel width and frequency must be positive")

    @property
    def channel_bw_bps(self) -> float:
        """Bandwidth of one channel (one direction)."""
        return self.channel_bits * self.freq_hz

    @property
    def bisection_channels(self) -> int:
        """Unidirectional channels crossing the worst-case mid cut."""
        k = min(self.width, self.height)
        return 2 * k

    @property
    def bisection_bw_bps(self) -> float:
        """Bisection bandwidth, both directions (paper's "Bisec BW")."""
        return self.bisection_channels * self.channel_bw_bps

    @property
    def capacity_bps(self) -> float:
        """All-to-all traversal capacity under uniform traffic.

        Each uniform-random traversal crosses the bisection with
        probability 1/2, so total traversal bandwidth = 2 x bisection.
        """
        return 2.0 * self.bisection_bw_bps

    def chain_length(self, line_rate_bps: float, ports: int) -> float:
        """Average sustainable offload-chain length at line rate.

        Parameters mirror Table 3: per-port line rate and port count.
        Returns the paper's "Chain Len" column value.
        """
        if line_rate_bps <= 0 or ports <= 0:
            raise ValueError("line rate and port count must be positive")
        offered = line_rate_bps * ports
        return self.capacity_bps / offered - CHAIN_OVERHEAD_TRAVERSALS


@dataclass
class Table3Row:
    """One row of the paper's Table 3."""

    line_rate_gbps: int
    ports: int
    freq_mhz: int
    channel_bits: int
    topo: str
    bisection_gbps: float
    chain_length: float

    def label(self) -> str:
        return (
            f"{self.line_rate_gbps}Gbps x{self.ports} {self.freq_mhz}MHz "
            f"{self.channel_bits}b {self.topo}"
        )


#: The exact parameter grid of Table 3.
TABLE3_GRID = (
    (40, 2, 500, 64, 6),
    (40, 2, 500, 64, 8),
    (100, 2, 500, 128, 6),
    (100, 2, 500, 128, 8),
)

#: The values printed in the paper, for comparison in benches/tests.
TABLE3_PAPER = (
    (384.0, 5.60),
    (512.0, 8.80),
    (768.0, 3.68),
    (1024.0, 6.24),
)


def table3_rows() -> List[Table3Row]:
    """Compute every row of Table 3 from the analytical model."""
    rows = []
    for rate_gbps, ports, freq_mhz, bits, k in TABLE3_GRID:
        analysis = MeshAnalysis(k, k, bits, freq_mhz * MHZ)
        rows.append(
            Table3Row(
                line_rate_gbps=rate_gbps,
                ports=ports,
                freq_mhz=freq_mhz,
                channel_bits=bits,
                topo=f"{k}x{k} Mesh",
                bisection_gbps=analysis.bisection_bw_bps / 1e9,
                chain_length=analysis.chain_length(rate_gbps * 1e9, ports),
            )
        )
    return rows
