"""A shared on-NIC packet buffer for pointer-mode forwarding.

Section 6 asks: "Should entire packets always be passed from engines, or
are there times when it is better to instead pass pointers to packet
data located in a common packet buffer?"  This module implements the
pointer alternative so the question can be measured:

* payloads live in a central SRAM (:class:`PacketBuffer`) with a fixed
  byte capacity and a small number of access ports -- the model keeps
  each parked payload's size, since the bytes themselves ride the frame
  and no engine reads them through the buffer;
* NoC messages carry only a descriptor (chain header + pointer +
  metadata, :data:`repro.packet.packet.DESCRIPTOR_BITS`), slashing mesh
  load;
* engines that touch payload bytes pay for buffer port access, which
  serializes per port -- the central buffer becomes the new contention
  point, which is exactly the trade-off the paper hints at.
"""

from __future__ import annotations

import itertools
from typing import Dict

from repro.sim.clock import Clock
from repro.sim.kernel import Component, Simulator

#: Width of each access port: 64 B/cycle = 256 Gbps at 500 MHz.
PORT_BYTES_PER_CYCLE = 64


class PacketBufferError(RuntimeError):
    """Raised on capacity exhaustion or bad handles."""


class PacketBuffer(Component):
    """Central payload SRAM with port-contended access timing.

    Parameters
    ----------
    capacity_bytes:
        Total payload bytes the buffer can hold; allocation beyond this
        raises (section 4.3: "packet buffer space is a limited
        resource").
    ports:
        Concurrent access ports; an access occupies one port for
        ``bytes / PORT_BYTES_PER_CYCLE`` cycles.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "pktbuf",
        capacity_bytes: int = 2 << 20,
        ports: int = 2,
    ):
        super().__init__(sim, name)
        if capacity_bytes <= 0 or ports <= 0:
            raise ValueError(f"{name}: capacity and ports must be positive")
        self.capacity_bytes = capacity_bytes
        self.clock = Clock()
        self._port_busy_until = [0] * ports
        self._sizes: Dict[int, int] = {}
        self._used = 0
        self._handles = itertools.count(1)
        self.allocations = 0
        self.frees = 0
        self.accesses = 0
        self.bytes_accessed = 0
        self.high_watermark = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def store(self, nbytes: int) -> int:
        """Allocate an ``nbytes`` payload; returns its handle."""
        if self._used + nbytes > self.capacity_bytes:
            raise PacketBufferError(
                f"{self.name}: out of buffer space "
                f"({self._used}+{nbytes} > {self.capacity_bytes})"
            )
        handle = next(self._handles)
        self._sizes[handle] = nbytes
        self._used += nbytes
        self.high_watermark = max(self.high_watermark, self._used)
        self.allocations += 1
        return handle

    def release(self, handle: int) -> None:
        """Free the payload."""
        nbytes = self._sizes.pop(handle, None)
        if nbytes is None:
            raise PacketBufferError(f"{self.name}: bad handle {handle}")
        self._used -= nbytes
        self.frees += 1

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    def access_delay_ps(self, nbytes: int) -> int:
        """Occupy the earliest-free port for an ``nbytes`` transfer.

        Returns the delay from *now* until the transfer completes,
        including any wait for a port -- the serialization that makes the
        shared buffer a potential bottleneck.
        """
        if nbytes < 0:
            raise ValueError(f"negative access size: {nbytes}")
        cycles = max(1, -(-nbytes // PORT_BYTES_PER_CYCLE))
        duration = self.clock.cycles_to_ps(cycles)
        port = min(range(len(self._port_busy_until)),
                   key=lambda i: self._port_busy_until[i])
        start = max(self.now, self._port_busy_until[port])
        self._port_busy_until[port] = start + duration
        self.accesses += 1
        self.bytes_accessed += nbytes
        return (start + duration) - self.now

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def live_handles(self) -> int:
        return len(self._sizes)
