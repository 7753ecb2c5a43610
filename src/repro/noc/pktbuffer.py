"""A shared on-NIC packet buffer for pointer-mode forwarding.

Section 6 asks: "Should entire packets always be passed from engines, or
are there times when it is better to instead pass pointers to packet
data located in a common packet buffer?"  This module implements the
pointer alternative so the question can be measured:

* payloads live in a central SRAM (:class:`PacketBuffer`) with a fixed
  byte capacity and a small number of access ports;
* NoC messages carry only a descriptor (chain header + pointer +
  metadata, :data:`DESCRIPTOR_BITS`), slashing mesh load;
* engines that touch payload bytes pay for buffer port access, which
  serializes per port -- the central buffer becomes the new contention
  point, which is exactly the trade-off the paper hints at.
"""

from __future__ import annotations

import itertools
from typing import Dict

from repro.sim.clock import Clock, MHZ
from repro.sim.kernel import Component, Simulator
from repro.sim.stats import Counter

#: Bits a descriptor occupies on the on-chip network in pointer mode:
#: 16-byte chain header + pointer + lengths + metadata = 32 bytes.
DESCRIPTOR_BITS = 32 * 8

#: Annotation key marking a packet whose payload lives in the buffer.
PBUF_ANNOTATION = "pbuf_handle"


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
        ``bytes / port_bytes_per_cycle`` cycles.
    port_bytes_per_cycle:
        Width of each port (default 64 B/cycle = 256 Gbps at 500 MHz).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "pktbuf",
        capacity_bytes: int = 2 << 20,
        ports: int = 2,
        port_bytes_per_cycle: int = 64,
        freq_hz: float = 500 * MHZ,
    ):
        super().__init__(sim, name)
        if capacity_bytes <= 0 or ports <= 0 or port_bytes_per_cycle <= 0:
            raise ValueError(f"{name}: capacity, ports and width must be positive")
        self.capacity_bytes = capacity_bytes
        self.port_bytes_per_cycle = port_bytes_per_cycle
        self.clock = Clock(freq_hz)
        self._port_busy_until = [0] * ports
        self._store: Dict[int, bytes] = {}
        self._used = 0
        self._handles = itertools.count(1)
        self.allocations = Counter(f"{name}.allocations")
        self.frees = Counter(f"{name}.frees")
        self.accesses = Counter(f"{name}.accesses")
        self.bytes_accessed = Counter(f"{name}.bytes")
        self.high_watermark = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def store(self, data: bytes) -> int:
        """Allocate a payload; returns its handle."""
        if self._used + len(data) > self.capacity_bytes:
            raise PacketBufferError(
                f"{self.name}: out of buffer space "
                f"({self._used}+{len(data)} > {self.capacity_bytes})"
            )
        handle = next(self._handles)
        self._store[handle] = bytes(data)
        self._used += len(data)
        self.high_watermark = max(self.high_watermark, self._used)
        self.allocations.add()
        return handle

    def release(self, handle: int) -> None:
        """Free the payload."""
        handle = self._check(handle)
        self._used -= len(self._store.pop(handle))
        self.frees.add()

    def read(self, handle: int) -> bytes:
        """Read the payload bytes (timing charged via access_delay_ps)."""
        return self._store[self._check(handle)]

    def rewrite(self, handle: int, data: bytes) -> None:
        """Replace a payload in place (an engine transformed it)."""
        handle = self._check(handle)
        old = self._store[handle]
        delta = len(data) - len(old)
        if self._used + delta > self.capacity_bytes:
            raise PacketBufferError(f"{self.name}: rewrite exceeds capacity")
        self._store[handle] = bytes(data)
        self._used += delta
        self.high_watermark = max(self.high_watermark, self._used)

    def _check(self, handle: int) -> int:
        if handle not in self._store:
            raise PacketBufferError(f"{self.name}: bad handle {handle}")
        return handle

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
        cycles = max(1, -(-nbytes // self.port_bytes_per_cycle))
        duration = self.clock.cycles_to_ps(cycles)
        port = min(range(len(self._port_busy_until)),
                   key=lambda i: self._port_busy_until[i])
        start = max(self.now, self._port_busy_until[port])
        self._port_busy_until[port] = start + duration
        self.accesses.add()
        self.bytes_accessed.add(nbytes)
        return (start + duration) - self.now

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def live_handles(self) -> int:
        return len(self._store)
