"""Configuration for the in-sim telemetry layer.

Kept in a leaf module (no imports from the rest of the library) so
:mod:`repro.core.config` can embed a :class:`TelemetryConfig` without an
import cycle, and so the dataclass stays picklable for sharded rack runs
(:mod:`repro.sim.shard` ships NIC builder params to worker processes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class TelemetryConfig:
    """Knobs for per-packet tracing.

    Attaching a ``TelemetryConfig`` to ``PanicConfig.telemetry`` turns
    telemetry on for that NIC; the default ``PanicConfig`` carries
    ``None`` (fully disabled, near-zero overhead -- see DESIGN.md
    section 11 and ``tests/test_telemetry_call_budget.py``).
    """

    #: Deterministic 1-in-N packet sampling at ``PanicNic.inject`` and
    #: where a tile builds a frame (the NIC's birth hook), drawn from
    #: the NIC's seeded RNG (fork ``"telemetry"``), so the sampled
    #: capsule set is identical across runs *and* across shard worker
    #: counts.  ``0`` disables random sampling (predicate only).
    sample_every: int = 1

    #: Optional flow trigger: ``predicate(packet) -> bool`` traces every
    #: matching packet regardless of sampling.  Must be a module-level
    #: (picklable) function when the config travels to shard workers.
    flow_predicate: Optional[Callable] = None

    #: Ring-buffer bound on retained spans per NIC; the oldest spans are
    #: evicted beyond this (counted in ``PacketTracer.dropped_spans``).
    max_spans: int = 65536

    def __post_init__(self) -> None:
        if self.sample_every < 0:
            raise ValueError(
                f"sample_every must be >= 0, got {self.sample_every}"
            )
        if self.max_spans <= 0:
            raise ValueError(f"max_spans must be positive, got {self.max_spans}")


@dataclass
class IntConfig:
    """Knobs for in-band network telemetry (``repro.telemetry.int_``).

    Attaching an ``IntConfig`` to ``PanicConfig.int_`` makes the NIC an
    INT node: every Ethernet frame traversing it accumulates one per-hop
    metadata record (ingress/egress timestamps, PIFO depth at enqueue,
    max engine queue depth, NIC id, chain hop), and frames terminating at
    the host pop the accumulated stack into a flow "postcard".

    ``inband=False`` (the default) carries the stack in a metadata
    side-channel: the frame bytes are untouched and the simulated
    timeline is bit-identical to an INT-free run.  ``inband=True``
    carries the stack as real payload bytes -- a trailer appended after
    the UDP datagram at MAC egress -- so frame growth is *felt*: wire
    occupancy, egress/ingress serialization time, and NoC transfer cost
    all grow with hop count, and the trailer carries its own internet
    checksum.  Either way the postcard stream is bit-identical between
    monolithic and sharded execution at any worker count.
    """

    #: Carry hop records as real payload bytes (a checksummed trailer
    #: appended at MAC egress, stripped at the sink host) instead of the
    #: zero-cost metadata side-channel.
    inband: bool = False

    #: Bound on the per-packet hop stack.  Hops beyond this stop pushing
    #: records (the sink still counts the overflow), so an in-band frame
    #: can never grow without bound on a forwarding loop.
    max_hops: int = 8

    #: Bound on retained postcards per sink NIC; later deliveries are
    #: counted in ``IntAgent.dropped_postcards`` instead of stored.
    max_postcards: int = 65536

    def __post_init__(self) -> None:
        if self.max_hops <= 0:
            raise ValueError(f"max_hops must be positive, got {self.max_hops}")
        if self.max_postcards <= 0:
            raise ValueError(
                f"max_postcards must be positive, got {self.max_postcards}"
            )
