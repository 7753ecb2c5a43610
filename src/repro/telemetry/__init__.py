"""In-sim telemetry: per-packet spans, INT, export.

A packet has one observation slot, ``Packet.trace``: a
:class:`~repro.telemetry.tracer.TraceCtx` that names its sinks -- the
:class:`~repro.telemetry.tracer.PacketTracer` when the packet is
sampled, the NIC's :class:`~repro.telemetry.int_.IntAgent` when INT
(``PanicConfig.int_``) is on, or both.  Every engine, NoC channel,
router, MAC, wire and the host model feeds the sinks through that
context (spans: queueing + service per engine with PIFO rank and depth,
per-channel hop windows, ingress/egress/host instants, drop and
eviction records; INT: queue depths, the hop record at MAC egress, the
postcard at the host), and none of them holds telemetry.

Attach a :class:`~repro.telemetry.config.TelemetryConfig` to
``PanicConfig.telemetry`` and the NIC builds a :class:`Telemetry`
instance that samples packets with its tracer and closes the span of a
message the PIFO evicts.  Component state is read back from the spans:
the exporter (:mod:`repro.telemetry.export`) derives each engine's
queue-depth and in-service counter tracks from its engine spans, so
there is no second observer on the run loop.

Everything is observation-only: a telemetry-enabled run is bit-identical
to a disabled one in ``stats()`` and timestamps (enforced by
``tests/test_telemetry.py``), and an unobserved packet costs each
instrumented path one ``packet.trace is None`` test.
"""

from __future__ import annotations

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.tracer import PacketTracer, Span, TraceCtx

__all__ = [
    "PacketTracer",
    "Span",
    "Telemetry",
    "TelemetryConfig",
    "TraceCtx",
]


class Telemetry:
    """Per-NIC telemetry fabric: one tracer and the PIFO eviction hook."""

    def __init__(self, nic):
        config = nic.config.telemetry
        self.nic = nic
        self.config = config
        # A forked RNG stream: sampling consumes no draws from anything
        # the simulation itself uses, keeping traced runs bit-identical.
        self.tracer = PacketTracer(config, nic.rng.fork("telemetry"),
                                   name=nic.name)
        # A sampled packet carries its tracer, so only the eviction hook
        # is installed, and only when a packet can be sampled at all: the
        # enabled-but-idle config stays at one call per frame
        # (tests/test_telemetry_call_budget.py).
        if config.sample_every > 0 or config.flow_predicate is not None:
            for engine in nic.engines.values():
                engine.queue.on_evict = self._on_evict

    def _on_evict(self, packet) -> None:
        ctx = packet.trace
        if ctx is not None and ctx.tracer is not None:
            ctx.tracer.end_engine(ctx, self.nic.sim.now, status="evicted")
