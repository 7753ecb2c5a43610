"""In-sim telemetry: per-packet spans, INT, component probes, export.

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
instance that samples packets with its tracer, closes the span of a
message the PIFO evicts, and registers the default component gauges
(PIFO depth and busy fraction per engine, input-buffer depth per
router, credit occupancy per channel) with a
:class:`~repro.telemetry.probes.ProbeRegistry` sampled on a
simulated-time cadence via the kernel's passive after-event hook.

Everything is observation-only: a telemetry-enabled run is bit-identical
to a disabled one in ``stats()`` and timestamps (enforced by
``tests/test_telemetry.py``), and an unobserved packet costs each
instrumented path one ``packet.trace is None`` test.
"""

from __future__ import annotations

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.probes import ProbeRegistry
from repro.telemetry.tracer import PacketTracer, Span, TraceCtx

__all__ = [
    "PacketTracer",
    "ProbeRegistry",
    "Span",
    "Telemetry",
    "TelemetryConfig",
    "TraceCtx",
]


class Telemetry:
    """Per-NIC telemetry fabric: one tracer + one probe registry."""

    def __init__(self, nic):
        config = nic.config.telemetry
        self.nic = nic
        self.config = config
        # A forked RNG stream: sampling consumes no draws from anything
        # the simulation itself uses, keeping traced runs bit-identical.
        self.tracer = PacketTracer(config, nic.rng.fork("telemetry"),
                                   name=nic.name)
        self.probes = ProbeRegistry(config.probe_period_ps)
        self._wire()

    # ------------------------------------------------------------------

    def _wire(self) -> None:
        nic = self.nic
        config = self.config
        # A sampled packet carries its tracer, so only the eviction hook
        # is installed, and only when a packet can be sampled at all: the
        # enabled-but-idle config stays at one call per frame
        # (tests/test_telemetry_call_budget.py).
        if config.sample_every > 0 or config.flow_predicate is not None:
            for engine in nic.engines.values():
                engine.queue.on_evict = self._on_evict
        if config.probe_period_ps > 0:
            self._install_default_gauges()
            nic.sim.add_after_event_hook(self.probes.on_event)

    def _on_evict(self, packet) -> None:
        ctx = packet.trace
        if ctx is not None and ctx.tracer is not None:
            ctx.tracer.end_engine(ctx, self.nic.sim.now, status="evicted")

    def _install_default_gauges(self) -> None:
        probes = self.probes
        for engine in self.nic.engines.values():
            probes.add_gauge(
                f"{engine.name}.pifo_depth",
                lambda _e=engine: len(_e.queue), unit="msgs")
            probes.add_gauge(
                f"{engine.name}.busy_frac",
                # An RMT tile's lanes are its pipeline depth; a burst
                # beyond that waits at its mouth, and the pipeline is full.
                lambda _e=engine: min(1.0, _e._busy_lanes / _e.lanes),
                unit="frac")
        for router in self.nic.mesh.routers:
            probes.add_gauge(
                f"{router.name}.buffered",
                lambda _r=router: _r.buffered_messages, unit="msgs")
        for channel in self.nic.mesh.channels:
            probes.add_gauge(
                f"{channel.name}.credit_used",
                lambda _c=channel: _c.credit_deficit, unit="credits")
