"""In-sim telemetry: per-packet spans, component probes, trace export.

Attach a :class:`~repro.telemetry.config.TelemetryConfig` to
``PanicConfig.telemetry`` and the NIC builds a :class:`Telemetry`
instance that

* wires a :class:`~repro.telemetry.tracer.PacketTracer` into every
  engine, NoC channel, router, and the host model (spans for sampled
  packets: queueing + service per engine with PIFO rank and depth,
  per-channel hop windows, ingress/egress/host instants, drop and
  eviction records);
* registers the default component gauges (PIFO depth and busy fraction
  per engine, input-buffer depth per router, credit occupancy per
  channel) with a :class:`~repro.telemetry.probes.ProbeRegistry`
  sampled on a simulated-time cadence via the kernel's passive
  after-event hook.

Everything is observation-only: a telemetry-enabled run is bit-identical
to a disabled one in ``stats()`` and timestamps (enforced by
``tests/test_telemetry.py``), and a NIC without telemetry pays only a
``None`` check on the instrumented paths.
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
        if config is None:
            raise ValueError(f"{nic.name}: PanicConfig.telemetry is None")
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
        tracer = self.tracer
        config = self.config
        # Attach component tracers only when a packet can actually be
        # sampled: with sample_every=0 and no predicate, no trace ctx can
        # ever exist, so the per-event ctx lookups would be pure waste --
        # this keeps the enabled-but-idle configuration at two calls per
        # frame (tests/test_telemetry_call_budget.py).
        if config.sample_every > 0 or config.flow_predicate is not None:
            for engine in nic.engines.values():
                engine._tracer = tracer
                engine.queue.on_evict = self._make_on_evict(engine)
            for router in nic.mesh.routers:
                router._tracer = tracer
            for channel in nic.mesh.channels:
                channel._tracer = tracer
            nic.host._tracer = tracer
            nic.on_transmit(self._on_transmit)
        if config.probe_period_ps > 0:
            self._install_default_gauges()
            nic.sim.add_after_event_hook(self.probes.on_event)

    def _make_on_evict(self, engine):
        tracer = self.tracer

        def on_evict(message, _engine=engine) -> None:
            ctx = message.packet.trace
            if ctx is not None:
                tracer.end_engine(ctx, _engine.now, status="evicted")

        return on_evict

    def _on_transmit(self, packet) -> None:
        ctx = packet.trace
        if ctx is None:
            return
        port = packet.meta.egress_port
        self.tracer.instant(
            ctx, "egress", f"{self.nic.name}.eth{port}", self.nic.sim.now,
            (("egress_port", port),))

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

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def trace_report(self) -> list:
        """Canonical (sorted plain-tuple) span list for this NIC.

        Probe series are deliberately *not* part of the report: sampling
        instants track per-worker event timing, which legitimately
        differs between execution modes; spans carry the
        mode-independent telemetry.
        """
        return self.tracer.report()

    def summary(self) -> dict:
        return self.tracer.summary()
