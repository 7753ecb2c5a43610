"""In-sim telemetry: per-packet spans, component probes, trace export.

Attach a :class:`~repro.telemetry.config.TelemetryConfig` to
``PanicConfig.telemetry`` and the NIC builds a :class:`Telemetry`
instance that

* samples packets with a :class:`~repro.telemetry.tracer.PacketTracer`,
  whose context rides each sampled packet and names the tracer: every
  engine, NoC channel, router and the host model records through it
  (spans: queueing + service per engine with PIFO rank and depth,
  per-channel hop windows, ingress/egress/host instants, drop and
  eviction records) and none of them holds telemetry;
* registers the default component gauges (PIFO depth and busy fraction
  per engine, input-buffer depth per router, credit occupancy per
  channel) with a :class:`~repro.telemetry.probes.ProbeRegistry`
  sampled on a simulated-time cadence via the kernel's passive
  after-event hook.

Everything is observation-only: a telemetry-enabled run is bit-identical
to a disabled one in ``stats()`` and timestamps (enforced by
``tests/test_telemetry.py``), and an unsampled packet costs each
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
        config = self.config
        # A sampled packet carries its tracer, so only these NIC-level
        # hooks are installed, and only when a packet can be sampled at
        # all: the enabled-but-idle config stays at two calls per frame
        # (tests/test_telemetry_call_budget.py).
        if config.sample_every > 0 or config.flow_predicate is not None:
            for engine in nic.engines.values():
                engine.queue.on_evict = self._on_evict
            nic.on_transmit(self._on_transmit)
        if config.probe_period_ps > 0:
            self._install_default_gauges()
            nic.sim.add_after_event_hook(self.probes.on_event)

    def _on_evict(self, message) -> None:
        ctx = message.packet.trace
        if ctx is not None:
            ctx.tracer.end_engine(ctx, self.nic.sim.now, status="evicted")

    def _on_transmit(self, packet) -> None:
        ctx = packet.trace
        if ctx is None:
            return
        port = packet.meta.egress_port
        ctx.tracer.instant(
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
