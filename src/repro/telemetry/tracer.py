"""Per-packet span recording, and the packet's one observation slot.

A :class:`PacketTracer` follows sampled packets through one NIC and
records :class:`Span` entries: engine occupancy (enqueue through service
end, with the PIFO rank and queue depth observed at enqueue), per-channel
NoC hops, and point events (ingress, egress, host delivery, drops,
refusals).  A :class:`TraceCtx` rides on the packet's ``trace`` slot
through every engine and channel whenever anything observes the packet,
and names its sinks: ``tracer`` when the packet is sampled, ``int_``
(the NIC's :class:`~repro.telemetry.int_.IntAgent`) when INT is on.  An
unobserved packet costs each instrumented site one ``packet.trace``
test, and no component holds telemetry.

Determinism contract
--------------------

* Tracing must be **invisible**: a traced run produces bit-identical
  ``PanicNic.stats()`` and delivery timestamps to an untraced one.  The
  tracer therefore never schedules events, never touches the NIC's
  primary RNG (sampling draws from a forked stream), and only *observes*
  state the simulation already computes.
* Span identity must be **mode-independent**: ``trace_id`` is the
  per-NIC sampled-packet ordinal (injection arrival order is identical
  between monolithic and sharded execution) and ``seq`` is the per-trace
  emission ordinal (the per-packet causal order, identical between the
  slow path and cut-through express flights, which synthesize hop spans
  in route order -- exactly the slow path's completion order).  Global
  counters (packet ids, kernel sequence numbers) never appear in spans:
  they differ across execution modes.
* The canonical report form is a **sorted list of plain tuples**
  (:meth:`PacketTracer.report`), so two runs whose emission *order*
  differed mid-flight (express retro-accounting) still compare equal.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, NamedTuple, Optional, Tuple

from repro.telemetry.config import TelemetryConfig


class Span(NamedTuple):
    """One recorded interval (or instant, when ``start_ps == end_ps``)."""

    trace_id: int       # per-NIC ordinal of the sampled packet
    seq: int            # per-trace emission ordinal (causal order)
    kind: str           # "engine" | "hop" | "ingress" | "egress" | ...
    component: str      # engine / channel / host name
    start_ps: int
    end_ps: int
    args: Tuple         # ((key, value), ...) span-kind specific detail


class TraceCtx:
    """Mutable per-packet observation state: ``tracer`` records its
    spans (None until the packet is sampled), ``int_`` takes its INT hop
    (None while INT is off); either, or both."""

    __slots__ = ("trace_id", "tracer", "seq", "hop", "open_component",
                 "open_start", "open_args", "service_start",
                 "int_", "records", "inband_len", "pifo_depth",
                 "engine_depth")

    def __init__(self, trace_id: int = -1,
                 tracer: Optional["PacketTracer"] = None,
                 records: Tuple[tuple, ...] = ()):
        self.trace_id = trace_id
        self.tracer = tracer
        self.seq = 0
        #: Chain hop ordinal: incremented per engine the packet enters.
        self.hop = 0
        # Currently open engine span (at most one: a packet sits in one
        # scheduling queue / service lane at a time).
        self.open_component: Optional[str] = None
        self.open_start = 0
        self.open_args: Tuple = ()
        self.service_start = -1
        # INT: prior hops' finalized records, the in-band trailer bytes
        # on the frame, and this hop's RMT queue depth at its first RMT
        # enqueue and max engine queue depth.
        self.int_ = None
        self.records = records
        self.inband_len = 0
        self.pifo_depth = -1
        self.engine_depth = 0


class PacketTracer:
    """Records spans for sampled packets of one NIC.

    Parameters
    ----------
    config:
        The :class:`~repro.telemetry.config.TelemetryConfig`.
    rng:
        A dedicated :class:`~repro.sim.rng.SeededRng` stream (the NIC
        forks ``"telemetry"``), so sampling consumes no draws from any
        stream the simulation itself uses.
    name:
        The owning NIC's name; used to synthesize port component names
        for ingress instants.
    """

    def __init__(self, config: TelemetryConfig, rng, name: str = "nic"):
        self.config = config
        self.rng = rng
        self.name = name
        self.spans: Deque[Span] = deque(maxlen=config.max_spans)
        self.dropped_spans = 0
        self.seen = 0
        self.sampled = 0
        self._next_trace_id = 0

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def maybe_trace(self, packet, now: int, port: int = 0,
                    tile: Optional[str] = None) -> Optional[TraceCtx]:
        """Decide (deterministically) whether to trace a new packet: one
        injected at Ethernet ``port``, or one ``tile`` built itself.

        Called from ``PanicNic.inject`` and the NIC's birth hook in
        per-NIC arrival and birth order -- the one ordering that is
        identical between monolithic and sharded execution -- so the RNG
        draw sequence, and therefore the sampled capsule set, is the
        same for every worker count.  The draw happens for *every*
        offered packet (when sampling is on), keeping the stream aligned
        regardless of predicate hits and of an INT context the frame
        already carries (a sampled frame's spans share it).  A packet
        already sampled is not a new arrival.  A sampled packet's first
        span is an instant: ``ingress`` at the port, or ``born`` at the
        tile.
        """
        ctx = packet.trace
        if ctx is not None and ctx.tracer is not None:
            return ctx
        self.seen += 1
        config = self.config
        take = (config.sample_every > 0
                and self.rng.randint(1, config.sample_every) == 1)
        if not take and config.flow_predicate is not None:
            take = bool(config.flow_predicate(packet))
        if not take:
            return None
        if ctx is None:
            ctx = packet.trace = TraceCtx()
        ctx.trace_id = self._next_trace_id
        ctx.tracer = self
        self._next_trace_id += 1
        self.sampled += 1
        if tile is None:
            self.instant(ctx, "ingress", f"{self.name}.eth{port}", now,
                         (("port", port),))
        else:
            self.instant(ctx, "born", tile, now)
        return ctx

    def flow_ctx(self) -> TraceCtx:
        """Allocate a trace context not tied to any sampled packet.

        Protocol machinery (the reliable transport, LB steering, a
        wire's link layer) keeps one and records control events --
        retransmits, RTO firings, flow aborts, link repairs -- as
        instants on the NIC's timeline through its ``tracer``.  Must be
        called during construction, never mid-run: construction order is
        identical between execution modes, so the allocated ``trace_id``
        stays mode-independent.
        """
        ctx = TraceCtx(self._next_trace_id, self)
        self._next_trace_id += 1
        return ctx

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def _emit(self, ctx: TraceCtx, kind: str, component: str,
              start_ps: int, end_ps: int, args: Tuple) -> None:
        spans = self.spans
        if len(spans) == spans.maxlen:
            self.dropped_spans += 1
        spans.append(Span(ctx.trace_id, ctx.seq, kind, component,
                          start_ps, end_ps, args))
        ctx.seq += 1

    def instant(self, ctx: TraceCtx, kind: str, component: str,
                now: int, args: Tuple = ()) -> None:
        """A point event (zero-duration span)."""
        self._emit(ctx, kind, component, now, now, args)

    def hop(self, ctx: TraceCtx, channel: str, start_ps: int,
            end_ps: int) -> None:
        """One NoC channel traversal (serialization window)."""
        self._emit(ctx, "hop", channel, start_ps, end_ps, ())

    def begin_engine(self, ctx: TraceCtx, component: str, now: int,
                     queue_depth: int, rank, droppable: bool) -> None:
        """The packet entered an engine's scheduling queue.

        ``queue_depth`` is the PIFO occupancy *before* this push and
        ``rank`` the slack deadline the PIFO orders by.  The span stays
        open until service completes (or the packet is evicted, dropped,
        or blackholed).
        """
        ctx.hop += 1
        ctx.open_component = component
        ctx.open_start = now
        ctx.open_args = (
            ("queue_depth", queue_depth),
            ("rank", rank),
            ("droppable", droppable),
            ("chain_hop", ctx.hop),
        )
        ctx.service_start = -1

    def end_engine(self, ctx: TraceCtx, now: int, status: str = "ok") -> None:
        """Close the open engine span (idempotent when none is open)."""
        component = ctx.open_component
        if component is None:
            return
        ctx.open_component = None
        args = ctx.open_args + (
            ("service_start_ps", ctx.service_start),
            ("status", status),
        )
        self._emit(ctx, "engine", component, ctx.open_start, now, args)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def path(self, packet) -> List[str]:
        """The engines that processed a sampled ``packet``, in the order
        they finished it: its status-``ok`` engine spans in emission
        order."""
        trace_id = packet.trace.trace_id
        return [span.component for span in self.spans
                if span.trace_id == trace_id and span.kind == "engine"
                and ("status", "ok") in span.args]

    def sorted_spans(self) -> List[Span]:
        """Spans ordered by (trace_id, start, seq) -- timeline order."""
        return sorted(self.spans,
                      key=lambda s: (s.trace_id, s.start_ps, s.seq))

    def report(self) -> List[tuple]:
        """Canonical picklable form: sorted plain tuples.

        Sorted by the unique ``(trace_id, seq)`` prefix, so reports from
        runs with different mid-flight emission order (fast path vs slow
        path, sharded vs monolithic) compare equal exactly when the
        recorded telemetry is equal.  The exporter's counter tracks are
        computed from these spans, so they compare equal with them.
        """
        return sorted(tuple(span) for span in self.spans)

    def summary(self) -> dict:
        return {
            "seen": self.seen,
            "sampled": self.sampled,
            "spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
        }

    def __repr__(self) -> str:
        return (f"PacketTracer({self.name!r}, sampled={self.sampled}/"
                f"{self.seen}, spans={len(self.spans)})")
