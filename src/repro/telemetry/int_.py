"""In-band network telemetry (INT) for the PANIC data plane.

The paper's thesis is that the NIC *is* an RMT switch, and the canonical
observability feature of a programmable RMT switch is INT: the data
plane itself stamps per-hop state into packets instead of an external
observer sampling it.  Every NIC carrying an
:class:`~repro.telemetry.config.IntConfig` becomes an INT node:

* **source / transit** -- each Ethernet frame traversing the NIC
  accumulates one :data:`hop record <RECORD_STRUCT>` --
  ``(nic_id, hop, ingress_ps, egress_ps, pifo_depth, engine_depth)`` --
  finalized when the MAC starts serializing the frame onto the wire.
  ``pifo_depth`` is the RMT scheduling-queue occupancy observed at the
  frame's first RMT enqueue on this NIC; ``engine_depth`` the maximum
  queue depth it saw across every engine on its chain.
* **sink** -- a frame terminating at the host pops its accumulated
  stack, appends the sink hop, and emits a flow *postcard*
  ``(deliver_ps, queue, path, records)`` retained (bounded) on the sink
  NIC's :class:`IntAgent`.

The agent is a sink of the packet's one observation slot, not a view of
spans (spans exist only for sampled packets; INT records every frame):
each Ethernet frame's :class:`~repro.telemetry.tracer.TraceCtx` holds
its stack and this hop's accumulators and names the agent, and the
engines, the MACs and the host feed the agent through it.  The context
is made at ``PanicNic.inject``, or where a tile builds the frame
(:meth:`IntAgent.born`, the NIC's birth hook).

Carriage has two modes (``IntConfig.inband``):

* **side-channel** (default): the stack rides simulator metadata --
  the trace context inside a NIC, ``PacketCapsule.int_stack`` between
  NICs.  Frame bytes are untouched; the simulated timeline is
  bit-identical to an INT-free run.
* **in-band**: the stack is *real payload bytes* -- a trailer
  (:func:`encode_stack`) appended after the UDP datagram at MAC egress
  and stripped at the sink host.  Frame growth is felt end to end: wire
  occupancy, serialization time at every subsequent MAC, and NoC
  transfer cost all grow with hop count.  The trailer sits beyond the
  IPv4 total length / UDP length, so existing L3/L4 checksums stay
  valid; the trailer carries its own internet checksum over the record
  bytes instead.

Determinism contract
--------------------

Every value in a record is simulated state (timestamps, queue depths,
static ids), every hook fires at an instant whose per-NIC order is
identical between monolithic and sharded execution, and postcards are
reported as a **sorted list of plain tuples** -- so INT reports are
bit-identical at any worker count, in both conservative and speculative
window protocols, with tracing telemetry on or off.  Frames carrying a
trace context refuse batched trains, so the depth observations and MAC
egress instants are always genuine.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Tuple

from repro.packet.checksum import internet_checksum
from repro.packet.packet import MessageKind
from repro.sim.clock import US
from repro.sim.stats import TimeSeries
from repro.telemetry.config import IntConfig
from repro.telemetry.tracer import TraceCtx

#: One hop record: nic_id(2) hop(2) ingress_ps(8) egress_ps(8)
#: pifo_depth(4, signed; -1 = never hit an RMT queue) engine_depth(4).
RECORD_STRUCT = struct.Struct("<HHqqii")

#: Trailer footer: magic(4) record_count(2) internet_checksum(2).
FOOTER_STRUCT = struct.Struct("<IHH")

#: Crossings on one node closer together than this merge into one
#: microburst.
BURST_GAP_PS = 10 * US

#: ``"INT1"`` little-endian.
TRAILER_MAGIC = 0x31544E49


def encode_stack(records: Tuple[tuple, ...]) -> bytes:
    """Serialize a hop-record stack into the in-band trailer bytes."""
    blob = b"".join(RECORD_STRUCT.pack(*record) for record in records)
    checksum = internet_checksum(blob)
    return blob + FOOTER_STRUCT.pack(TRAILER_MAGIC, len(records), checksum)


def parse_stack(data: bytes) -> Optional[Tuple[Tuple[tuple, ...], int, bool]]:
    """Find and decode an in-band trailer at the end of ``data``.

    Returns ``(records, trailer_len, valid)``; ``None`` when no
    plausible trailer is present (wrong magic, or the declared record
    count does not fit the frame).  ``valid=False`` flags a trailer
    whose internet checksum fails -- e.g. a fault flipped a bit in the
    record region -- in which case ``records`` is empty but
    ``trailer_len`` still covers the damaged region so the sink can
    strip it deterministically.
    """
    if len(data) < FOOTER_STRUCT.size:
        return None
    magic, count, checksum = FOOTER_STRUCT.unpack(
        data[-FOOTER_STRUCT.size:])
    if magic != TRAILER_MAGIC:
        return None
    trailer_len = FOOTER_STRUCT.size + count * RECORD_STRUCT.size
    if trailer_len > len(data):
        return None
    blob = data[-trailer_len:-FOOTER_STRUCT.size]
    if internet_checksum(blob) != checksum:
        return (), trailer_len, False
    records = tuple(RECORD_STRUCT.iter_unpack(blob))
    return records, trailer_len, True


class IntAgent:
    """The INT source/transit/sink role of one NIC.

    Built by :class:`~repro.core.panic.PanicNic` when its config carries
    an :class:`~repro.telemetry.config.IntConfig`; each frame's trace
    context names it (``ctx.int_``), and no component holds it.  All
    hooks only *observe* simulated state (plus, in-band, grow/strip the
    frame bytes the simulation is already carrying); the agent never
    schedules events and never draws from any RNG.
    """

    def __init__(self, config: IntConfig, node_id: int,
                 rmt_names: Iterable[str] = ()):
        self.config = config
        self.node_id = node_id
        self.inband = config.inband
        self.max_hops = config.max_hops
        #: Engine names whose scheduling queue is "the PIFO" for
        #: ``pifo_depth`` (the NIC's RMT tiles).
        self.rmt_names = frozenset(rmt_names)
        self._postcards: List[tuple] = []
        self.dropped_postcards = 0
        self.frames_seen = 0
        self.hops_recorded = 0
        self.hops_suppressed = 0
        self.parse_errors = 0

    # ------------------------------------------------------------------
    # Hop lifecycle
    # ------------------------------------------------------------------

    def on_inject(self, packet) -> None:
        """A frame arrived from an external wire (``PanicNic.inject``):
        its context takes whatever carried the prior-hop stack -- the
        side-channel tuple the cable left on it, or an in-band trailer
        in the frame bytes -- and names this agent."""
        if packet.kind is not MessageKind.ETHERNET:
            return
        self.frames_seen += 1
        ctx = packet.trace
        if ctx is None:
            ctx = packet.trace = TraceCtx()
        ctx.int_ = self
        if self.inband:
            parsed = parse_stack(packet.data)
            if parsed is not None:
                ctx.records, ctx.inband_len, valid = parsed
                if not valid:
                    self.parse_errors += 1

    def born(self, packet) -> None:
        """The NIC's birth hook: a tile built this frame itself (a host
        TX frame at the DMA tile, a KV-cache or RDMA reply)."""
        self.frames_seen += 1
        packet.trace = TraceCtx(int_=self)

    def on_enqueue(self, engine, ctx: TraceCtx, depth: int) -> None:
        """A frame entered an engine's scheduling queue, which held
        ``depth`` messages before this push: the first RMT enqueue fixes
        the hop's ``pifo_depth``, every enqueue feeds ``engine_depth``."""
        if depth > ctx.engine_depth:
            ctx.engine_depth = depth
        if ctx.pifo_depth < 0 and engine.name in self.rmt_names:
            ctx.pifo_depth = depth

    def _push(self, packet, ctx: TraceCtx, now: int) -> Tuple[tuple, ...]:
        """``ctx``'s stack with this hop's record on top, unless the
        stack is already ``max_hops`` deep."""
        records = ctx.records
        if len(records) >= self.max_hops:
            self.hops_suppressed += 1
            return records
        self.hops_recorded += 1
        meta = packet.meta
        ingress = meta.nic_arrival_ps
        if ingress is None:
            ingress = meta.created_ps
        return records + ((self.node_id, len(records), ingress, now,
                           ctx.pifo_depth, ctx.engine_depth),)

    def on_transmit(self, packet, ctx: TraceCtx, now: int) -> None:
        """The MAC is about to serialize the frame onto the wire: push
        this hop's record.  In-band mode re-encodes the trailer *before*
        the MAC computes the serialization window, so the grown frame
        pays its own wire time."""
        ctx.records = self._push(packet, ctx, now)
        if self.inband:
            data = packet.data
            if ctx.inband_len:
                data = data[:-ctx.inband_len]
            trailer = encode_stack(ctx.records)
            packet.data = data + trailer
            ctx.inband_len = len(trailer)

    def on_host_deliver(self, packet, ctx: TraceCtx, queue: int,
                        now: int) -> None:
        """The frame reached the host RX ring (sink): append the sink
        hop, strip the in-band trailer (the host sees the original frame
        bytes), retain the postcard, and end the frame's INT life."""
        ctx.int_ = None
        records = self._push(packet, ctx, now)
        if ctx.inband_len:
            packet.data = packet.data[:-ctx.inband_len]
            ctx.inband_len = 0
        path = tuple(record[0] for record in records)
        if len(self._postcards) >= self.config.max_postcards:
            self.dropped_postcards += 1
            return
        self._postcards.append((now, queue, path, records))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def postcards(self) -> List[tuple]:
        """Canonical picklable form: sorted plain tuples.

        Sorted on ``(deliver_ps, queue, path, records)`` so reports from
        monolithic and sharded runs compare equal exactly when the
        recorded telemetry is equal.
        """
        return sorted(self._postcards)

    def summary(self) -> dict:
        return {
            "node_id": self.node_id,
            "inband": self.inband,
            "frames_seen": self.frames_seen,
            "hops_recorded": self.hops_recorded,
            "hops_suppressed": self.hops_suppressed,
            "postcards": len(self._postcards),
            "dropped_postcards": self.dropped_postcards,
            "parse_errors": self.parse_errors,
        }

    def __repr__(self) -> str:
        return (f"IntAgent(node={self.node_id}, "
                f"{'inband' if self.inband else 'side-channel'}, "
                f"postcards={len(self._postcards)})")


def node_name(node_id: int) -> str:
    return f"nic{node_id}"


def flow_name(flow: Tuple[int, int]) -> str:
    return f"{node_name(flow[0])}->{node_name(flow[1])}"


class IntCollector:
    """Rack-level aggregation of sink postcards.

    Feed it every sink NIC's sorted postcard list (:meth:`ingest`) and
    it computes the rack's flight record: per-flow path traces and
    path-change events, per-hop latency breakdowns, queue-depth
    watermarks as bounded :class:`~repro.sim.stats.TimeSeries`, and
    threshold-crossing microburst detections that name the responsible
    flows.  Everything is derived from the (deterministic, sorted)
    postcard stream, so two collectors fed equal postcards report
    equal.
    """

    def __init__(self, microburst_depth: int = 8):
        if microburst_depth <= 0:
            raise ValueError(
                f"microburst_depth must be positive, got {microburst_depth}")
        self.microburst_depth = microburst_depth
        #: ``(deliver_ps, sink, queue, path, records)`` in ingest order.
        self.postcards: List[tuple] = []
        #: Per-node queue-depth gauge (one point per hop record).
        self.depth_series: Dict[int, TimeSeries] = {}
        #: Per-node hop-latency gauge (one point per hop record).
        self.latency_series: Dict[int, TimeSeries] = {}

    def ingest(self, sink: str, postcards: Iterable[tuple]) -> None:
        for deliver_ps, queue, path, records in postcards:
            self.postcards.append((deliver_ps, sink, queue, path, records))
            for record in records:
                node = record[0]
                depths = self.depth_series.get(node)
                if depths is None:
                    depths = self.depth_series[node] = TimeSeries(
                        f"{node_name(node)}.engine_depth", "frames")
                    self.latency_series[node] = TimeSeries(
                        f"{node_name(node)}.hop_latency", "ps")
                depths.record(record[2], record[5])
                self.latency_series[node].record(
                    record[3], record[3] - record[2])

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @staticmethod
    def _flow(path: Tuple[int, ...]) -> Tuple[int, int]:
        return (path[0], path[-1]) if path else (-1, -1)

    def flows(self) -> Dict[Tuple[int, int], dict]:
        """Per-flow summary: postcards, current path, mean/max e2e."""
        out: Dict[Tuple[int, int], dict] = {}
        for deliver_ps, _sink, _queue, path, records in sorted(
                self.postcards):
            flow = self._flow(path)
            row = out.setdefault(flow, {
                "postcards": 0, "path": path, "paths": [],
                "e2e_ps": [],
            })
            row["postcards"] += 1
            row["path"] = path
            if path not in row["paths"]:
                row["paths"].append(path)
            if records:
                row["e2e_ps"].append(deliver_ps - records[0][2])
        for row in out.values():
            lat = row.pop("e2e_ps")
            row["e2e_mean_ps"] = int(sum(lat) / len(lat)) if lat else 0
            row["e2e_max_ps"] = max(lat) if lat else 0
        return out

    def path_changes(self) -> List[dict]:
        """Flows whose hop-by-hop path differed between postcards."""
        current: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        changes: List[dict] = []
        for deliver_ps, _sink, _queue, path, _records in sorted(
                self.postcards):
            flow = self._flow(path)
            previous = current.get(flow)
            if previous is not None and previous != path:
                changes.append({
                    "at_ps": deliver_ps,
                    "flow": flow_name(flow),
                    "old_path": tuple(node_name(n) for n in previous),
                    "new_path": tuple(node_name(n) for n in path),
                })
            current[flow] = path
        return changes

    def hop_stats(self) -> Dict[str, dict]:
        """Per-node latency breakdown and queue-depth watermarks."""
        out: Dict[str, dict] = {}
        for node in sorted(self.depth_series):
            latencies = [v for _t, v in self.latency_series[node].items()]
            depths = [v for _t, v in self.depth_series[node].items()]
            pifo_max = max(
                (record[4] for postcard in self.postcards
                 for record in postcard[4] if record[0] == node),
                default=-1)
            out[node_name(node)] = {
                "hops": len(latencies),
                "latency_mean_ps": (int(sum(latencies) / len(latencies))
                                    if latencies else 0),
                "latency_max_ps": max(latencies) if latencies else 0,
                "engine_depth_watermark": max(depths) if depths else 0,
                "pifo_depth_watermark": pifo_max,
            }
        return out

    def microbursts(self) -> List[dict]:
        """Threshold-crossing bursts, with the responsible flows named.

        A crossing is one hop record whose ``engine_depth`` reached
        ``microburst_depth``; crossings on one node closer together
        than :data:`BURST_GAP_PS` merge into one burst event.
        """
        crossings: Dict[int, List[tuple]] = {}
        for _deliver_ps, _sink, _queue, path, records in self.postcards:
            flow = self._flow(path)
            for record in records:
                if record[5] >= self.microburst_depth:
                    crossings.setdefault(record[0], []).append(
                        (record[2], record[5], flow))
        bursts: List[dict] = []
        for node in sorted(crossings):
            burst = None
            for at_ps, depth, flow in sorted(crossings[node]):
                if (burst is not None
                        and at_ps - burst["end_ps"] <= BURST_GAP_PS):
                    burst["end_ps"] = max(burst["end_ps"], at_ps)
                    burst["peak_depth"] = max(burst["peak_depth"], depth)
                    burst["events"] += 1
                    burst["_flows"].add(flow)
                else:
                    burst = {
                        "node": node_name(node),
                        "start_ps": at_ps, "end_ps": at_ps,
                        "peak_depth": depth, "events": 1,
                        "_flows": {flow},
                    }
                    bursts.append(burst)
        for burst in bursts:
            burst["flows"] = sorted(
                flow_name(flow) for flow in burst.pop("_flows"))
        return sorted(bursts, key=lambda b: (b["start_ps"], b["node"]))

    def report(self) -> dict:
        """One picklable dict with every derived view (the CLI output)."""
        return {
            "postcards": len(self.postcards),
            "flows": {
                flow_name(flow): {
                    **{k: v for k, v in row.items()
                       if k not in ("path", "paths")},
                    "path": tuple(node_name(n) for n in row["path"]),
                    "paths_seen": len(row["paths"]),
                }
                for flow, row in sorted(self.flows().items())
            },
            "hops": self.hop_stats(),
            "path_changes": self.path_changes(),
            "microbursts": self.microbursts(),
            "microburst_depth": self.microburst_depth,
        }


def format_int_report(report: dict) -> str:
    """Human-readable one-screen rendering of a collector report."""
    lines = [f"INT flight record: {report['postcards']} postcards, "
             f"{len(report['flows'])} flows"]
    lines.append("")
    lines.append("  flow            path                 postcards  "
                 "e2e mean/max (us)")
    for name, row in report["flows"].items():
        path = ">".join(row["path"])
        lines.append(
            f"  {name:<15} {path:<20} {row['postcards']:>9}  "
            f"{row['e2e_mean_ps'] / 1e6:.2f}/{row['e2e_max_ps'] / 1e6:.2f}")
    lines.append("")
    lines.append("  node    hops  latency mean/max (us)  "
                 "depth watermark (engine/pifo)")
    for name, row in report["hops"].items():
        lines.append(
            f"  {name:<7} {row['hops']:>4}  "
            f"{row['latency_mean_ps'] / 1e6:>10.2f}/"
            f"{row['latency_max_ps'] / 1e6:.2f}  "
            f"{row['engine_depth_watermark']:>15}/"
            f"{row['pifo_depth_watermark']}")
    lines.append("")
    if report["microbursts"]:
        lines.append(f"  microbursts (engine depth >= "
                     f"{report['microburst_depth']}):")
        for burst in report["microbursts"]:
            window = (burst["end_ps"] - burst["start_ps"]) / 1e6
            lines.append(
                f"    {burst['node']} @ {burst['start_ps'] / 1e6:.2f}us "
                f"({window:.2f}us window, peak depth "
                f"{burst['peak_depth']}, {burst['events']} crossings) "
                f"flows: {', '.join(burst['flows'])}")
    else:
        lines.append(f"  no microbursts (engine depth never reached "
                     f"{report['microburst_depth']})")
    if report["path_changes"]:
        lines.append("  path changes:")
        for change in report["path_changes"]:
            lines.append(
                f"    {change['flow']} @ {change['at_ps'] / 1e6:.2f}us: "
                f"{'>'.join(change['old_path'])} -> "
                f"{'>'.join(change['new_path'])}")
    return "\n".join(lines)
