"""Tests for repro.telemetry: span tracing, the counter tracks derived
from spans, exporters, and the equivalence contracts (traced ==
untraced; fast == slow; mono == sharded).
"""

import json

import pytest

from repro.core.config import PanicConfig
from repro.core.panic import PanicNic
from repro.packet.packet import MessageKind, Packet
from repro.sim.clock import NS, US
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRng
from repro.telemetry import PacketTracer, TelemetryConfig
from repro.telemetry.export import (
    chrome_trace_events,
    engine_counter_tracks,
    format_timeline,
    shard_window_counters,
    write_chrome_trace,
)
from tests import udp_frame


def _frame(payload_bytes=200, dscp=1, src_port=1000):
    return udp_frame(
        src_port=src_port, dst_port=9, dscp=dscp, payload=bytes(payload_bytes))


def _run_chain(telemetry, fast_path=True, frames=20, gap_ps=700,
               queue_capacity=None, overflow="raise", seed=0):
    """One-port NIC pushing frames through a 3-offload chain."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("ipsec", "compression", "checksum"),
        fast_path=fast_path, queue_capacity=queue_capacity,
        overflow=overflow, telemetry=telemetry, seed=seed,
    ))
    nic.control.route_dscp(1, ["ipsec", "compression", "checksum"])
    frame = _frame()
    for i in range(frames):
        sim.schedule_at(i * gap_ps, nic.inject,
                        Packet(frame, MessageKind.ETHERNET))
    sim.run()
    return sim, nic


class TestTracerUnit:
    def _tracer(self, **kw):
        return PacketTracer(TelemetryConfig(**kw), SeededRng(1), name="n")

    def _packet(self):
        return Packet(_frame(), MessageKind.ETHERNET)

    def test_sample_every_one_traces_all(self):
        tracer = self._tracer(sample_every=1)
        for _ in range(5):
            assert tracer.maybe_trace(self._packet(), 0) is not None
        assert tracer.seen == tracer.sampled == 5

    def test_sample_every_zero_without_predicate_traces_none(self):
        tracer = self._tracer(sample_every=0)
        for _ in range(5):
            assert tracer.maybe_trace(self._packet(), 0) is None
        assert tracer.sampled == 0
        assert tracer.seen == 5

    def test_flow_predicate_triggers_without_sampling(self):
        config = TelemetryConfig(
            sample_every=0,
            flow_predicate=lambda p: len(p.data) > 100,
        )
        tracer = PacketTracer(config, SeededRng(1))
        big = Packet(_frame(200), MessageKind.ETHERNET)
        small = Packet(b"x" * 40, MessageKind.ETHERNET)
        assert tracer.maybe_trace(big, 0) is not None
        assert tracer.maybe_trace(small, 0) is None

    def test_already_traced_packet_returns_existing_ctx(self):
        tracer = self._tracer(sample_every=1)
        packet = self._packet()
        ctx = tracer.maybe_trace(packet, 0)
        assert tracer.maybe_trace(packet, 5) is ctx
        assert tracer.seen == 1  # the re-offer is not a new arrival

    def test_deterministic_sampling_same_seed(self):
        """Same seed => same sampled ordinal set, independent of run."""
        picks = []
        for _ in range(2):
            tracer = self._tracer(sample_every=3)
            picks.append([
                i for i in range(60)
                if tracer.maybe_trace(self._packet(), i) is not None
            ])
        assert picks[0] == picks[1]
        assert 0 < len(picks[0]) < 60  # actually a sample, not all/none

    def test_ring_bound_counts_drops(self):
        tracer = PacketTracer(
            TelemetryConfig(sample_every=1, max_spans=4), SeededRng(1))
        ctx = tracer.maybe_trace(self._packet(), 0)
        for i in range(10):
            tracer.instant(ctx, "x", "c", i)
        assert len(tracer.spans) == 4
        assert tracer.dropped_spans == 7  # ingress + 10 emitted, 4 kept

    def test_end_engine_is_idempotent(self):
        tracer = self._tracer(sample_every=1)
        ctx = tracer.maybe_trace(self._packet(), 0)
        tracer.begin_engine(ctx, "e", 0, 0, 1, False)
        tracer.end_engine(ctx, 10)
        before = len(tracer.spans)
        tracer.end_engine(ctx, 20)  # e.g. evict callback after close
        assert len(tracer.spans) == before

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(sample_every=-1)
        with pytest.raises(ValueError):
            TelemetryConfig(max_spans=0)


class TestTracedUntracedEquivalence:
    @pytest.mark.parametrize("fast_path", [True, False])
    def test_stats_and_timestamps_bit_identical(self, fast_path):
        """The tentpole contract: tracing ON changes nothing observable."""
        _, nic_off = _run_chain(None, fast_path=fast_path)
        _, nic_on = _run_chain(TelemetryConfig(sample_every=1),
                               fast_path=fast_path)
        assert nic_on.stats() == nic_off.stats()

    def test_delivery_timestamps_identical_under_pressure(self):
        """Bounded queues + drops: still bit-identical when traced."""
        def arrivals(telemetry):
            sim, nic = _run_chain(telemetry, frames=60, gap_ps=200,
                                  queue_capacity=4,
                                  overflow="backpressure")
            return sim.now, nic.stats()

        assert arrivals(None) == arrivals(TelemetryConfig(sample_every=1))


class TestFastSlowSpanEquivalence:
    def test_span_reports_identical(self):
        """Express cut-through synthesizes the same spans the slow path
        records: canonical reports must match tuple for tuple."""
        _, fast = _run_chain(TelemetryConfig(sample_every=1), fast_path=True)
        _, slow = _run_chain(TelemetryConfig(sample_every=1), fast_path=False)
        rep_fast = fast.telemetry.tracer.report()
        rep_slow = slow.telemetry.tracer.report()
        assert rep_fast == rep_slow
        assert len(rep_fast) > 0

    def test_span_reports_identical_under_contention(self):
        """Back-to-back frames force express de-speculation mid-flight;
        materialized hops must still line up with slow-path spans."""
        cfg = TelemetryConfig(sample_every=1)
        _, fast = _run_chain(cfg, fast_path=True, frames=40, gap_ps=150)
        _, slow = _run_chain(cfg, fast_path=False, frames=40, gap_ps=150)
        assert fast.telemetry.tracer.report() == slow.telemetry.tracer.report()


class TestStatusSpans:
    def test_eviction_closes_span_with_status(self):
        """Droppable traffic on a tiny queue: evicted/dropped packets get
        a terminal engine span instead of dangling open."""
        sim = Simulator()
        nic = PanicNic(sim, PanicConfig(
            ports=1, offloads=("compression",), queue_capacity=2,
            telemetry=TelemetryConfig(sample_every=1),
        ))
        nic.control.route_dscp(1, ["compression"])
        nic.control.mark_dscp_droppable(1)
        frame = _frame()
        for i in range(40):
            sim.schedule_at(i * 50, nic.inject,
                            Packet(frame, MessageKind.ETHERNET))
        sim.run()
        statuses = {
            dict(args).get("status")
            for _tid, _seq, kind, _c, _s, _e, args
            in nic.telemetry.tracer.report() if kind == "engine"
        }
        dropped = nic.stats()["compression"]["dropped"]
        if dropped:  # workload-dependent, but the contract is span-level
            assert statuses & {"evicted", "dropped_at_enqueue"}
        assert "ok" in statuses

    def test_urgent_frames_evict_droppable_residents(self):
        """Urgent non-droppable frames (DSCP 2, 1 us slack) arriving at a
        full two-slot queue evict droppable residents (DSCP 1): the PIFO's
        eviction hook closes each victim's span as ``evicted``, and no
        frame's engine span is left open."""
        sim = Simulator()
        nic = PanicNic(sim, PanicConfig(
            ports=1, offloads=("compression",), queue_capacity=2,
            telemetry=TelemetryConfig(sample_every=1),
        ))
        for dscp in (1, 2):
            nic.control.route_dscp(dscp, ["compression"])
        nic.control.mark_dscp_droppable(1)
        nic.control.set_dscp_slack(2, 1 * US)
        order = [1] * 6 + [2] + [1] * 6 + [2] + [1] * 5 + [2]
        packets = [Packet(_frame(dscp=dscp), MessageKind.ETHERNET)
                   for dscp in order]
        for i, packet in enumerate(packets):
            sim.schedule_at(i * 50, nic.inject, packet)
        sim.run()
        status = {tid: dict(args)["status"]
                  for tid, _seq, kind, component, _s, _e, args
                  in nic.telemetry.tracer.report()
                  if kind == "engine" and component == "panic.compression"}
        evicted = sorted(tid for tid, s in status.items() if s == "evicted")
        assert evicted == [1, 2, 15]
        assert all(order[tid] == 1 for tid in evicted)
        assert sorted(status.values()).count("dropped_at_enqueue") == 13
        assert [tid for tid, s in status.items() if s == "ok"] \
            == [0, 6, 13, 19]
        assert nic.stats()["compression"]["dropped"] == 16
        assert all(packet.trace.open_component is None
                   for packet in packets)

    def test_crash_closes_the_span_of_every_queued_message(self):
        """A crash loses the PIFO's contents along with the message in
        service; each one's trace must end at the engine that lost it."""
        sim = Simulator()
        nic = PanicNic(sim, PanicConfig(
            ports=1, offloads=("ipsec",),
            telemetry=TelemetryConfig(sample_every=1),
        ))
        nic.control.route_dscp(1, ["ipsec"])
        frame = _frame(payload_bytes=1200)
        for _ in range(12):
            nic.inject(Packet(frame, MessageKind.ETHERNET))
        ipsec = nic.offload("ipsec")
        queued = []

        def crash():
            queued.append(len(ipsec.queue))
            ipsec.fail("crash")

        sim.schedule_at(3 * US, crash)
        sim.run()
        assert queued == [10] and ipsec.blackholed == 11
        statuses = {}
        for tid, _seq, kind, component, _s, end_ps, args in (
                nic.telemetry.tracer.report()):
            if kind == "engine" and component == ipsec.name:
                statuses.setdefault(dict(args)["status"], []).append(
                    (tid, end_ps))
        assert len(statuses["ok"]) == 1
        lost = statuses["blackholed"]
        assert len({tid for tid, _ in lost}) == 11
        # The queued ten close at the crash; the one in service closes
        # when its (lost) service would have finished.
        assert sorted(end for _, end in lost)[:10] == [3 * US] * 10

    def test_frame_delivered_to_a_crashed_tile_ends_there(self):
        """The router still delivers to a dead tile (nothing failed the
        chain over); the frame is counted and its trace ends at that
        tile with a ``blackholed`` instant."""
        sim = Simulator()
        nic = PanicNic(sim, PanicConfig(
            ports=1, offloads=("ipsec",),
            telemetry=TelemetryConfig(sample_every=1),
        ))
        nic.control.route_dscp(1, ["ipsec"])
        ipsec = nic.offload("ipsec")
        ipsec.fail("crash")
        nic.inject(Packet(_frame(), MessageKind.ETHERNET))
        sim.run()
        assert ipsec.blackholed == 1
        instants = [
            (kind, start_ps == end_ps)
            for _tid, _seq, kind, component, start_ps, end_ps, _args
            in nic.telemetry.tracer.report() if component == ipsec.name]
        assert instants == [("blackholed", True)]


class TestPifoEvictHook:
    def test_on_evict_fires_with_the_evicted_item(self):
        from repro.sched.pifo import PifoQueue

        q = PifoQueue("q", capacity=2)
        evicted = []
        q.on_evict = evicted.append
        q.push("worse", rank=50, droppable=True)
        q.push("better", rank=10, droppable=False)
        # Full; an incoming rank better than the droppable resident
        # evicts it (drop-worst) and the hook observes exactly that item.
        assert q.push("incoming", rank=20, droppable=False)
        assert evicted == ["worse"]
        assert q.dropped == 1

    def test_drop_of_incoming_does_not_fire_hook(self):
        from repro.sched.pifo import PifoQueue

        q = PifoQueue("q", capacity=1)
        evicted = []
        q.on_evict = evicted.append
        q.push("resident", rank=10, droppable=False)
        assert not q.push("incoming", rank=20, droppable=True)
        assert evicted == []


def _counters(spans_by_nic):
    """The counter ("C") points of a Chrome trace, per track name."""
    tracks = {}
    for event in chrome_trace_events(spans_by_nic):
        if event["ph"] == "C":
            tracks.setdefault((event["pid"], event["name"]), []).append(
                (event["ts"], event["args"]["value"]))
    return tracks


class TestCounterTracks:
    """Per-engine ``queue_depth`` and ``in_service`` counter tracks,
    computed from the engine spans alone."""

    def test_every_engine_span_feeds_both_tracks(self):
        _, nic = _run_chain(TelemetryConfig(sample_every=1), frames=6)
        spans = nic.telemetry.tracer.sorted_spans()
        engines = {s.component for s in spans if s.kind == "engine"}
        tracks = engine_counter_tracks(spans)
        assert set(tracks) == {f"{engine}.{track}" for engine in engines
                               for track in ("queue_depth", "in_service")}
        for name, points in tracks.items():
            times = [t for t, _v in points]
            assert times == sorted(times), name
            if name.endswith(".in_service"):
                # One point per instant; every served packet leaves.
                assert len(set(times)) == len(times)
                assert points[-1][1] == 0 and min(v for _t, v in points) >= 0

    def test_queue_depth_rises_under_a_burst(self):
        def peak_depth(gap_ps):
            _, nic = _run_chain(TelemetryConfig(sample_every=1),
                                frames=10, gap_ps=gap_ps)
            tracks = engine_counter_tracks(nic.telemetry.tracer.report())
            return max(v for _t, v in tracks[f"{nic.name}.ipsec.queue_depth"])

        assert peak_depth(gap_ps=1000 * NS) == 0
        assert peak_depth(gap_ps=0) > 0

    def test_a_recovered_rmt_stall_shows_its_backlog_in_service(self):
        def drive(stall_until_ps=0):
            sim = Simulator()
            nic = PanicNic(sim, PanicConfig(
                ports=2, offloads=("checksum",),
                telemetry=TelemetryConfig(sample_every=1),
            ))
            nic.control.route_dscp(1, ["checksum"])
            frame = _frame(payload_bytes=18)
            for _ in range(40):
                for port in range(2):
                    nic.inject(Packet(frame, MessageKind.ETHERNET), port)
            if stall_until_ps:
                nic.rmt.fail("stall")
                sim.schedule_at(stall_until_ps, nic.rmt.recover)
            sim.run()
            tracks = engine_counter_tracks(nic.telemetry.tracer.report())
            return (nic.rmt, tracks[f"{nic.rmt.name}.queue_depth"],
                    tracks[f"{nic.rmt.name}.in_service"])

        rmt, _, flowing = drive()
        # The pipeline's depth in packets: what it holds when admitting
        # back to back.
        full = rmt.latency_ps // rmt.initiation_interval_ps
        assert full > 2
        assert 0 < max(v for _t, v in flowing) < full
        _, depth, burst = drive(stall_until_ps=5 * US)
        # The stalled pipeline queues its arrivals, then admits them one
        # initiation interval apart from the recovery on, until it is
        # full, and stays full while the backlog drains.
        assert max(v for _t, v in depth) > full
        assert burst[0][0] == 5 * US
        assert max(v for _t, v in burst) == full

    def test_tracks_are_equal_monolithic_and_sharded(self):
        from repro.sim.shard import run_monolithic, run_sharded
        from repro.workloads.rack import rack_topology

        topo = rack_topology(nics=4, pattern="fanin", frames=8,
                             telemetry=TelemetryConfig(sample_every=1))
        mono = chrome_trace_events(run_monolithic(topo).trace)
        sharded = chrome_trace_events(run_sharded(topo, workers=2).trace)
        assert mono == sharded
        # The fan-in sink's tiles see every sampled frame: its MACs, its
        # RMT pipeline and its DMA tile each get both tracks.
        names = {e["name"] for e in mono if e["ph"] == "C"}
        for engine in ("eth0", "eth1", "eth2", "rmt", "dma"):
            for track in ("queue_depth", "in_service"):
                assert f"nic0.{engine}.{track}" in names
        assert any(e["ph"] == "C" and e["name"].endswith(".queue_depth")
                   and e["args"]["value"] > 0 for e in mono)


class TestSampledDeterminism:
    def test_sampled_set_stable_across_runs(self):
        reports = [
            _run_chain(TelemetryConfig(sample_every=3),
                       frames=60)[1].telemetry.tracer.report()
            for _ in range(2)
        ]
        assert reports[0] == reports[1]
        assert len(reports[0]) > 0


class TestShardEquivalence:
    def test_mono_vs_sharded_trace_identical(self):
        from repro.sim.shard import run_monolithic, run_sharded
        from repro.workloads.rack import rack_topology

        topo = rack_topology(nics=4, pattern="fanin", frames=8,
                             telemetry=TelemetryConfig(sample_every=3))
        mono = run_monolithic(topo)
        sharded = run_sharded(topo, workers=4)
        assert mono.trace is not None
        assert mono.trace == sharded.trace
        assert sum(len(spans) for spans in mono.trace.values()) > 0
        # Sampled set is worker-count independent too.
        assert run_sharded(topo, workers=2).trace == mono.trace

    def test_no_telemetry_yields_no_trace(self):
        from repro.sim.shard import run_monolithic
        from repro.workloads.rack import rack_topology

        assert run_monolithic(
            rack_topology(nics=2, frames=2)).trace is None


class TestExport:
    def _traced_nic(self):
        return _run_chain(TelemetryConfig(sample_every=1), frames=6)[1]

    def test_chrome_trace_structure(self, tmp_path):
        nic = self._traced_nic()
        path = tmp_path / "trace.json"
        count = write_chrome_trace(
            str(path), {nic.name: nic.telemetry.tracer.sorted_spans()})
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) == count
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C"} <= phases
        # Every duration event is non-negative and carries span identity.
        for e in events:
            if e["ph"] == "X":
                assert e["dur"] >= 0
                assert "trace_id" in e["args"]
        # One process per NIC, one named thread per component.
        names = [e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert names == [nic.name]

    def test_timeline_renders_components(self):
        nic = self._traced_nic()
        text = format_timeline(nic.telemetry.tracer.sorted_spans(), limit=2)
        assert "packet trace 0:" in text
        assert "ingress" in text and "host" in text
        assert "more traced packets" in text

    def test_timeline_empty(self):
        assert format_timeline([]) == "no spans recorded"


class TestCli:
    def test_trace_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        assert main(["trace", "--frames", "4",
                     "--trace-out", str(out), "--timeline", "1"]) == 0
        printed = capsys.readouterr().out
        assert "traced 4/4 frames" in printed
        assert "packet trace 0:" in printed
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]


class TestShardWindowCounters:
    class _Result:
        def __init__(self, window_log):
            self.window_log = window_log

    def test_counter_tracks_per_commit(self, tmp_path):
        result = self._Result([(1000, 0, 0, 0), (5000, 2, 2, 150)])
        events = shard_window_counters(result)
        tracks = {e["name"] for e in events if e["ph"] == "C"}
        assert tracks == {"sync_rounds", "dirty_shards", "rollbacks",
                          "replayed_events"}
        rollbacks = [e for e in events
                     if e["ph"] == "C" and e["name"] == "rollbacks"]
        assert [e["args"]["value"] for e in rollbacks] == [0, 2]
        instants = [e for e in events if e["name"] == "window_commit"]
        assert [e["args"]["commit_ps"] for e in instants] == [1000, 5000]
        # All under one synthetic coordinator process, appendable to a
        # merged rack trace.
        assert len({e["pid"] for e in events}) == 1
        out = tmp_path / "trace.json"
        assert write_chrome_trace(str(out), {}, extra_events=events) \
            == len(events)
        assert json.loads(out.read_text())["traceEvents"] == events

    def test_monolithic_results_emit_nothing(self):
        assert shard_window_counters(self._Result([])) == []
