"""In-band network telemetry (INT) and the simulator self-profiler.

The INT subsystem (``repro.telemetry.int_``) turns every NIC carrying
an :class:`IntConfig` into an INT source/transit/sink: RMT stages push
per-hop records onto a per-packet stack, the sink NIC pops the stack
into flow postcards, and a rack-level :class:`IntCollector` derives
path traces, hop latency breakdowns, queue watermarks, path changes and
microbursts.  The acceptance bar (ISSUE 9 / DESIGN.md section 16) is
bit-identity: INT flow reports must compare equal between
``run_monolithic`` and ``run_sharded`` at any worker count, in both
window protocols, with tracing telemetry on or off, in side-channel
and in-band carriage alike.  These tests enforce that bar and pin the
edges: the in-band trailer codec (magic, internet checksum, corrupt
and absent trailers), side-channel zero-cost invisibility, in-band
frame-growth visibility, postcard bounding, collector views, the
kernel wall-time profiler, the speculative rollback-cost counters, and
the tracer ring-buffer overflow accounting across the sharded merge.
"""

import os
import struct

import pytest

from repro.sim.clock import NS, US
from repro.sim.kernel import Simulator
from repro.sim.shard import run_monolithic, run_sharded
from repro.telemetry.config import IntConfig, TelemetryConfig
from repro.telemetry.export import merge_int_reports, int_chrome_events
from repro.telemetry.int_ import (
    FOOTER_STRUCT,
    RECORD_STRUCT,
    IntCollector,
    encode_stack,
    format_int_report,
    parse_stack,
)
from repro.workloads.rack import rack_topology

HAVE_FORK = hasattr(os, "fork")

needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="sharded execution requires os.fork")


def _assert_identical(mono, sharded):
    assert set(sharded.reports) == set(mono.reports)
    for name in mono.reports:
        assert sharded.reports[name] == mono.reports[name], \
            f"{name} diverges"
    assert sharded.wire_stats == mono.wire_stats
    assert sharded.events_fired == mono.events_fired


def _postcard_count(result):
    return sum(
        len(report.get("int", ()))
        for report in result.reports.values()
    )


# ----------------------------------------------------------------------
# In-band trailer codec
# ----------------------------------------------------------------------

class TestTrailerCodec:
    RECORDS = (
        (0, 0, 100, 250, 3, 7),
        (2, 1, 9000, 12345, -1, 0),
        (65535, 7, 2**40, 2**40 + 17, 2**31 - 1, 5),
    )

    def test_roundtrip(self):
        blob = encode_stack(self.RECORDS)
        assert len(blob) == (len(self.RECORDS) * RECORD_STRUCT.size
                             + FOOTER_STRUCT.size)
        parsed = parse_stack(b"payload bytes" + blob)
        assert parsed is not None
        records, trailer_len, valid = parsed
        assert valid
        assert records == self.RECORDS
        assert trailer_len == len(blob)

    def test_empty_stack_roundtrips(self):
        blob = encode_stack(())
        records, trailer_len, valid = parse_stack(b"x" + blob)
        assert valid and records == () and trailer_len == len(blob)

    @pytest.mark.parametrize("records", [
        RECORDS, (), ((0xFFFF, 0, 0, 0, 0, 0),), ((0, 0, 0, 0, 0, 0),),
    ], ids=["mixed", "empty", "sums_to_0xffff", "all_zero"])
    def test_footer_checksum_is_the_per_word_rfc1071_sum(self, records):
        # The trailer is checksummed by repro.packet.checksum's integer
        # helper; the word-by-word sum below is RFC 1071 as written.  A
        # record region summing to a multiple of 0xFFFF is where the two
        # could disagree (0x0000 against 0xFFFF).
        blob = encode_stack(records)
        region = blob[:-FOOTER_STRUCT.size]
        total = sum(struct.unpack(f"!{len(region) // 2}H", region))
        while total >> 16:
            total = (total & 0xFFFF) + (total >> 16)
        assert FOOTER_STRUCT.unpack(blob[-FOOTER_STRUCT.size:])[2] \
            == ~total & 0xFFFF
        assert parse_stack(b"udp payload" + blob) == (
            tuple(records), len(blob), True)

    def test_no_trailer_is_none(self):
        assert parse_stack(b"") is None
        assert parse_stack(b"just a UDP datagram") is None

    def test_wrong_magic_is_none(self):
        blob = bytearray(encode_stack(self.RECORDS[:1]))
        blob[-FOOTER_STRUCT.size] ^= 0xFF  # corrupt magic
        assert parse_stack(bytes(blob)) is None

    def test_count_beyond_frame_is_none(self):
        # A footer declaring more records than the frame holds must be
        # rejected, not read out of bounds.
        footer = FOOTER_STRUCT.pack(0x31544E49, 100, 0)
        assert parse_stack(b"tiny" + footer) is None

    def test_corrupt_records_fail_checksum_but_keep_length(self):
        blob = bytearray(encode_stack(self.RECORDS))
        blob[3] ^= 0x40  # flip a bit inside the record region
        parsed = parse_stack(bytes(blob))
        assert parsed is not None
        records, trailer_len, valid = parsed
        assert not valid
        assert records == ()
        # The sink can still strip the damaged region deterministically.
        assert trailer_len == len(blob)


# ----------------------------------------------------------------------
# Mono == sharded bit-identity (the ISSUE acceptance matrix)
# ----------------------------------------------------------------------

@needs_fork
class TestIntEquivalence:
    WORKER_COUNTS = (1, 2, 4)

    def _topo(self, telemetry=None, inband=False):
        return rack_topology(
            nics=4, pattern="fanin", frames=8, gap_ps=400 * NS,
            propagation_ps=500 * NS, telemetry=telemetry,
            int_=IntConfig(inband=inband))

    @pytest.mark.parametrize("inband", [False, True])
    @pytest.mark.parametrize("speculative", [False, True])
    def test_reports_bit_identical_every_worker_count(
            self, speculative, inband):
        topo = self._topo(inband=inband)
        mono = run_monolithic(topo)
        assert _postcard_count(mono) > 0
        for workers in self.WORKER_COUNTS:
            sharded = run_sharded(topo, workers=workers,
                                  speculative=speculative)
            _assert_identical(mono, sharded)

    @pytest.mark.parametrize("speculative", [False, True])
    def test_bit_identical_with_tracing_telemetry_on(self, speculative):
        topo = self._topo(telemetry=TelemetryConfig(sample_every=1))
        mono = run_monolithic(topo)
        assert _postcard_count(mono) > 0
        assert any("trace" in r for r in mono.reports.values())
        for workers in self.WORKER_COUNTS:
            sharded = run_sharded(topo, workers=workers,
                                  speculative=speculative)
            _assert_identical(mono, sharded)

    def test_merged_collector_report_identical(self):
        # The end-to-end artifact the operator reads: merge postcards,
        # run the collector, compare the full derived report.
        topo = self._topo()
        mono = run_monolithic(topo)
        reference = IntCollector()
        for sink, cards in merge_int_reports(mono.reports).items():
            reference.ingest(sink, cards)
        for workers in self.WORKER_COUNTS:
            sharded = run_sharded(topo, workers=workers)
            collector = IntCollector()
            for sink, cards in merge_int_reports(sharded.reports).items():
                collector.ingest(sink, cards)
            assert collector.report() == reference.report()


class TestSideChannelInvisibility:
    def test_side_channel_timeline_matches_int_free_run(self):
        # Side-channel INT is observation only: stripping the "int" keys
        # out of an INT run must reproduce the INT-free run exactly.
        base = run_monolithic(rack_topology(
            nics=3, pattern="fanin", frames=6, gap_ps=1 * US))
        with_int = run_monolithic(rack_topology(
            nics=3, pattern="fanin", frames=6, gap_ps=1 * US,
            int_=IntConfig()))
        assert _postcard_count(with_int) > 0
        for name, report in with_int.reports.items():
            stripped = {k: v for k, v in report.items() if k != "int"}
            stripped["stats"] = {
                k: v for k, v in report["stats"].items() if k != "int"}
            assert stripped == base.reports[name], f"{name} perturbed"
        assert with_int.events_fired == base.events_fired

    def test_inband_growth_shifts_timeline(self):
        # In-band carriage is real payload bytes: serialization of the
        # grown frames must move delivery instants, while the postcard
        # *content* (paths, queues) stays the same flows.
        side = run_monolithic(rack_topology(
            nics=3, pattern="fanin", frames=6, gap_ps=1 * US,
            int_=IntConfig(inband=False)))
        inband = run_monolithic(rack_topology(
            nics=3, pattern="fanin", frames=6, gap_ps=1 * US,
            int_=IntConfig(inband=True)))
        side_cards = merge_int_reports(side.reports)["nic0"]
        inband_cards = merge_int_reports(inband.reports)["nic0"]
        assert len(side_cards) == len(inband_cards) > 0
        paths = lambda cards: sorted(card[2] for card in cards)
        assert paths(side_cards) == paths(inband_cards)
        # Same frames, later deliveries: every in-band frame carried its
        # trailer across the wire.
        side_t = sorted(card[0] for card in side_cards)
        inband_t = sorted(card[0] for card in inband_cards)
        assert inband_t != side_t
        assert sum(inband_t) > sum(side_t)

    def test_inband_sink_strips_trailer_from_host_bytes(self):
        # Deliveries record payload sizes via the frame tuples; the
        # delivered (src, seq, ...) tuples must match the side-channel
        # run -- the host never sees trailer bytes.
        side = run_monolithic(rack_topology(
            nics=3, pattern="fanin", frames=6, gap_ps=1 * US,
            int_=IntConfig(inband=False)))
        inband = run_monolithic(rack_topology(
            nics=3, pattern="fanin", frames=6, gap_ps=1 * US,
            int_=IntConfig(inband=True)))
        key = lambda rep: sorted((d[0], d[1], d[3])
                                 for d in rep["deliveries"])
        for name in side.reports:
            assert key(side.reports[name]) == key(inband.reports[name])


# ----------------------------------------------------------------------
# Postcard semantics on a single run
# ----------------------------------------------------------------------

class TestPostcards:
    def _cards(self, **int_kwargs):
        result = run_monolithic(rack_topology(
            nics=3, pattern="fanin", frames=5, gap_ps=1 * US,
            int_=IntConfig(**int_kwargs)))
        return result, merge_int_reports(result.reports)

    def test_fanin_postcards_land_on_sink_only(self):
        result, merged = self._cards()
        assert set(merged) == {"nic0", "nic1", "nic2"}
        # fanin: all traffic terminates at nic0.
        assert len(merged["nic0"]) == 10  # 2 senders x 5 frames
        assert merged["nic1"] == [] and merged["nic2"] == []

    def test_record_fields_are_simulated_state(self):
        _, merged = self._cards()
        for deliver_ps, queue, path, records in merged["nic0"]:
            assert path[-1] == 0  # sink hop is nic0
            assert len(records) == len(path)
            for idx, record in enumerate(records):
                nic_id, hop, ingress, egress, pifo, engine = record
                assert hop == idx  # hop = position in the stack
                assert 0 <= ingress <= egress <= deliver_ps
                assert pifo >= -1 and engine >= 0

    def test_hop_latency_positive_across_wire(self):
        _, merged = self._cards()
        for _, _, _, records in merged["nic0"]:
            # Transit egress precedes sink ingress by the propagation
            # delay at least.
            assert records[1][2] > records[0][3]

    def test_max_postcards_bounds_retention(self):
        result, merged = self._cards(max_postcards=3)
        assert len(merged["nic0"]) == 3
        summary = result.reports["nic0"]["stats"]["int"]
        assert summary["postcards"] == 3
        assert summary["dropped_postcards"] == 7

    def test_max_hops_suppresses_stack_growth(self):
        result, merged = self._cards(max_hops=1)
        summary = result.reports["nic0"]["stats"]["int"]
        assert summary["hops_suppressed"] > 0
        for _, _, path, records in merged["nic0"]:
            assert len(records) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntConfig(max_hops=0)
        with pytest.raises(ValueError):
            IntConfig(max_postcards=-1)

    def test_merge_returns_none_without_int(self):
        result = run_monolithic(rack_topology(
            nics=3, pattern="fanin", frames=2, gap_ps=1 * US))
        assert merge_int_reports(result.reports) is None


# ----------------------------------------------------------------------
# Collector-derived views
# ----------------------------------------------------------------------

class TestCollector:
    def _collector(self, **kwargs):
        # Tight incast: all senders release aligned frames into nic0,
        # shallow gap so the sink queue visibly builds.
        result = run_monolithic(rack_topology(
            nics=4, pattern="fanin", frames=30, gap_ps=200 * NS,
            propagation_ps=500 * NS, int_=IntConfig()))
        collector = IntCollector(**kwargs)
        for sink, cards in merge_int_reports(result.reports).items():
            collector.ingest(sink, cards)
        return collector

    def test_flows_trace_the_fanin_paths(self):
        flows = self._collector().flows()
        assert set(flows) == {(1, 0), (2, 0), (3, 0)}
        for flow, view in flows.items():
            assert view["postcards"] == 30
            assert view["path"] == (flow[0], 0)
            assert view["paths"] == [(flow[0], 0)]
            assert 0 < view["e2e_mean_ps"] <= view["e2e_max_ps"]

    def test_hop_stats_watermarks(self):
        stats = self._collector().hop_stats()
        assert set(stats) == {"nic0", "nic1", "nic2", "nic3"}
        for view in stats.values():
            assert view["hops"] > 0
            assert 0 < view["latency_mean_ps"] <= view["latency_max_ps"]
        # The incast sink sees the deepest queues in the rack.
        sink_peak = stats["nic0"]["engine_depth_watermark"]
        assert sink_peak >= max(stats[n]["engine_depth_watermark"]
                                for n in ("nic1", "nic2", "nic3"))
        assert sink_peak > 1

    def test_microburst_detected_with_culprit_flows(self):
        bursts = self._collector(microburst_depth=8).microbursts()
        assert bursts, "aligned incast must register a microburst"
        burst = bursts[0]
        assert burst["node"] == "nic0"
        assert burst["peak_depth"] >= 8
        assert burst["end_ps"] >= burst["start_ps"]
        assert set(burst["flows"]) == {"nic1->nic0", "nic2->nic0",
                                       "nic3->nic0"}

    def test_no_path_changes_on_static_rack(self):
        assert self._collector().path_changes() == []

    def test_report_and_formatting(self):
        collector = self._collector()
        report = collector.report()
        assert report["postcards"] == 90
        assert set(report["flows"]) == {"nic1->nic0", "nic2->nic0",
                                        "nic3->nic0"}
        for row in report["flows"].values():
            assert row["paths_seen"] == 1
        text = format_int_report(report)
        assert "nic1->nic0" in text
        assert "microburst" in text.lower()

    def test_chrome_events_exportable(self):
        events = int_chrome_events(self._collector())
        assert events
        assert events[0]["ph"] == "M"  # process-name metadata
        assert all("ts" in ev for ev in events[1:])
        assert any(ev["name"] == "microburst" for ev in events)


# ----------------------------------------------------------------------
# Kernel self-profiler
# ----------------------------------------------------------------------

class TestKernelProfiler:
    def test_attribution_by_component_name(self):
        sim = Simulator()
        sim.set_profile({})

        class Comp:
            def __init__(self, name):
                self.name = name
                self.calls = 0

            def tick(self):
                self.calls += 1

        a, b = Comp("alpha"), Comp("beta")
        for i in range(5):
            sim.schedule_at(i * 10, a.tick)
        sim.schedule_at(100, b.tick)
        sim.run()
        rows = sim.profile_report()
        by_name = {name: (seconds, calls) for seconds, calls, name in rows}
        assert by_name["alpha"][1] == 5
        assert by_name["beta"][1] == 1
        assert all(seconds >= 0 for seconds, _, _ in rows)
        # Sorted hottest-first.
        assert rows == sorted(rows, reverse=True)

    def test_profile_does_not_perturb_results(self):
        topo = rack_topology(nics=3, pattern="fanin", frames=5,
                             gap_ps=1 * US, int_=IntConfig())
        plain = run_monolithic(topo)
        profiled = run_monolithic(topo, profile=True)
        assert profiled.reports == plain.reports
        assert profiled.events_fired == plain.events_fired
        assert plain.profile is None
        assert profiled.profile is not None
        names = {name for _, _, name in profiled.profile}
        assert any(name.startswith("nic0.") for name in names)
        total_calls = sum(calls for _, calls, _ in profiled.profile)
        assert total_calls == profiled.events_fired

    @needs_fork
    @pytest.mark.parametrize("speculative", [False, True])
    def test_sharded_profile_merges_per_shard_rows(self, speculative):
        topo = rack_topology(nics=4, pattern="fanin", frames=6,
                             gap_ps=400 * NS, propagation_ps=500 * NS)
        mono = run_monolithic(topo)
        sharded = run_sharded(topo, workers=2, speculative=speculative,
                              profile=True)
        _assert_identical(mono, sharded)
        assert sharded.profile is not None
        total_calls = sum(calls for _, calls, _ in sharded.profile)
        assert total_calls == sharded.events_fired
        assert set(sharded.shard_profiles) == {0, 1}
        for shard_view in sharded.shard_profiles.values():
            assert shard_view["busy_seconds"] >= 0
            assert shard_view["profile"]

    @needs_fork
    def test_profile_off_keeps_fields_none(self):
        topo = rack_topology(nics=3, pattern="fanin", frames=4,
                             gap_ps=1 * US)
        sharded = run_sharded(topo, workers=2)
        assert sharded.profile is None
        assert sharded.shard_profiles is None


# ----------------------------------------------------------------------
# Speculative rollback-cost accounting
# ----------------------------------------------------------------------

@needs_fork
class TestRollbackAccounting:
    def test_rollback_costs_surface_in_result(self):
        # Dense aligned traffic: stragglers land inside the optimistic
        # window every round, forcing rollbacks.
        topo = rack_topology(nics=4, frames=10, gap_ps=1 * US)
        mono = run_monolithic(topo)
        spec = run_sharded(topo, workers=4, speculative=True)
        _assert_identical(mono, spec)
        assert spec.rollbacks > 0
        assert spec.capsules_replayed > 0
        assert spec.rollback_wall_seconds > 0
        assert len(spec.horizon_history) == spec.rounds
        assert all(h >= 1 for h in spec.horizon_history)

    def test_conservative_run_reports_zero_rollback_cost(self):
        topo = rack_topology(nics=3, pattern="fanin", frames=4,
                             gap_ps=1 * US)
        result = run_sharded(topo, workers=2)
        assert result.rollbacks == 0
        assert result.capsules_replayed == 0
        assert result.rollback_wall_seconds == 0
        assert result.horizon_history == ()

    def test_window_log_matches_rollback_totals(self):
        # window_log carries *cumulative* rollback/replay counters, so
        # the high-water row equals the run totals.
        topo = rack_topology(nics=4, frames=8, gap_ps=1 * US)
        spec = run_sharded(topo, workers=2, speculative=True)
        assert spec.window_log
        assert max(row[2] for row in spec.window_log) == spec.rollbacks
        assert max(row[3] for row in spec.window_log) \
            == spec.replayed_events


# ----------------------------------------------------------------------
# Tracer ring-buffer overflow across the sharded merge (satellite 3)
# ----------------------------------------------------------------------

@needs_fork
class TestTracerOverflowShardedMerge:
    def _topo(self, max_spans):
        return rack_topology(
            nics=3, pattern="fanin", frames=8, gap_ps=400 * NS,
            propagation_ps=500 * NS,
            telemetry=TelemetryConfig(sample_every=1,
                                      max_spans=max_spans))

    def test_dropped_spans_exact_across_merge(self):
        tiny = self._topo(max_spans=4)
        mono = run_monolithic(tiny)
        summaries = {name: rep["trace_summary"]
                     for name, rep in mono.reports.items()}
        assert any(s["dropped_spans"] > 0 for s in summaries.values()), \
            "workload must overflow the ring"
        for name, summary in summaries.items():
            # Conservation: every sampled span was either kept or
            # dropped, and the ring never holds more than max_spans.
            emitted = summary["spans"] + summary["dropped_spans"]
            assert summary["spans"] <= 4
            assert len(mono.reports[name]["trace"]) == summary["spans"]
            assert emitted >= summary["spans"]
        for workers in (1, 2):
            for speculative in (False, True):
                sharded = run_sharded(tiny, workers=workers,
                                      speculative=speculative)
                _assert_identical(mono, sharded)

    def test_span_ids_deterministic_after_wrap(self):
        tiny = self._topo(max_spans=4)
        roomy = self._topo(max_spans=65536)
        wrapped = run_monolithic(tiny)
        again = run_monolithic(tiny)
        full = run_monolithic(roomy)
        # Wrapping the ring is deterministic: re-running yields the
        # exact same surviving spans (ids included).
        assert again.reports == wrapped.reports
        for name in wrapped.reports:
            kept = wrapped.reports[name]["trace"]
            everything = set(full.reports[name]["trace"])
            # The ring keeps a subset of the same deterministic span
            # stream the unbounded run records: identical trace ids,
            # seqs and payloads -- eviction never renumbers survivors.
            for span in kept:
                assert span in everything
            full_summary = full.reports[name]["trace_summary"]
            tiny_summary = wrapped.reports[name]["trace_summary"]
            assert tiny_summary["seen"] == full_summary["seen"]
            assert tiny_summary["sampled"] == full_summary["sampled"]
            # Eviction accounting: emitted = kept + dropped, and the
            # unbounded run never drops.
            assert full_summary["dropped_spans"] == 0
            assert tiny_summary["dropped_spans"] == max(
                0, full_summary["spans"] - 4)
