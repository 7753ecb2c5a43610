"""Trace exporters: Chrome trace-event JSON and plain-text timelines.

``write_chrome_trace`` emits the Trace Event Format consumed by Perfetto
(https://ui.perfetto.dev) and chrome://tracing: one *process* per NIC,
one *thread* (track) per component, complete ("X") events for engine and
hop spans, instant ("i") events for point records, and counter ("C")
tracks derived from the engine spans (:func:`engine_counter_tracks`).
Timestamps are microseconds (floats), so picosecond sim time keeps
sub-ns resolution.

``format_timeline`` renders a human-readable per-packet walk for the
``python -m repro trace`` CLI.  ``merge_trace_reports`` assembles the
coordinator-side merged trace from per-NIC rack reports (sharded or
monolithic -- span ids are mode-independent, so the merge is a plain
collection keyed by NIC name).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: ps -> Chrome-trace microseconds.
_PS_PER_US = 1e6

#: Span kinds rendered as duration ("X") events even when synthesized
#: spans collapse to zero length; everything else becomes an instant.
_DURATION_KINDS = ("engine", "hop")


def engine_counter_tracks(spans: Iterable) -> Dict[str, List[Tuple[int, int]]]:
    """Per-engine counter tracks, ``name -> [(time_ps, value), ...]``,
    read off one NIC's engine spans.

    ``<engine>.queue_depth`` is the PIFO depth each traced packet found
    at enqueue, stamped at its span's start.  ``<engine>.in_service``
    counts traced packets in service: +1 at a span's
    ``service_start_ps``, -1 at its end, one point per instant carrying
    the count after every step there.  Both are functions of the spans
    alone, so they are equal wherever the spans are (fast and per-hop
    NoC, monolithic and sharded runs).
    """
    depths: Dict[str, List[Tuple[int, int]]] = {}
    steps: Dict[str, List[Tuple[int, int]]] = {}
    for _tid, _seq, kind, component, start_ps, end_ps, args in spans:
        if kind != "engine":
            continue
        args = dict(args)
        depths.setdefault(component, []).append(
            (start_ps, args["queue_depth"]))
        edges = steps.setdefault(component, [])
        if args["service_start_ps"] >= 0:  # -1: never served
            edges.append((args["service_start_ps"], 1))
            edges.append((end_ps, -1))
    tracks: Dict[str, List[Tuple[int, int]]] = {}
    for component in sorted(depths):
        tracks[f"{component}.queue_depth"] = sorted(depths[component])
        points: List[Tuple[int, int]] = []
        level = 0
        for t_ps, step in sorted(steps[component]):
            level += step
            if points and points[-1][0] == t_ps:
                points[-1] = (t_ps, level)
            else:
                points.append((t_ps, level))
        tracks[f"{component}.in_service"] = points
    return tracks


def chrome_trace_events(spans_by_nic: Dict[str, Sequence]) -> List[dict]:
    """Build the ``traceEvents`` list: one pid per NIC, one tid per
    component, plus the NIC's engine counter tracks."""
    events: List[dict] = []
    for pid, nic in enumerate(sorted(spans_by_nic)):
        events.append({
            "ph": "M", "pid": pid, "name": "process_name",
            "args": {"name": nic},
        })
        tids: Dict[str, int] = {}
        for span in spans_by_nic[nic]:
            # A Span namedtuple or a report's plain tuple.
            trace_id, seq, kind, component, start_ps, end_ps, args = span
            tid = tids.get(component)
            if tid is None:
                tid = tids[component] = len(tids)
                events.append({
                    "ph": "M", "pid": pid, "tid": tid,
                    "name": "thread_name", "args": {"name": component},
                })
            span_args = dict(args)
            span_args["trace_id"] = trace_id
            span_args["seq"] = seq
            if kind in _DURATION_KINDS:
                events.append({
                    "ph": "X", "pid": pid, "tid": tid,
                    "name": kind, "cat": kind,
                    "ts": start_ps / _PS_PER_US,
                    "dur": (end_ps - start_ps) / _PS_PER_US,
                    "args": span_args,
                })
            else:
                events.append({
                    "ph": "i", "pid": pid, "tid": tid,
                    "name": kind, "cat": "instant", "s": "t",
                    "ts": start_ps / _PS_PER_US,
                    "args": span_args,
                })
        for name, points in engine_counter_tracks(
                spans_by_nic[nic]).items():
            for t_ps, value in points:
                events.append({
                    "ph": "C", "pid": pid, "name": name,
                    "ts": t_ps / _PS_PER_US,
                    "args": {"value": value},
                })
    return events


#: Synthetic Chrome-trace pid for the shard coordinator's counter
#: tracks -- far above any per-NIC pid chrome_trace_events assigns.
_COORDINATOR_PID = 10_000


def shard_window_counters(result, pid: int = _COORDINATOR_PID) -> List[dict]:
    """Chrome trace events for a sharded run's window churn.

    One synthetic ``shard-coordinator`` process with counter ("C") tracks
    sampled at every commit point: ``sync_rounds`` (monotone round
    count), ``rollbacks`` and ``replayed_events`` (cumulative speculation
    counters), and ``dirty_shards`` (that round's mispredicted shards) --
    plus an instant per round carrying the raw tuple, so Perfetto shows
    exactly where speculation paid off and where it churned.  Empty for
    monolithic results (no ``window_log``).
    """
    window_log = getattr(result, "window_log", None) or []
    if not window_log:
        return []
    events: List[dict] = [{
        "ph": "M", "pid": pid, "name": "process_name",
        "args": {"name": "shard-coordinator"},
    }]
    for round_no, (commit_ps, dirty, rollbacks, replayed) in enumerate(
            window_log, start=1):
        ts = commit_ps / _PS_PER_US
        for name, value in (
            ("sync_rounds", round_no),
            ("dirty_shards", dirty),
            ("rollbacks", rollbacks),
            ("replayed_events", replayed),
        ):
            events.append({
                "ph": "C", "pid": pid, "name": name, "ts": ts,
                "args": {"value": value},
            })
        events.append({
            "ph": "i", "pid": pid, "tid": 0, "name": "window_commit",
            "cat": "instant", "s": "p", "ts": ts,
            "args": {"commit_ps": commit_ps, "dirty_shards": dirty,
                     "rollbacks": rollbacks, "replayed_events": replayed},
        })
    return events


#: Synthetic Chrome-trace pid for the rack-level INT collector tracks.
_INT_COLLECTOR_PID = 20_000


def int_chrome_events(collector, pid: int = _INT_COLLECTOR_PID) -> List[dict]:
    """Chrome trace events for a rack's INT flight record.

    One synthetic ``int-collector`` process: per-node counter ("C")
    tracks for engine queue depth and hop latency (one point per hop
    record, stamped at the hop's ingress/egress), plus an instant per
    detected microburst naming the responsible flows.  Feed the result
    to :func:`write_chrome_trace` via ``extra_events``.
    """
    if not collector.postcards:
        return []
    events: List[dict] = [{
        "ph": "M", "pid": pid, "name": "process_name",
        "args": {"name": "int-collector"},
    }]
    for node in sorted(collector.depth_series):
        depth = collector.depth_series[node]
        latency = collector.latency_series[node]
        for t_ps, value in depth.items():
            events.append({
                "ph": "C", "pid": pid, "name": depth.name,
                "ts": t_ps / _PS_PER_US, "args": {"value": value},
            })
        for t_ps, value in latency.items():
            events.append({
                "ph": "C", "pid": pid, "name": latency.name,
                "ts": t_ps / _PS_PER_US,
                "args": {"value": value / 1000},  # ps -> ns
            })
    for burst in collector.microbursts():
        events.append({
            "ph": "i", "pid": pid, "tid": 0, "name": "microburst",
            "cat": "instant", "s": "p",
            "ts": burst["start_ps"] / _PS_PER_US,
            "args": {"node": burst["node"],
                     "peak_depth": burst["peak_depth"],
                     "events": burst["events"],
                     "window_us": ((burst["end_ps"] - burst["start_ps"])
                                   / _PS_PER_US),
                     "flows": burst["flows"]},
        })
    return events


def merge_int_reports(reports: Dict[str, dict]):
    """Build an :class:`~repro.telemetry.int_.IntCollector`-ready
    mapping ``{sink_nic: postcards}`` out of rack ``report()`` dicts;
    ``None`` when no NIC ran INT.  Postcards are sink-local and sorted,
    so the sharded merge is the same keyed collection as the monolithic
    one (the mono==sharded INT contract rides on this)."""
    return _merge(reports, "int")


def write_chrome_trace(
    path: str,
    spans_by_nic: Dict[str, Sequence],
    extra_events: Optional[List[dict]] = None,
) -> int:
    """Write a Perfetto-loadable ``trace.json``; returns the event count.

    ``extra_events`` are appended verbatim after the per-NIC events --
    e.g. :func:`shard_window_counters` for a sharded run's commit track.
    """
    events = chrome_trace_events(spans_by_nic)
    if extra_events:
        events.extend(extra_events)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, fh)
    return len(events)


def _fmt_ns(ps: int) -> str:
    return f"{ps / 1000:.1f}ns"


def format_timeline(spans: Iterable, limit: Optional[int] = None) -> str:
    """Human-readable per-packet walk of ``spans`` (any NIC's report or
    ``sorted_spans()``), at most ``limit`` traces."""
    by_trace: Dict[int, List[tuple]] = {}
    for span in spans:
        by_trace.setdefault(span[0], []).append(span)
    lines: List[str] = []
    for count, trace_id in enumerate(sorted(by_trace)):
        if limit is not None and count >= limit:
            lines.append(
                f"... and {len(by_trace) - limit} more traced packets")
            break
        lines.append(f"packet trace {trace_id}:")
        rows = sorted(by_trace[trace_id], key=lambda f: (f[4], f[1]))
        for _tid, _seq, kind, component, start_ps, end_ps, args in rows:
            detail = " ".join(f"{k}={v}" for k, v in args)
            if end_ps > start_ps:
                lines.append(
                    f"  @{_fmt_ns(start_ps):>12}  {kind:<8} {component}"
                    f"  +{_fmt_ns(end_ps - start_ps)}"
                    + (f"  [{detail}]" if detail else ""))
            else:
                lines.append(
                    f"  @{_fmt_ns(start_ps):>12}  {kind:<8} {component}"
                    + (f"  [{detail}]" if detail else ""))
    return "\n".join(lines) if lines else "no spans recorded"


def merge_trace_reports(reports: Dict[str, dict]) -> Optional[Dict[str, list]]:
    """Collect per-NIC span lists out of rack ``report()`` dicts.

    Returns ``None`` when no NIC carried telemetry.  Span ids are
    mode-independent (see :mod:`repro.telemetry.tracer`), so merging a
    sharded run's per-worker reports is the same keyed collection as the
    monolithic case -- which is exactly what makes the merged traces
    comparable across execution modes.
    """
    return _merge(reports, "trace")


def _merge(reports: Dict[str, dict], key: str) -> Optional[Dict[str, list]]:
    merged = {name: list(report[key]) for name, report in reports.items()
              if isinstance(report, dict) and key in report}
    return merged or None
