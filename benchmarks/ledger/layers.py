"""Layer attribution from the outside: which source file belongs to which
layer, how a ``cProfile`` pass is bucketed by it, and the exact counters
read from public attributes and ``stats()`` trees.

``cProfile`` costs about 3.5x and inflates call-heavy code, so
``<layer>.self_s`` is indicative: use it to find where time goes, then
measure with tracing off.  ``<layer>.pycalls`` is exact and repeats bit
for bit for a seed, so a small gain may rest on it (as a count, never as
a speed-up).
"""

from __future__ import annotations

import cProfile
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro

from metrics import LAYERS
from scenarios import Outcome

SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__))
LEDGER_ROOT = os.path.dirname(os.path.abspath(__file__))

#: ``src/repro``-relative path prefix -> layer; the longest prefix wins,
#: so a file rule overrides its package's rule.
FILE_LAYERS: Dict[str, str] = {
    "sim/": "sim.kernel",          # kernel, clock, rng
    "sim/shard.py": "sim.shard",
    "sim/stats.py": "sim.stats",
    "packet/": "packet",
    "noc/": "noc.scalar",          # router, channel, mesh, message, ...
    "noc/express.py": "noc.express",
    "rmt/": "rmt.memo",            # pipeline (trajectory memo), snapshot
    "rmt/parser.py": "rmt.parse",
    "rmt/phv.py": "rmt.parse",
    "rmt/table.py": "rmt.match",
    "rmt/action.py": "rmt.match",
    "engines/": "engines",
    "sched/": "sched",
    "core/": "core",               # panic, host, pipeline_programs, ...
    "core/train.py": "core.train",
    "workloads/": "workloads",
    "reliability/": "reliability",
    "faults/": "faults",
    "lb/": "lb",
    "telemetry/": "telemetry",
}

#: Files no workload may spend time in: offline analysis, the baseline
#: NIC models, the CLI.  Listed so that a *new* module cannot fall into
#: an unnamed bucket -- it must be added to one map or the other.
NOT_BENCHMARKED = ("analysis/", "baselines/", "cli.py", "__main__.py",
                   "__init__.py")


def layer_of_source(relpath: str) -> Optional[str]:
    """Layer of a ``src/repro``-relative file, None when the file is on
    the not-benchmarked list; KeyError when it is on neither."""
    relpath = relpath.replace(os.sep, "/")
    best = None
    for prefix, layer in FILE_LAYERS.items():
        if relpath.startswith(prefix) and (
                best is None or len(prefix) > len(best[0])):
            best = (prefix, layer)
    if best is not None:
        return best[1]
    if relpath.startswith(NOT_BENCHMARKED):
        return None
    raise KeyError(f"src/repro/{relpath} has no layer in FILE_LAYERS")


def _layer_of_code(code: Any) -> str:
    """Layer of a profiled function by the file that defines it.  C
    functions arrive as strings; dataclass-generated methods carry the
    filename ``<string>``; both count as ``builtins``, as does the
    standard library."""
    filename = getattr(code, "co_filename", "~")
    if filename.startswith(SRC_ROOT + os.sep):
        layer = layer_of_source(os.path.relpath(filename, SRC_ROOT))
        if layer is None:
            raise RuntimeError(
                f"{filename} ran inside a benchmark workload but is "
                "listed as not benchmarked")
        return layer
    if filename.startswith(LEDGER_ROOT + os.sep):
        return "bench"
    return "builtins"


class Trace:
    """One traced pass: per-layer self time and call counts, selected
    function call counts, and layer-to-layer caller edges.

    Built from ``Profile.getstats()`` rather than ``pstats``: pstats
    keys functions by (file, line, name), under which every
    dataclass-generated ``__init__`` collides and all but one are lost
    -- which one depends on memory layout, so counts would not repeat.
    """

    def __init__(self, profile: cProfile.Profile, wall_s: float):
        self.wall_s = wall_s
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.pycalls = {layer: 0 for layer in LAYERS}
        self._ncalls: Dict[Tuple[str, str], int] = {}
        edges: Dict[Tuple[str, str], List[float]] = {}
        for entry in profile.getstats():
            code = entry.code
            if isinstance(code, str) and "_lsprof.Profiler" in code:
                continue  # the profiler switching itself off
            layer = _layer_of_code(code)
            self.self_s[layer] += entry.inlinetime
            self.pycalls[layer] += entry.callcount
            if not isinstance(code, str):
                key = (os.path.basename(code.co_filename), code.co_name)
                self._ncalls[key] = (self._ncalls.get(key, 0)
                                     + entry.callcount)
            for callee in entry.calls or ():
                cell = edges.setdefault(
                    (layer, _layer_of_code(callee.code)), [0, 0.0])
                cell[0] += callee.callcount
                cell[1] += callee.inlinetime
        #: ``(caller layer, callee layer, calls, callee self seconds)``:
        #: follows a layer's time to the layer that caused it.
        self.edges = sorted(
            ((caller, callee, int(calls), self_s)
             for (caller, callee), (calls, self_s) in edges.items()),
            key=lambda edge: -edge[3])

    def ncalls(self, basename: str, func: str) -> int:
        return self._ncalls.get((basename, func), 0)

    @property
    def coverage_frac(self) -> float:
        return sum(self.self_s.values()) / self.wall_s if self.wall_s else 0.0


def traced(run: Callable[[], None]) -> Tuple[Trace, float]:
    """Run ``run`` under cProfile; spans stay in memory until it ends."""
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    try:
        run()
    finally:
        profile.disable()
    wall = time.perf_counter() - start
    return Trace(profile, wall), wall


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counters(outcome: Outcome, trace: Optional[Trace]) -> Dict[str, float]:
    """The exact per-layer counters of one iteration.  A counter whose
    layer the workload does not exercise reads 0."""
    stats_trees = [report["stats"] for report in outcome.reports.values()
                   if "stats" in report]
    engine_entries = [entry for tree in stats_trees
                      for entry in tree.values() if "queue_max" in entry]
    reliability = [tree["reliability"] for tree in stats_trees
                   if "reliability" in tree]
    hits = sum(h for h, _m, _i in outcome.memo.values())
    misses = sum(m for _h, m, _i in outcome.memo.values())
    rel_sent = sum(r["data_sent"] + r["retransmits"] for r in reliability)
    steering = outcome.extra.get("steering", {})
    vip_hits, vip_misses = outcome.extra.get("vip_memo", (0, 0))
    out: Dict[str, float] = {
        "sim.kernel.events": outcome.events,
        "sim.kernel.events_per_frame": _ratio(outcome.events,
                                              outcome.unique),
        "rmt.memo_hits": hits,
        "rmt.memo_misses": misses,
        "rmt.memo_hit_ratio": _ratio(hits, hits + misses),
        "rmt.memo_invalidations": sum(
            i for _h, _m, i in outcome.memo.values()),
        "sched.pifo_depth_max": max(
            (entry["queue_max"] for entry in engine_entries), default=0),
        "sched.queue_wait_p99_ns": max(
            (entry.get("queue_latency_ns_p99", 0.0)
             for entry in engine_entries), default=0.0),
        "engines.processed": sum(e["processed"] for e in engine_entries),
        "engines.dropped": sum(e["dropped"] for e in engine_entries),
        "reliability.retransmits": sum(
            r["retransmits"] for r in reliability),
        "reliability.rto_fired": sum(r["rto_fired"] for r in reliability),
        "reliability.useful_frac": _ratio(
            sum(r["delivered"] for r in reliability), rel_sent),
        "faults.wire_drops": sum(
            stats.get("loss_drops", 0) + stats.get("down_drops", 0)
            for stats in outcome.wire_stats.values()),
        "lb.steered": steering.get("steered", 0),
        "lb.affinity_hits": steering.get("hits", 0),
        "lb.bypass": steering.get("bypass", 0),
        "lb.vip_memo_hit_ratio": _ratio(vip_hits, vip_hits + vip_misses),
    }
    flights = materialized = finished = 0
    if trace is not None:
        flights = trace.ncalls("express.py", "__init__")
        materialized = trace.ncalls("express.py", "materialize")
        finished = trace.ncalls("express.py", "_finish")
    out.update({
        "noc.express.flights": flights,
        "noc.express.materialized": materialized,
        # Useful outcomes over attempts: flights that ran to completion
        # instead of falling back to the per-hop path.
        "noc.express.completed_ratio": _ratio(finished, flights),
    })
    return out


def trace_file_payload(trace: Trace) -> Dict[str, Any]:
    """What the trace file records beside the metrics: caller edges
    between layers, largest first."""
    return {
        "wall_s": trace.wall_s,
        "coverage_frac": trace.coverage_frac,
        "edges": [
            {"caller": caller, "callee": callee, "calls": calls,
             "callee_self_s": self_s}
            for caller, callee, calls, self_s in trace.edges
        ],
    }
