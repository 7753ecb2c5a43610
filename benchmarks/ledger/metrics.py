"""Names, units, directions and bounds of everything the ledger reports.

This module is the single definition every other ledger file reads:
``BENCHMARK.json`` at the repo root is ``benchmark_json()`` rendered to
disk (``test_ledger.py`` holds the two equal), the runner emits exactly
the names listed here, and ``compare`` takes its bounds from here.

Host time is what the simulator costs to run; simulated time is what the
modelled NIC would take.  Every metric says which one it uses.  The two
host-time metrics are reported in *yardstick seconds*: the clock's
reading divided by the wall of the yardstick loop interleaved with the
measurement (``reference.py``) and multiplied by that loop's nominal
wall, so they read like raw wall on a quiet host and hold still when the
shared host slows down.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

#: How long one driver-mode run measures (``--seconds``), and therefore
#: the value of ``run_seconds`` in ``BENCHMARK.json``.  The stacked-PR
#: driver makes 158 runs of seven workloads in 3420 s, so a run may cost
#: 21 s all told; 17 s of measuring (18 s with start-up, the extra
#: set-up samples and the sharded workload's monolithic reference)
#: leaves a sixth of that spare.
RUN_SECONDS = 17

#: Seed recorded with the accepted baseline; a later claim must also
#: hold on a seed that was not used while the change was written.
DEFAULT_SEED = 1


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse
    #: across *different* seeds (what the stacked-PR driver compares).
    #: Sized from ten-seed spreads on the 2-core shared host that built
    #: the ledger (README, "Host noise"); simulated ones stay under 3 %.
    bound: float
    #: True for simulated metrics: for one seed they repeat exactly, so
    #: ``compare`` on two same-seed result sets demands equality.
    exact: bool
    meaning: str


END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "setup_s", "s", "lower", 0.25, False,
        "host yardstick seconds to build NICs, wires, fault plan and "
        "traffic, up to but not including the first Simulator.run()"),
    EndToEnd(
        "wall_us_per_frame", "us/frame", "lower", 0.25, False,
        "host run-phase wall (perf_counter around run()/run_sharded, in "
        "yardstick seconds) per unique frame delivered to host software "
        "-- the headline"),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.05, False,
        "ru_maxrss of the measuring process (plus the largest worker "
        "on the sharded workload)"),
    EndToEnd(
        "delivered_frac", "fraction", "higher", 0.001, True,
        "1 - failed_ops_frac, where failed = offered - uniquely "
        "delivered + DeliveryFailed + duplicates; must read 1.0"),
    EndToEnd(
        "sim_p50_latency_us", "us", "lower", 0.10, True,
        "simulated latency from the instant a frame was due to be sent "
        "to host delivery, median"),
    EndToEnd(
        "sim_p99_latency_us", "us", "lower", 0.10, True,
        "same, 99th percentile (every workload delivers >= 1400 "
        "frames, so >= 14 samples lie beyond it)"),
    EndToEnd(
        "sim_goodput_gbps", "Gbit/s", "higher", 0.10, True,
        "useful payload bits uniquely delivered per simulated second "
        "of makespan (headers, ACKs, retransmits excluded)"),
]


class Workload(NamedTuple):
    name: str
    loop: str
    why: str


WORKLOADS: List[Workload] = [
    Workload(
        "chain_sparse", "open, 20 us gap",
        "one frame in flight through a five-engine chain: kernel "
        "dispatch, noc.express and RMT memo replay do most of the work"),
    Workload(
        "chain_saturated", "open, bursts at ~90% of regex service rate",
        "regex->checksum chain with queues forming and draining over "
        "64 flows and 22/200/1400 B payloads: scalar NoC, per-byte "
        "engine work and PIFO ordering dominate; express/memo do not"),
    Workload(
        "kvs_isolation", "open, Poisson 50 kpps + 2 Mpps",
        "the paper's headline: a latency-sensitive GET tenant beside a "
        "1 KiB SET hog over contended DMA; reorders in sched show as a "
        "sim_p99_latency_us change"),
    Workload(
        "rack_incast", "open, 1 us gap per flow",
        "32-NIC symmetric incast, 992 tag flows, monolithic: memo "
        "working set, wires, host model, 6x6 meshes; setup_s and "
        "peak_rss_mb are large enough to see"),
    Workload(
        "rack_incast_shard2", "open, 1 us gap per flow",
        "the identical rack through run_sharded(workers=2); outputs "
        "must equal rack_incast's bit for bit. Run wall includes worker "
        "start-up and the in-worker NIC build; sim.shard.* splits out "
        "sync cost"),
    Workload(
        "rack_lossy", "closed, selective-repeat window 16, 4 us gap",
        "6-NIC reliable rack whose every cable is cut for 6 us at a "
        "seeded instant: SACK, retransmits, RTO timers, ACK traffic "
        "and checksum verification do work no lossless workload does"),
    Workload(
        "lb_drain", "closed, go-back-N window 16, 2 us gap",
        "VIP load balancer with a mid-run backend drain: register "
        "writes keep invalidating the RMT memo, so this workload "
        "bypasses it; also heartbeats, rule-epoch churn and one "
        "go-back-N RTO recovery"),
]

#: Simulator layers, named after the packages under ``src/repro/``.
#: ``builtins`` is C builtins plus the standard library; ``bench`` is
#: the ledger's own load generators and delivery recorders.
LAYERS = (
    "sim.kernel", "sim.shard", "sim.stats", "packet", "noc.scalar",
    "noc.express", "rmt.parse", "rmt.match", "rmt.memo", "engines",
    "sched", "core", "core.train", "workloads", "reliability", "faults",
    "lb", "telemetry", "builtins", "bench",
)

#: Written down before measuring: which end-to-end number a layer's
#: metrics should move, on which workload.
LAYER_MOVES: Dict[str, str] = {
    "sim.kernel": "wall_us_per_frame on chain_sparse; barely on "
                  "chain_saturated",
    "sim.shard": "rack_incast_shard2 only; its setup_s is the parent's "
                 "share alone (workers build their NICs inside the run "
                 "wall), so compare neither setup_s nor wall_us_per_frame "
                 "with rack_incast's -- sim.shard.wall_ratio_vs_mono "
                 "divides by rack_incast's set-up plus run",
    "sim.stats": "every workload a little (latency trackers per hop)",
    "packet": "rack_incast (frame building lands in setup_s and "
              "peak_rss_mb there)",
    "noc.scalar": "chain_saturated and kvs_isolation, not chain_sparse",
    "noc.express": "chain_sparse; barely chain_saturated",
    "rmt.parse": "every workload per frame; largest on rack_incast",
    "rmt.match": "lb_drain (memo bypassed)",
    "rmt.memo": "chain_sparse and rack_incast; no change on lb_drain",
    "engines": "chain_saturated and kvs_isolation, not chain_sparse",
    "sched": "chain_saturated and kvs_isolation; a reorder shows as "
             "sim_p99_latency_us on kvs_isolation",
    "core": "rack_incast (host model), setup_s there (mesh "
            "construction)",
    "core.train": "nothing by default (batch_execution is off); the "
                  "paired ratio says what turning it on would do",
    "workloads": "rack_incast (wires)",
    "reliability": "rack_lossy (selective repeat, ~70 losses) and "
                   "lb_drain (go-back-N, one tail loss and one RTO); no "
                   "other workload.  Go-back-N recovery *mid-flow* is "
                   "not covered: its RTO re-arm stall moves 2x with the "
                   "seed",
    "faults": "rack_lossy and lb_drain (cable cuts; armed at set-up, "
              "the drops themselves are counted by workloads.wire)",
    "lb": "lb_drain only",
    "telemetry": "must read ~0 everywhere (idle cost); "
                 "telemetry.armed_wall_ratio guards the armed budget",
    "builtins": "every workload; heapq/struct/int.from_bytes time "
                "the simulator causes",
    "bench": "none -- the ledger's own overhead, reported so it "
             "cannot hide",
}


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: True when the value repeats bit-for-bit for a seed.
    exact: bool


#: ``(name, unit, better, exact)`` of everything the traced pass reports
#: besides the per-file buckets.
_COUNTERS_AND_PROBES = [
    ("trace.overhead_ratio", "ratio", "lower", False),
    ("trace.coverage_frac", "fraction", "higher", False),
    # Sharded execution: a profile=True pass plus one speculative pass.
    ("sim.shard.busy_s_max", "s", "lower", False),
    ("sim.shard.busy_s_min", "s", "lower", False),
    ("sim.shard.sync_wait_s", "s", "lower", False),
    ("sim.shard.sync_rounds", "count", "lower", True),
    ("sim.shard.wall_ratio_vs_mono", "ratio", "lower", False),
    ("sim.shard.spec_wall_ratio_vs_mono", "ratio", "lower", False),
    ("sim.shard.spec_rollbacks", "count", "lower", False),
    ("sim.shard.spec_capsules_replayed", "count", "lower", False),
    ("sim.shard.spec_rollback_s", "s", "lower", False),
    # Exact counters, read from public attributes and stats() trees.
    ("sim.kernel.events", "count", "lower", True),
    ("sim.kernel.events_per_frame", "1/frame", "lower", True),
    ("rmt.memo_hits", "count", "higher", True),
    ("rmt.memo_misses", "count", "lower", True),
    ("rmt.memo_hit_ratio", "ratio", "higher", True),
    ("rmt.memo_invalidations", "count", "lower", True),
    ("noc.express.flights", "count", "higher", True),
    ("noc.express.materialized", "count", "lower", True),
    ("noc.express.completed_ratio", "ratio", "higher", True),
    ("sched.pifo_depth_max", "count", "lower", True),
    ("sched.queue_wait_p99_ns", "ns", "lower", True),
    ("engines.processed", "count", "lower", True),
    ("engines.dropped", "count", "lower", True),
    ("reliability.retransmits", "count", "lower", True),
    ("reliability.rto_fired", "count", "lower", True),
    ("reliability.useful_frac", "fraction", "higher", True),
    ("faults.wire_drops", "count", "lower", True),
    ("lb.steered", "count", "higher", True),
    ("lb.affinity_hits", "count", "higher", True),
    ("lb.bypass", "count", "lower", True),
    ("lb.vip_memo_hit_ratio", "ratio", "higher", True),
    # Paired runs against the default configuration.
    ("core.train.wall_ratio_vs_default", "ratio", "lower", False),
    ("core.train.refusals", "count", "lower", True),
    ("telemetry.armed_wall_ratio", "ratio", "lower", False),
    # Isolated probes: fixed op counts, median of 5.
    ("sim.kernel.ns_per_event", "ns/event", "lower", False),
    ("packet.build_ns_per_frame_64", "ns/frame", "lower", False),
    ("packet.build_ns_per_frame_1500", "ns/frame", "lower", False),
    ("packet.parse_ns_per_frame_64", "ns/frame", "lower", False),
    ("packet.parse_ns_per_frame_1500", "ns/frame", "lower", False),
    ("packet.checksum_ns_per_kb", "ns/KiB", "lower", False),
    ("rmt.process_ns_memo_hit", "ns/op", "lower", False),
    ("rmt.process_ns_memo_off", "ns/op", "lower", False),
    ("rmt.process_ns_memo_thrash", "ns/op", "lower", False),
    ("sched.pifo_ns_per_op_d1", "ns/op", "lower", False),
    ("sched.pifo_ns_per_op_d256", "ns/op", "lower", False),
    ("noc.hop_ns_express", "ns/hop", "lower", False),
    ("noc.hop_ns_scalar", "ns/hop", "lower", False),
    ("lb.ring_owner_ns", "ns/op", "lower", False),
]

PER_LAYER: List[PerLayer] = [
    metric
    for layer in LAYERS
    # cProfile self time is indicative; call counts repeat exactly.
    for metric in (PerLayer(f"{layer}.self_s", "s", "lower", False),
                   PerLayer(f"{layer}.pycalls", "count", "lower", True))
] + [PerLayer(*row) for row in _COUNTERS_AND_PROBES]


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``: definitions only, in the
    fixed shape the stacked-PR driver reads."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
