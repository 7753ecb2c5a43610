"""The seven ledger workloads.

Each builder takes ``(seed, scale, **variant)`` and returns a
:class:`Built`: everything up to, but not including, the first
``Simulator.run()`` happens inside the builder (that wall time is
``setup_s``); ``Built.run()`` is the timed phase; ``Built.collect()``
reads outputs and runs the workload's checks afterwards, untimed.

The program under test only ever sees generated inputs: ``seed`` feeds
``PanicConfig.seed``, the flow 5-tuples/keys and ``FaultPlan.seed``.
Sizes are constants chosen so one iteration costs 2-3.5 s on a 2-core
host; ``scale`` shrinks frame counts for warm-ups, paired ratio runs and
``test_ledger.py``, never the topology.

Rack workloads build from ``RackTopology`` specs here rather than
through ``run_monolithic`` so that construction and the run are timed
apart.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core import PanicConfig, PanicNic
from repro.core.topology import RackTopology
from repro.faults.plan import FaultPlan
from repro.faults.rack import (
    arm_rack_faults, wire_direction_label, wire_ends, wire_target,
)
from repro.lb.rack import VIP_INDEX, lb_layout, lb_rack_topology
from repro.packet import Packet, build_udp_frame
from repro.packet.builder import frame_checksums_ok, parse_frame
from repro.reliability.rack import reliable_rack_topology
from repro.reliability.selective import SR_HEADER_BYTES
from repro.sim import Simulator
from repro.sim.clock import MS, NS, US
from repro.sim.shard import ShardRunResult, run_sharded
from repro.telemetry.config import IntConfig, TelemetryConfig
from repro.workloads import KvsWorkload, TenantSpec
from repro.workloads.rack import rack_topology
from repro.workloads.wire import Wire

SHARD_WORKERS = 2


class Check(NamedTuple):
    """One output check; a failed one fails the benchmark command."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """What one iteration produced, in workload-independent form."""

    offered: int
    #: One key per frame handed to host software (duplicates included).
    delivered: List[tuple]
    #: Simulated ps from the instant a frame was due to host delivery,
    #: over the frames whose latency the workload reports.
    latencies_ps: List[int]
    payload_bits: int
    makespan_ps: int
    delivery_failed: int
    events: int
    #: NIC name -> stats tree (plus whatever else the digest covers).
    reports: Dict[str, Any]
    wire_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: NIC name -> (memo hits, misses, invalidations); empty when the
    #: NICs live in worker processes.
    memo: Dict[str, Tuple[int, int, int]] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)
    #: Workload-specific extras for the per-layer pass.
    extra: Dict[str, Any] = field(default_factory=dict)

    @cached_property
    def unique(self) -> int:
        return len(set(self.delivered))

    @property
    def failed(self) -> int:
        duplicates = len(self.delivered) - self.unique
        return (self.offered - self.unique) + self.delivery_failed \
            + duplicates

    def digest(self) -> str:
        """sha256 over canonical stats trees + delivery tuples + wire
        stats: two runs of one seed must agree on it bit for bit."""
        blob = json.dumps(
            _canonical([self.reports, sorted(self.delivered),
                        sorted(self.latencies_ps), self.wire_stats]),
            separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _canonical(obj: Any) -> Any:
    if isinstance(obj, dict):
        return [[repr(key), _canonical(obj[key])]
                for key in sorted(obj, key=repr)]
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, (bytes, bytearray)):
        return obj.hex()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


@dataclass
class Built:
    run: Callable[[], None]
    collect: Callable[[], Outcome]


def _scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(count * scale)))


def _memo_counters(
        nics: Dict[str, PanicNic]) -> Dict[str, Tuple[int, int, int]]:
    out = {}
    for name, nic in nics.items():
        hits = misses = invalidations = 0
        for tile in nic.rmt_tiles:
            memo = tile.pipeline.memo
            if memo is not None:
                hits += memo.hits
                misses += memo.misses
                invalidations += memo.invalidations
        out[name] = (hits, misses, invalidations)
    return out


def _checksum_check(frames: Sequence[bytes]) -> Check:
    bad = sum(1 for data in frames if not frame_checksums_ok(data))
    return Check("frame_checksums_ok", bad == 0,
                 f"{bad} of {len(frames)} frames handed to host software "
                 "fail their IPv4/UDP checksum")


def _conservation_check(outcome: Outcome) -> Check:
    return Check(
        "offered_equals_unique_delivered", outcome.failed == 0,
        f"offered {outcome.offered}, unique delivered {outcome.unique}, "
        f"duplicates {len(outcome.delivered) - outcome.unique}, "
        f"DeliveryFailed {outcome.delivery_failed}")


def _armed_configs(armed: bool):
    """Tracer on every packet plus side-channel INT, or nothing."""
    if not armed:
        return None, None
    return TelemetryConfig(sample_every=1), IntConfig()


# ---------------------------------------------------------------------------
# Single-NIC offload chains
# ---------------------------------------------------------------------------


def _flow_tuples(seed: int, flows: int) -> List[Tuple[str, int]]:
    rng = random.Random(seed)
    src_ip = "10.%d.%d.%d" % (rng.randrange(256), rng.randrange(256),
                              rng.randrange(1, 255))
    # Clear of the ports the parser gives meaning to (KV, rack tag).
    base_port = rng.randrange(20_000, 60_000)
    return [(src_ip, base_port + flow) for flow in range(flows)]


def _chain(
    seed: int,
    *,
    chain: Sequence[str],
    offload_params: Dict[str, dict],
    payload_sizes: Sequence[int],
    due_ps: Sequence[int],
    flows: int,
    batch: bool,
    armed: bool,
    queue_capacity: Optional[int] = None,
) -> Tuple[Built, PanicNic]:
    """One NIC, one DSCP-routed offload chain, an open-loop source that
    holds a single pending injection and reschedules itself."""
    telemetry, int_ = _armed_configs(armed)
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=tuple(chain), offload_params=offload_params,
        seed=seed, batch_execution=batch, telemetry=telemetry, int_=int_,
        queue_capacity=queue_capacity,
    ))
    nic.control.route_dscp(1, list(chain))

    tuples = _flow_tuples(seed, flows)
    payloads = {size: b"y" * size for size in set(payload_sizes)}
    frames = []
    for seq, size in enumerate(payload_sizes):
        src_ip, src_port = tuples[seq % flows]
        frames.append(build_udp_frame(
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip=src_ip, dst_ip="10.0.0.2",
            src_port=src_port, dst_port=8888,
            payload=payloads[size], dscp=1, identification=seq & 0xFFFF,
        ))
    total = len(frames)
    got: List[Tuple[int, int, bytes]] = []

    def on_delivery(packet: Packet, _queue: int) -> None:
        got.append((packet.meta.annotations["seq"], sim.now, packet.data))

    nic.host.software_handler = on_delivery

    def source(seq: int) -> None:
        packet = Packet(frames[seq])
        packet.meta.annotations["seq"] = seq
        nic.inject(packet)
        if seq + 1 < total:
            sim.schedule_at(due_ps[seq + 1], source, seq + 1)

    sim.schedule_at(due_ps[0], source, 0)

    def collect() -> Outcome:
        outcome = Outcome(
            offered=total,
            delivered=[(seq,) for seq, _t, _data in got],
            latencies_ps=[t - due_ps[seq] for seq, t, _data in got],
            payload_bits=8 * sum(payload_sizes[seq]
                                 for seq in {seq for seq, _t, _d in got}),
            makespan_ps=max((t for _seq, t, _data in got), default=0),
            delivery_failed=0,
            events=sim.events_fired,
            reports={nic.name: {"stats": nic.stats()}},
            memo=_memo_counters({nic.name: nic}),
        )
        outcome.checks += [
            _conservation_check(outcome),
            _checksum_check([data for _seq, _t, data in got]),
        ]
        if nic.train_lane is not None:
            outcome.extra["train_refusals"] = \
                nic.train_lane.stats()["refusals"]
        return outcome

    return Built(run=sim.run, collect=collect), nic


SPARSE_CHAIN = ("checksum", "checksum1", "checksum2", "checksum3",
                "checksum4")
SPARSE_FRAMES = 10_000
SPARSE_GAP_PS = 20 * US


def chain_sparse(seed: int, scale: float = 1.0, *, batch: bool = False,
                 armed: bool = False) -> Built:
    frames = _scaled(SPARSE_FRAMES, scale)
    built, _nic = _chain(
        seed, chain=SPARSE_CHAIN, offload_params={},
        payload_sizes=[200] * frames,
        due_ps=[seq * SPARSE_GAP_PS for seq in range(frames)],
        flows=1, batch=batch, armed=armed,
    )
    return built


SATURATED_FRAMES = 12_000
SATURATED_SIZES = (22, 200, 1400)
#: The regex engine (16 + 0.5 cycles/byte at 500 MHz) serves the
#: 64/242/1442 B frame mix in 614.7 ns on average.  Frames arrive in
#: bursts of 96 at 400 ns (faster than service, so the PIFO fills to
#: about a third of the burst) followed by an idle gap that brings the
#: mean arrival gap to 683 ns -- 90 % of the service rate, so every
#: burst's queue drains before the next.  A fixed 600 ns gap, which the
#: issue text suggests, is 102 % of the service rate and never drains.
SATURATED_BURST = 96
SATURATED_BURST_GAP_PS = 400 * NS
SATURATED_PERIOD_PS = 65_560 * NS
SATURATED_QUEUE_CAPACITY = 1024


def chain_saturated(seed: int, scale: float = 1.0, *, batch: bool = False,
                    armed: bool = False) -> Built:
    frames = _scaled(SATURATED_FRAMES, scale, floor=SATURATED_BURST)
    built, nic = _chain(
        seed, chain=("regex", "checksum"),
        offload_params={"regex": {"patterns": [b"x"],
                                  "cycles_per_byte": 0.5}},
        payload_sizes=[SATURATED_SIZES[seq % 3] for seq in range(frames)],
        due_ps=[(seq // SATURATED_BURST) * SATURATED_PERIOD_PS
                + (seq % SATURATED_BURST) * SATURATED_BURST_GAP_PS
                for seq in range(frames)],
        flows=64, batch=batch, armed=armed,
        queue_capacity=SATURATED_QUEUE_CAPACITY,
    )
    inner = built.collect

    def collect() -> Outcome:
        outcome = inner()
        depth = max(entry["queue_max"]
                    for entry in outcome.reports[nic.name]["stats"].values()
                    if "queue_max" in entry)
        outcome.checks.append(Check(
            "queue_depth_window", 4 < depth < SATURATED_QUEUE_CAPACITY,
            f"max PIFO depth {depth}: queues must form (> 4) and stay "
            f"below capacity ({SATURATED_QUEUE_CAPACITY})"))
        return outcome

    return Built(run=built.run, collect=collect)


# ---------------------------------------------------------------------------
# The paper's isolation claim
# ---------------------------------------------------------------------------

KVS_REQUESTS = 4_000
KVS_SENSITIVE, KVS_HOG = 1, 2


def kvs_isolation(seed: int, scale: float = 1.0) -> Built:
    requests = _scaled(KVS_REQUESTS, scale, floor=100)
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1, seed=seed))
    nic.host.contention_ps = 2 * US  # contended host memory (section 3.2)
    nic.control.set_tenant_slack(KVS_SENSITIVE, 10 * US)
    nic.control.set_tenant_slack(KVS_HOG, 10 * MS)
    got: List[Tuple[int, int, int, int, bytes]] = []

    def on_delivery(packet: Packet, _queue: int) -> None:
        meta = packet.meta
        got.append((meta.tenant, meta.annotations["request_ctx"],
                    meta.created_ps, sim.now, packet.data))

    nic.host.software_handler = on_delivery
    workload = KvsWorkload(sim, nic, [
        TenantSpec(KVS_SENSITIVE, rate_pps=50_000, latency_sensitive=True,
                   key_space=50, get_fraction=1.0),
        TenantSpec(KVS_HOG, rate_pps=2_000_000, key_space=500,
                   get_fraction=0.0, value_bytes=1024),
    ], seed=seed, requests_per_tenant=requests)
    workload.start()

    def collect() -> Outcome:
        unique = {(tenant, rid): data for tenant, rid, _c, _t, data in got}
        outcome = Outcome(
            offered=sum(client.requests.value
                        for client in workload.clients.values()),
            delivered=[(tenant, rid) for tenant, rid, _c, _t, _d in got],
            # The sensitive tenant's latency only: a scheduler change
            # that reorders ranks must show here.
            latencies_ps=[t - created for tenant, _r, created, t, _d in got
                          if tenant == KVS_SENSITIVE],
            payload_bits=8 * sum(len(parse_frame(data).payload)
                                 for data in unique.values()),
            makespan_ps=max((t for _te, _r, _c, t, _d in got), default=0),
            delivery_failed=0,
            events=sim.events_fired,
            reports={nic.name: {"stats": nic.stats()},
                     "kvs": {"summary": workload.summary()}},
            memo=_memo_counters({nic.name: nic}),
        )
        outcome.checks += [
            _conservation_check(outcome),
            _checksum_check([data for *_rest, data in got]),
        ]
        return outcome

    return Built(run=sim.run, collect=collect)


# ---------------------------------------------------------------------------
# Racks
# ---------------------------------------------------------------------------


def _build_mono_rack(topology: RackTopology, fault_plan=None):
    """``run_monolithic``'s construction, without its run: every NIC in
    one Simulator, real Wires, faults armed.  Host software handlers
    are tapped so delivered frames can be checksum-verified later."""
    sim = Simulator()
    nics: Dict[str, PanicNic] = {}
    reports: Dict[str, Callable[[], dict]] = {}
    host_frames: List[bytes] = []
    for spec in topology.nics:
        nic, report = spec.builder(sim, spec.name, **spec.params)
        inner = nic.host.software_handler

        def tap(packet, queue, inner=inner):
            host_frames.append(packet.data)
            if inner is not None:
                inner(packet, queue)

        nic.host.software_handler = tap
        nics[spec.name] = nic
        reports[spec.name] = report
    wires = []
    ends: Dict[Tuple[int, str], Any] = {}
    for index, link in enumerate(topology.links):
        wire = Wire(
            sim, nics[link.nic_a], nics[link.nic_b],
            name=f"wire{index}.{link.nic_a}-{link.nic_b}",
            propagation_ps=link.propagation_ps,
            port_a=link.port_a, port_b=link.port_b,
            fault_labels={end: wire_direction_label(index, link, end)
                          for end in ("a", "b")},
        )
        wires.append(wire)
        ends.update(wire_ends(wire, index))
    arm_rack_faults(fault_plan, topology, sim, nics, ends)
    return sim, nics, reports, wires, host_frames


def _rack_outcome(
    reports: Dict[str, dict],
    wire_stats: Dict[str, Dict[str, int]],
    events: int,
    *,
    due_ps: Callable[[int, int], int],
    payload_bytes: int,
    vip: bool = False,
) -> Outcome:
    """Fold per-NIC rack reports (``deliveries`` of ``(src, seq, t,
    queue)``, ``sent``, ``failures``) into an :class:`Outcome`.  On the
    load-balanced rack every flow targets the VIP, so a frame is
    ``(src, seq)`` whichever backend it landed on."""
    delivered: List[tuple] = []
    latencies: List[int] = []
    makespan = 0
    for name, report in reports.items():
        for src, seq, t_ps, _queue in report.get("deliveries", ()):
            delivered.append((src, seq) if vip else (src, name, seq))
            latencies.append(t_ps - due_ps(src, seq))
            makespan = max(makespan, t_ps)
    outcome = Outcome(
        offered=sum(report.get("sent", 0) for report in reports.values()),
        delivered=delivered,
        latencies_ps=latencies,
        payload_bits=8 * payload_bytes * len(set(delivered)),
        makespan_ps=makespan,
        delivery_failed=sum(len(report.get("failures", ()))
                            for report in reports.values()),
        events=events,
        reports=reports,
        wire_stats=wire_stats,
    )
    outcome.checks.append(_conservation_check(outcome))
    return outcome


def _mono_rack(topology: RackTopology, fault_plan=None,
               **outcome_kwargs) -> Tuple[Built, Dict[str, PanicNic]]:
    sim, nics, reports, wires, host_frames = _build_mono_rack(
        topology, fault_plan)

    def collect() -> Outcome:
        wire_stats: Dict[str, Dict[str, int]] = {}
        for wire in wires:
            wire_stats.update(wire.wire_stats())
        outcome = _rack_outcome(
            {name: report() for name, report in reports.items()},
            wire_stats, sim.events_fired, **outcome_kwargs)
        outcome.memo = _memo_counters(nics)
        outcome.checks.append(_checksum_check(host_frames))
        return outcome

    return Built(run=sim.run, collect=collect), nics


INCAST_NICS = 32
#: 32 x 4 is what the issue measured (0.26 s setup + 2.4 s run); the 6
#: frames per flow it also names costs 4.5 s an iteration on this host.
INCAST_FRAMES = 4
INCAST_GAP_PS = 1 * US
INCAST_PROPAGATION_PS = 8 * US
INCAST_PAYLOAD_BYTES = 256


def _incast_topology(seed: int, scale: float, armed: bool = False):
    telemetry, int_ = _armed_configs(armed)
    # Cable length is the seed's to choose, within 20 cm: otherwise the
    # rack builder leaves a seed nothing to move but host-memory jitter.
    propagation_ps = INCAST_PROPAGATION_PS + random.Random(seed).randrange(
        1000)
    return rack_topology(
        nics=INCAST_NICS, pattern="symmetric",
        frames=_scaled(INCAST_FRAMES, scale), gap_ps=INCAST_GAP_PS,
        payload_bytes=INCAST_PAYLOAD_BYTES,
        propagation_ps=propagation_ps, seed=seed, flow_id="tag",
        telemetry=telemetry, int_=int_,
    )


_INCAST_OUTCOME = dict(
    due_ps=lambda _src, seq: seq * INCAST_GAP_PS,
    payload_bytes=INCAST_PAYLOAD_BYTES,
)


def rack_incast(seed: int, scale: float = 1.0, *,
                armed: bool = False) -> Built:
    built, _nics = _mono_rack(_incast_topology(seed, scale, armed),
                              **_INCAST_OUTCOME)
    return built


def require_cores(workers: int = SHARD_WORKERS) -> None:
    """A multi-worker figure taken on fewer cores than workers measures
    time slicing, not sync cost: refuse instead of emitting numbers."""
    cores = os.cpu_count() or 1
    if cores < workers:
        raise RuntimeError(
            f"rack_incast_shard2 needs {workers} cores for its {workers} "
            f"workers but os.cpu_count() is {cores}; refusing to emit "
            "a sharded figure")


def rack_incast_shard2(seed: int, scale: float = 1.0, *,
                       speculative: bool = False,
                       profile: bool = False) -> Built:
    """The same rack through ``run_sharded``.  Worker start-up and the
    in-worker NIC build happen inside ``run_sharded`` and cannot be
    split out from the outside, so they count as run wall here (as they
    do for a user); set-up is the parent's share only."""
    require_cores()
    topology = _incast_topology(seed, scale)
    # What run_sharded will do first; failing here keeps a bad
    # partition out of the timed phase.
    topology.lookahead_ps(topology.assign_shards(SHARD_WORKERS))
    holder: List[ShardRunResult] = []

    def run() -> None:
        holder.append(run_sharded(topology, workers=SHARD_WORKERS,
                                  speculative=speculative, profile=profile))

    def collect() -> Outcome:
        result = holder[0]
        outcome = _rack_outcome(result.reports, result.wire_stats,
                                result.events_fired, **_INCAST_OUTCOME)
        outcome.extra["shard"] = result
        return outcome

    return Built(run=run, collect=collect)


LOSSY_NICS = 6
LOSSY_FRAMES = 80
LOSSY_GAP_PS = 4 * US
LOSSY_PAYLOAD_BYTES = 256
#: Every cable is cut once, for this long, at a seeded instant inside
#: this window (all flows are mid-stream then): each direction loses the
#: one or two frames and ACKs offered meanwhile, about 70 in all.
LOSSY_CUT_PS = 6 * US
LOSSY_CUT_WINDOW_PS = (40 * US, 250 * US)


def rack_lossy(seed: int, scale: float = 1.0) -> Built:
    """Selective repeat over cables that each drop a short burst.

    The issue asked for go-back-N under ``wire_loss(drop_p=0.01)``.
    Measured over ten seeds that reads p50 27-58 us and p99 196-297 us:
    ``ReliableTransport._pump`` re-arms the RTO timer on every offered
    payload, so a flow that loses a frame stalls until its sender stops
    offering, and when that happens is the seed's choice.  A metric
    that moves 2x with the seed can guard nothing, so the lossy
    workload runs the transport that recovers promptly (SACK, fast
    retransmit, adaptive RTO) under a loss whose *amount* is fixed and
    whose *timing* is seeded; go-back-N runs in ``lb_drain``, which
    loses a few frames where that stall is short and the same for
    every seed."""
    topology = reliable_rack_topology(
        nics=LOSSY_NICS, pattern="symmetric",
        frames=_scaled(LOSSY_FRAMES, scale, floor=4), gap_ps=LOSSY_GAP_PS,
        payload_bytes=LOSSY_PAYLOAD_BYTES, seed=seed, transport="sr",
    )
    plan = FaultPlan(seed=seed)
    rng = random.Random(seed)
    low, high = (int(edge * min(1.0, scale)) for edge in LOSSY_CUT_WINDOW_PS)
    for a in range(LOSSY_NICS):
        for b in range(a + 1, LOSSY_NICS):
            down = rng.randrange(low, high)
            plan.flap_wire(down, down + LOSSY_CUT_PS, wire_target(a, b))
    built, _nics = _mono_rack(
        topology, plan,
        due_ps=lambda _src, seq: seq * LOSSY_GAP_PS,
        payload_bytes=LOSSY_PAYLOAD_BYTES - SR_HEADER_BYTES,
    )
    return built


LB_NICS = 12
LB_BACKENDS = 4
LB_FRAMES = 200
LB_GAP_PS = 2 * US
LB_STAGGER_PS = 10 * US
LB_PAYLOAD_BYTES = 256
LB_SLOTS = 2048
LB_DRAIN = (2, 150 * US)
#: The first client's cable to the VIP is cut for this long, starting
#: when the client's frame this far from its last is due: the two or
#: three data frames offered meanwhile vanish.  So near the end of the
#: flow because go-back-N (see rack_lossy) cannot retransmit until its
#: sender stops offering; here that is 16 us later whatever the seed.
LB_CUT_PS = 5 * US
LB_CUT_FRAMES_FROM_END = 8


def lb_drain(seed: int, scale: float = 1.0) -> Built:
    frames = _scaled(LB_FRAMES, scale, floor=10)
    backends, clients = lb_layout(LB_NICS, LB_BACKENDS)
    # Heartbeats must outlive the staggered traffic so the drain is
    # observed by a live monitor.
    horizon_ps = (len(clients) * LB_STAGGER_PS + frames * LB_GAP_PS
                  + 100 * US)
    topology = lb_rack_topology(
        nics=LB_NICS, n_backends=LB_BACKENDS, frames=frames,
        gap_ps=LB_GAP_PS, stagger_ps=LB_STAGGER_PS,
        payload_bytes=LB_PAYLOAD_BYTES, seed=seed, transport="gbn",
        slots=LB_SLOTS, drain=LB_DRAIN,
        monitor_stop_ps=max(horizon_ps, LB_DRAIN[1] + 100 * US),
    )
    first_client = clients[0]
    cut_ps = max(1, frames - LB_CUT_FRAMES_FROM_END) * LB_GAP_PS
    plan = FaultPlan(seed=seed).flap_wire(
        cut_ps, cut_ps + LB_CUT_PS, wire_target(VIP_INDEX, first_client))
    built, nics = _mono_rack(
        topology, plan,
        due_ps=lambda src, seq: ((src - first_client) * LB_STAGGER_PS
                                 + seq * LB_GAP_PS),
        # The rack builder pads to payload_bytes - 16 whichever
        # transport carries it.
        payload_bytes=LB_PAYLOAD_BYTES - 16,
        vip=True,
    )
    inner = built.collect

    def collect() -> Outcome:
        outcome = inner()
        landed: Dict[int, set] = {}
        for backend in backends:
            for src, _seq, _t, _q in \
                    outcome.reports[f"nic{backend}"]["deliveries"]:
                landed.setdefault(src, set()).add(backend)
        split = {src: sorted(where) for src, where in landed.items()
                 if len(where) > 1}
        outcome.checks.append(Check(
            "single_backend_per_client", not split,
            f"clients whose seqs landed on two backends: {split}"))
        vip_hits, vip_misses, _inv = outcome.memo["nic0"]
        outcome.extra["vip_memo"] = (vip_hits, vip_misses)
        outcome.extra["steering"] = \
            outcome.reports["nic0"]["steering"]["stats"]
        return outcome

    return Built(run=built.run, collect=collect)


BUILDERS: Dict[str, Callable[..., Built]] = {
    "chain_sparse": chain_sparse,
    "chain_saturated": chain_saturated,
    "kvs_isolation": kvs_isolation,
    "rack_incast": rack_incast,
    "rack_incast_shard2": rack_incast_shard2,
    "rack_lossy": rack_lossy,
    "lb_drain": lb_drain,
}

#: Sharded workload -> the monolithic workload it must reproduce bit for
#: bit (and is timed against in a traced pass).
MONO_REFERENCE = {"rack_incast_shard2": "rack_incast"}

#: What each workload was built to load or bypass, as half-open ranges
#: ``(metric, low, high)`` on the counters of a full-size traced pass; a
#: workload that leaves its range no longer measures what its name says.
INF = float("inf")
_LOSSLESS = ("reliability.retransmits", 0, 1)
PREDICTIONS: Dict[str, List[Tuple[str, float, float]]] = {
    "chain_sparse": [("rmt.memo_hit_ratio", 0.9, INF),
                     ("noc.express.completed_ratio", 1.0, INF), _LOSSLESS],
    "chain_saturated": [("noc.express.completed_ratio", 0.0, 0.6),
                        _LOSSLESS],
    "kvs_isolation": [_LOSSLESS],
    "rack_incast": [_LOSSLESS],
    "rack_incast_shard2": [_LOSSLESS],
    "rack_lossy": [("reliability.retransmits", 1, INF)],
    "lb_drain": [("lb.vip_memo_hit_ratio", 0.0, 0.3),
                 ("reliability.rto_fired", 1, INF),
                 ("reliability.retransmits", 1, INF)],
}

#: The workload whose traced pass also runs the isolated probes (they do
#: not depend on a workload; the others report 0 for them).
PROBE_WORKLOAD = "chain_sparse"
#: Workloads a paired ``batch_execution=True`` run is taken on.
TRAIN_PAIRED = ("chain_sparse", "chain_saturated")
#: Workloads a paired armed-telemetry run is taken on.
TELEMETRY_PAIRED = ("chain_saturated", "rack_incast")
