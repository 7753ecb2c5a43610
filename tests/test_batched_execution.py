"""Batched execution must be invisible in simulated results.

``PanicConfig.batch_execution`` enables the train lane
(:mod:`repro.core.train`): a trajectory train replays a frame's whole
path inside its RX-arrival event.  It is a pure wall-clock optimisation:
the equivalence contract (DESIGN.md, "Batched execution") is that every
simulated observable -- delivery order, picosecond timestamps, the
full ``PanicNic.stats()`` tree, telemetry traces, sharded rack
reports -- is bit-identical with batching forced on and forced off.

These tests enforce that contract on the scenarios that stress it
hardest (chained contention, armed faults landing mid-train, traced
packets interleaved with rideable ones, same-timestamp control events,
rack shards at several worker counts), and separately prove the lane
actually fires (else it is dead code and the equivalence is vacuous).
"""

import dataclasses
import functools
import gc
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PanicConfig, PanicNic
from repro.core.topology import LinkSpec, NicSpec, RackTopology
from repro.engines.base import Engine
from repro.faults import FaultInjector, FaultPlan, attach_health_monitor
from repro.packet import Packet
from repro.sim import Simulator
from repro.sim.clock import NS, US
from repro.sim.shard import ShardError, run_monolithic, run_sharded
from repro.telemetry.config import IntConfig, TelemetryConfig
from repro.workloads.kvs import KvsWorkload, TenantSpec
from repro.workloads.rack import rack_topology
from tests import udp_frame


def _udp_packet(payload, seq, dscp, src_port=7777):
    frame = udp_frame(
        src_port=src_port, dst_port=8888, payload=payload, dscp=dscp,
        identification=seq & 0xFFFF)
    packet = Packet(frame)
    packet.meta.annotations["seq"] = seq
    return packet


def _watch_deliveries(sim, nic):
    """Record (sequence number, delivery timestamp) in delivery order."""
    deliveries = []

    def handler(packet, _queue):
        deliveries.append((packet.meta.annotations.get("seq"), sim.now))

    nic.host.software_handler = handler
    return deliveries


# ----------------------------------------------------------------------
# Scenario runners, parametrized on the batch knob
# ----------------------------------------------------------------------


def run_chaining(batch):
    """Multi-hop chaining with a tight gap: a mix of train-eligible
    uncontended frames, queueing that forces scalar handoffs, and
    same-timestamp races against already-scheduled arrivals."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1,
        offloads=("regex", "checksum", "checksum1"),
        batch_execution=batch,
        offload_params={"regex": {"patterns": [b"x"],
                                  "cycles_per_byte": 0.5}},
    ))
    nic.control.route_dscp(1, ["checksum", "regex", "checksum1"])
    deliveries = _watch_deliveries(sim, nic)
    for i in range(150):
        sim.schedule_at(i * 200_000, nic.inject,
                        _udp_packet(b"y" * 200, seq=i, dscp=1))
    sim.run()
    nic.mesh.assert_drained()
    return deliveries, sim.now, nic.stats()


def run_fault_recovery(batch):
    """Armed crash + health monitor + failover: the fault lands while
    trains are in flight, and the lane must stand down (engine-ready
    checks, heartbeat CONTROL traffic) without perturbing anything."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1,
        offloads=("ipsec", "ipsec1", "compression", "kvcache"),
        seed=3,
        batch_execution=batch,
    ))
    nic.set_backup("ipsec", "ipsec1")
    nic.control.route_dscp(10, ["ipsec"])
    nic.control.route_dscp(12, ["ipsec1"])
    monitor = attach_health_monitor(nic)
    monitor.start()
    plan = FaultPlan(seed=3).crash_engine(30 * US, "ipsec")
    FaultInjector(nic, plan).arm()
    deliveries = _watch_deliveries(sim, nic)

    def inject(i=0):
        if i >= 200:
            return
        nic.inject(_udp_packet(bytes(120), seq=i, src_port=1000 + i,
                               dscp=10 if i % 2 == 0 else 12))
        sim.schedule(150 * NS, inject, i + 1)

    inject()
    sim.run(until_ps=150 * US)
    monitor.stop()
    sim.run()
    return deliveries, sim.now, nic.stats()


def run_stall_backlog(batch):
    """Stall an engine under load, then recover it: the backlog drains
    through the scalar service loop, batching on or off."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1,
        offloads=("checksum",),
        seed=7,
        batch_execution=batch,
    ))
    nic.control.route_dscp(1, ["checksum"])
    plan = (FaultPlan(seed=7)
            .stall_engine(10 * US, "checksum")
            .recover_engine(80 * US, "checksum"))
    FaultInjector(nic, plan).arm()
    deliveries = _watch_deliveries(sim, nic)
    # Frames 0..29 at a 2 us gap: everything after 10 us queues behind
    # the stalled engine and is still waiting at the 80 us recovery.
    for i in range(30):
        sim.schedule_at(i * 2 * US, nic.inject,
                        _udp_packet(bytes(160), seq=i, dscp=1))
    sim.run()
    nic.mesh.assert_drained()
    return deliveries, sim.now, nic.stats(), nic


def run_traced(batch):
    """Telemetry sampling on: traced packets must go scalar (spans need
    real events) while untraced neighbours keep riding trains, and the
    trace itself must be bit-identical either way."""
    sim = Simulator()
    telemetry = TelemetryConfig(sample_every=4)
    nic = PanicNic(sim, PanicConfig(
        ports=1,
        offloads=("checksum", "checksum1"),
        seed=11,
        telemetry=telemetry,
        batch_execution=batch,
    ))
    nic.control.route_dscp(1, ["checksum", "checksum1"])
    deliveries = _watch_deliveries(sim, nic)
    for i in range(80):
        sim.schedule_at(i * 500_000, nic.inject,
                        _udp_packet(b"z" * 180, seq=i, dscp=1))
    sim.run()
    nic.mesh.assert_drained()
    trace = nic.telemetry.tracer.report()
    return deliveries, sim.now, nic.stats(), trace


def run_control_race(batch):
    """Control-plane reprogramming racing trains at the picosecond.

    A route for DSCP class 2 is installed by an event at exactly frame
    20's injection instant, and a second frame is injected at exactly
    frame 30's instant: same-timestamp FIFO events forbid trains (the
    horizon is None while the lane drains), so both races must resolve
    in scalar schedule order in either mode."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1,
        offloads=("checksum", "checksum1"),
        batch_execution=batch,
    ))
    nic.control.route_dscp(1, ["checksum"])
    deliveries = _watch_deliveries(sim, nic)
    gap = 2 * US
    for i in range(40):
        sim.schedule_at(i * gap, nic.inject,
                        _udp_packet(b"w" * 200, seq=i,
                                    dscp=1 if i % 2 == 0 else 2))
    # Class 2 gains a route mid-stream: odd frames before this instant
    # take the unprogrammed default path, odd frames after it take the
    # two-hop chain -- and the reprogramming event lands at the same
    # timestamp as frame 20's injection.
    sim.schedule_at(20 * gap, nic.control.route_dscp,
                    2, ["checksum", "checksum1"])
    # Two injections at one instant: the second frame's arrival, one
    # wire time behind the first's, bounds the first's ride.
    sim.schedule_at(30 * gap, nic.inject,
                    _udp_packet(b"w" * 200, seq=100, dscp=1))
    sim.run()
    nic.mesh.assert_drained()
    return deliveries, sim.now, nic.stats()


SCENARIOS = {
    "chaining": run_chaining,
    "fault_recovery": run_fault_recovery,
    "control_race": run_control_race,
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_batched_is_bit_identical(scenario):
    run = SCENARIOS[scenario]
    on_deliveries, on_now, on_stats = run(batch=True)
    off_deliveries, off_now, off_stats = run(batch=False)
    # Same packets, same order, same picosecond delivery timestamps.
    assert on_deliveries == off_deliveries
    assert len(on_deliveries) > 0
    # Simulation ends at the same instant.
    assert on_now == off_now
    # Every counter, histogram and meter in the stats tree agrees.
    assert on_stats == off_stats


def test_batched_is_bit_identical_under_stall_backlog():
    on = run_stall_backlog(batch=True)
    off = run_stall_backlog(batch=False)
    assert on[:3] == off[:3]
    assert len(on[0]) == 30


def test_batched_is_bit_identical_with_telemetry():
    on_deliveries, on_now, on_stats, on_trace = run_traced(batch=True)
    off_deliveries, off_now, off_stats, off_trace = run_traced(batch=False)
    assert on_deliveries == off_deliveries
    assert on_now == off_now
    assert on_stats == off_stats
    # The sampled capsule set and every span timestamp agree too.
    assert on_trace == off_trace
    assert len(on_trace) > 0


# ----------------------------------------------------------------------
# The lane must actually fire (else the equivalence above is vacuous)
# ----------------------------------------------------------------------


def test_trains_actually_fire_and_elide_events():
    def run(batch):
        sim = Simulator()
        nic = PanicNic(sim, PanicConfig(
            ports=1, offloads=("checksum", "checksum1"),
            batch_execution=batch,
        ))
        nic.control.route_dscp(1, ["checksum", "checksum1"])
        for i in range(50):
            sim.schedule_at(i * 20_000_000, nic.inject,
                            _udp_packet(b"y" * 200, seq=i, dscp=1))
        sim.run()
        return sim.events_fired, nic

    on_events, on_nic = run(batch=True)
    off_events, off_nic = run(batch=False)
    assert off_nic.train_lane is None
    lane = on_nic.train_lane.stats()
    assert set(lane) == {
        "trajectories", "trajectory_hops", "handoffs", "refusals"}
    # Every uncontended frame rides a full trajectory train...
    assert lane["trajectories"] == 50
    assert lane["trajectory_hops"] > 0
    # ...so the batched run fires a small fraction of the events.
    assert on_events < off_events // 3


@pytest.mark.parametrize("gaps_ps, mechanics", [
    # Sparse: every frame rides MAC -> RMT -> three offloads -> DMA ->
    # PCIe without meeting another.
    ((20_000_000,), (50, 300, 0, 0)),
    # Contended: 13 frames are refused at boarding, each by an express
    # flight reserving the MAC's router (flights launch only onto an
    # otherwise empty mesh), and the 37 that board hand off where they
    # catch up with another.
    ((150_000, 150_000, 1_500_000, 500_000), (37, 49, 37, 13)),
], ids=["sparse", "contended"])
def test_lane_mechanics_are_pinned(gaps_ps, mechanics):
    """Exact (trajectories, hops, handoffs, refusals) of two fixed
    drives: a change to where the ride boards, breaks off or hands off
    moves these before it moves any wall-clock number."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("regex", "checksum", "checksum1"),
        batch_execution=True,
        offload_params={"regex": {"patterns": [b"x"],
                                  "cycles_per_byte": 0.5}},
    ))
    nic.control.route_dscp(1, ["checksum", "regex", "checksum1"])
    at = 0
    for i in range(50):
        at += gaps_ps[i % len(gaps_ps)]
        sim.schedule_at(at, nic.inject,
                        _udp_packet(b"y" * 200, seq=i, dscp=1))
    sim.run()
    nic.mesh.assert_drained()
    assert tuple(nic.train_lane.stats().values()) == mechanics


def test_traced_frames_hand_off_but_neighbours_still_ride():
    sim = Simulator()
    telemetry = TelemetryConfig(sample_every=4)
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("checksum",), seed=11,
        telemetry=telemetry, batch_execution=True,
    ))
    nic.control.route_dscp(1, ["checksum"])
    for i in range(80):
        sim.schedule_at(i * 500_000, nic.inject,
                        _udp_packet(b"z" * 180, seq=i, dscp=1))
    sim.run()
    lane = nic.train_lane.stats()
    # Untraced frames ride; traced ones are refused into scalar events.
    assert 0 < lane["trajectories"] < 80
    assert len(nic.telemetry.tracer.report()) > 0


@pytest.mark.parametrize("never_rides", [
    dict(payload_mode="pointer"),
    dict(telemetry=TelemetryConfig(sample_every=1)),
    dict(int_=IntConfig()),
], ids=["pointer", "trace_every_frame", "int"])
def test_a_lane_that_could_never_ride_is_refused_at_build(never_rides):
    # Each of these used to build a lane that refused 50 frames of 50.
    with pytest.raises(ValueError, match="batch_execution=True with"):
        PanicConfig(batch_execution=True, **never_rides)
    PanicConfig(batch_execution=False, **never_rides)


# ----------------------------------------------------------------------
# The default: a lane wherever a train can board
# ----------------------------------------------------------------------


def test_the_default_builds_a_lane_and_false_builds_none():
    assert PanicNic(Simulator(), PanicConfig()).train_lane is not None
    assert PanicNic(Simulator(), PanicConfig(
        batch_execution=False)).train_lane is None


@pytest.mark.parametrize("never_rides, lifted", [
    (dict(payload_mode="pointer"), dict(payload_mode="full")),
    (dict(telemetry=TelemetryConfig(sample_every=1)), dict(telemetry=None)),
    (dict(int_=IntConfig()), dict(int_=None)),
], ids=["pointer", "trace_every_frame", "int"])
def test_the_default_builds_no_lane_where_none_could_ride(never_rides,
                                                           lifted):
    # No error either: the default asks for a lane only where one pays.
    config = PanicConfig(**never_rides)
    assert PanicNic(Simulator(), config).train_lane is None
    # The default is read at build time, not written into the field, so
    # lifting the blocker from the same config brings the lane back.
    lifted = dataclasses.replace(config, **lifted)
    assert lifted.batch_execution is None
    assert PanicNic(Simulator(), lifted).train_lane is not None


def run_kvs(batch):
    """A two-tenant KV drive on a default NIC (GETs beside a SET hog)."""
    sim = Simulator()
    config = PanicConfig(ports=1, seed=5)
    if batch is not None:
        config = dataclasses.replace(config, batch_execution=batch)
    nic = PanicNic(sim, config)
    deliveries = []

    def handler(packet, _queue):
        meta = packet.meta
        deliveries.append((meta.tenant, meta.annotations["request_ctx"],
                           sim.now, packet.data))

    nic.host.software_handler = handler
    workload = KvsWorkload(sim, nic, [
        TenantSpec(1, rate_pps=50_000, latency_sensitive=True,
                   key_space=20, get_fraction=1.0),
        TenantSpec(2, rate_pps=400_000, key_space=50, get_fraction=0.0,
                   value_bytes=512),
    ], seed=5, requests_per_tenant=60)
    workload.start()
    sim.run()
    nic.mesh.assert_drained()
    return (deliveries, sim.now, nic.stats(), workload.summary()), nic


def test_a_default_kvs_drive_rides_and_equals_the_scalar_oracle():
    on, nic = run_kvs(batch=None)
    off, _ = run_kvs(batch=False)
    assert on == off
    assert len(on[0]) > 0
    assert nic.train_lane.stats()["trajectories"] > 0


# ----------------------------------------------------------------------
# Generated drivers: lane on == lane off, however frames reach the MAC
# ----------------------------------------------------------------------

POOL = ("checksum", "regex", "compression", "ipsec")
CHAINS = st.lists(st.sampled_from(POOL), min_size=1, max_size=3, unique=True)
#: Inter-frame gaps: back to back; inside one engine service; about one
#: service; the PCIe coalescing timeout to the picosecond (the ride's
#: PCIe leg then finishes exactly on the previous frame's timer -- with
#: ``host_mem_jitter_ps=0`` below, a tie at the horizon); idle.
GAPS_PS = (0, 150 * NS, 600 * NS, 10 * US, 25 * US)
ISOLATED_PS = 10 * US


@functools.lru_cache(maxsize=None)
def _state_change_offsets(payload_bytes):
    """Every instant, relative to its injection, at which one unrouted
    frame alone on a scalar NIC fires an event (0 = the injection)."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1, offloads=POOL,
                                    batch_execution=False))
    log = [0]
    sim.set_fired_log(log)
    nic.inject(_udp_packet(b"g" * payload_bytes, seq=0, dscp=1))
    sim.run()
    return tuple(log)


@st.composite
def drives(draw):
    # 20-56 frames in phases of one gap each, so that queues get to
    # form, drain, and leave frames with the NIC to themselves.
    phases = draw(st.lists(
        st.tuples(st.sampled_from(GAPS_PS), st.integers(4, 7)),
        min_size=5, max_size=8))
    return {
        "chain": tuple(draw(CHAINS)),
        "sizes": draw(st.lists(st.sampled_from((18, 200, 1200)),
                               min_size=1, max_size=2)),
        "gaps": [gap for gap, length in phases for _ in range(length)],
        "jitter_ps": draw(st.sampled_from((0, 20 * NS))),
        # Unbounded engine queues, or two-deep with backpressure: refused
        # messages then park in the routers, whose round-robin order the
        # lane's rotations must have kept in step.
        "queue_capacity": draw(st.sampled_from((None, 2))),
        # each: one schedule_at per frame.  source: a callback injects,
        # *then* schedules its successor.  grouped: several injections
        # inside one callback.  burst: a head injected before run().
        "shape": draw(st.sampled_from(("each", "source", "grouped", "burst"))),
        "group": draw(st.integers(2, 5)),
        "window_ps": draw(st.sampled_from((None, 1 * US, 7 * US, 40 * US))),
        # Every fourth frame is class 2, unrouted (RMT -> DMA) until a
        # control-plane event routes it: at one such frame's injection
        # instant (state 0), or at the instant that frame, riding alone,
        # would fire its n-th event (1 arrival, 2 MAC served, 3 sent,
        # 4 at the RMT, 5 classified); scheduled before or after the
        # up-front injections it may tie with.
        "control": (3 + 4 * draw(st.integers(0, 4)), draw(st.integers(0, 5)),
                    tuple(draw(CHAINS)), draw(st.booleans())),
    }


def run_drive(drive, batch):
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=POOL, batch_execution=batch,
        host_mem_jitter_ps=drive["jitter_ps"],
        queue_capacity=drive["queue_capacity"], overflow="backpressure",
    ))
    chain, sizes, gaps = drive["chain"], drive["sizes"], drive["gaps"]
    nic.control.route_dscp(1, list(chain))
    deliveries = _watch_deliveries(sim, nic)
    due, packets = [], []
    for i, gap in enumerate(gaps):
        due.append(gap + (due[-1] if due else 0))
        packets.append(_udp_packet(b"g" * sizes[i % len(sizes)], seq=i,
                                   dscp=2 if i % 4 == 3 else 1,
                                   src_port=7000 + i % 3))
    frame, state, new_chain, control_first = drive["control"]
    control = functools.partial(
        sim.schedule_at,
        due[frame] + _state_change_offsets(sizes[frame % len(sizes)])[state],
        nic.control.route_dscp, 2, list(new_chain))

    def inject_group(start):
        for packet in packets[start:start + drive["group"]]:
            nic.inject(packet)

    def source(i):
        nic.inject(packets[i])
        if i + 1 < len(packets):
            sim.schedule_at(due[i + 1], source, i + 1)

    if control_first:
        control()  # older than every injection it ties with
    if drive["shape"] == "source":
        sim.schedule_at(due[0], source, 0)
    elif drive["shape"] == "grouped":
        for start in range(0, len(packets), drive["group"]):
            sim.schedule_at(due[start], inject_group, start)
    else:
        head = drive["group"] if drive["shape"] == "burst" else 0
        for packet in packets[:head]:
            nic.inject(packet)
        for i in range(head, len(packets)):
            sim.schedule_at(due[i], nic.inject, packets[i])
    if not control_first:
        control()  # younger than the injections scheduled up front

    clocks = []
    if drive["window_ps"] is not None:
        until = 0
        while sim.next_event_ps() is not None:
            until += drive["window_ps"]
            sim.run(until_ps=until)
            clocks.append(sim.now)
    sim.run()
    nic.mesh.assert_drained()
    lane = nic.train_lane.stats() if batch else None
    # Every router's round-robin order is state the next contended
    # arbitration reads; nic.stats() does not show it.
    arbitration = [[channel.name for channel in router._rr_order]
                   for router in nic.mesh.routers]
    return (deliveries, clocks, sim.now, nic.stats(), arbitration), lane


@settings(max_examples=100, deadline=None, derandomize=True)
@given(drives())
def test_generated_drives_are_bit_identical(drive):
    on, lane = run_drive(drive, batch=True)
    off, _ = run_drive(drive, batch=False)
    assert on == off
    # Idle admission is exact: the scalar run with every arrival pushed
    # onto the PIFO and popped back off reads the same.
    with mock.patch.object(Engine, "_IDLE_ADMISSION", False):
        queued, _ = run_drive(drive, batch=False)
    assert queued == off
    assert len(on[0]) == len(drive["gaps"])
    gaps = drive["gaps"] + [ISOLATED_PS]
    if any(before >= ISOLATED_PS and after >= ISOLATED_PS
           for before, after in zip(gaps, gaps[1:])):
        # A frame with the NIC to itself must ride, not fall back.
        assert lane["trajectories"] > 0


# ----------------------------------------------------------------------
# Sharded racks: batch on/off and mono/sharded all agree
# ----------------------------------------------------------------------


def _rack_reports(batch, workers=None):
    topo = rack_topology(nics=4, frames=6, batch=batch)
    if workers is None:
        return run_monolithic(topo).reports
    return run_sharded(topo, workers=workers).reports


def test_rack_mono_batch_matches_scalar():
    assert _rack_reports(batch=True) == _rack_reports(batch=False)


@pytest.mark.parametrize("workers", [2, 4])
def test_rack_sharded_batch_matches_mono(workers):
    mono = _rack_reports(batch=True)
    sharded = _rack_reports(batch=True, workers=workers)
    assert sorted(sharded) == sorted(mono)
    for name, report in mono.items():
        assert sharded[name]["deliveries"] == report["deliveries"]
        assert sharded[name]["stats"] == report["stats"]


def _default_nic(sim, name, **params):
    nic = PanicNic(sim, PanicConfig(ports=1, **params), name=name)
    return nic, nic.stats


def _default_pair(**params):
    return RackTopology(
        [NicSpec(name, _default_nic, params) for name in ("a", "b")],
        [LinkSpec("a", "b")])


def test_speculation_refuses_a_default_lane_and_names_the_fix():
    with pytest.raises(ShardError, match=(
            r"[ab] was built with a train lane \(batch_execution=None, "
            r"the default.*build it with batch_execution=False")):
        run_sharded(_default_pair(), workers=2, speculative=True)
    # The fix the message names.
    run_sharded(_default_pair(batch_execution=False), workers=2,
                speculative=True)


# ----------------------------------------------------------------------
# Lifetime: the lane holds no packet references after the run
# ----------------------------------------------------------------------


class _WeakrefPacket(Packet):
    """Packet is slotted; this adds just enough to hang a weakref on."""

    __slots__ = ("__weakref__",)


def test_lane_releases_packets_after_run():
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("checksum",), batch_execution=True,
    ))
    nic.control.route_dscp(1, ["checksum"])
    refs = []
    for i in range(10):
        template = _udp_packet(b"r" * 64, seq=i, dscp=1)
        packet = _WeakrefPacket(template.data)
        packet.meta.annotations["seq"] = i
        refs.append(weakref.ref(packet))
        sim.schedule_at(i * 2 * US, nic.inject, packet)
        del template, packet
    sim.run()
    assert nic.train_lane.stats()["trajectories"] > 0
    gc.collect()
    # The lane's memo tables key on scalars, not packets; nothing may
    # pin the frames after their trajectories complete.
    assert all(ref() is None for ref in refs)
