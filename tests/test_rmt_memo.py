"""The RMT flow memo must be invisible in simulated results.

``PanicConfig.rmt_memo`` enables the flow-keyed trajectory memo
(:class:`repro.rmt.pipeline.TrajectoryMemo`): repeat flows skip the
match machinery while every action is re-executed on the live PHV.  The
contract matches ``fast_path``: every simulated observable -- delivery
tuples, picosecond timestamps, the full ``stats()`` tree, and table hit
counters -- is bit-identical with the memo on or off.  The scenarios
here stress the cases where a naive result cache would diverge:
control-plane reprogramming mid-run, time-dependent slack deadlines,
stateful actions that write registers (WFQ slack), and failover
remaps rewriting entry params in place.
"""

import pytest

from repro.core import PanicConfig, PanicNic
from repro.faults import FaultInjector, FaultPlan, attach_health_monitor
from repro.packet import (
    KvOpcode, KvRequest, Packet, build_kv_request_frame,
)
from repro.rmt.pipeline import RmtPipeline
from repro.rmt.table import MatchKey
from repro.sim import Simulator
from repro.sim.clock import NS, US
from tests import udp_frame


def _udp_packet(payload, seq, dscp, src_port=7777):
    frame = udp_frame(
        src_port=src_port, dst_port=8888, payload=payload, dscp=dscp,
        identification=seq & 0xFFFF)
    packet = Packet(frame)
    packet.meta.annotations["seq"] = seq
    return packet


def _watch_deliveries(sim, nic):
    deliveries = []

    def handler(packet, _queue):
        deliveries.append((packet.meta.annotations.get("seq"), sim.now))

    nic.host.software_handler = handler
    return deliveries


def _table_hits(nic):
    """Every entry's hit counter, keyed by (table, patterns)."""
    out = {}
    for stage in nic.control.program.stages:
        for entry in stage.table.entries():
            out[(stage.table.name, entry.patterns)] = entry.hits
    return out


def run_steady_flows(rmt_memo):
    """Two flows, chained offloads, per-class slack -- the common case
    the memo exists to accelerate."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("checksum", "compression"), rmt_memo=rmt_memo,
    ))
    nic.control.route_dscp(5, ["checksum"])
    nic.control.route_dscp(6, ["compression"])
    nic.control.set_dscp_slack(5, 50 * US)
    nic.control.set_dscp_slack(6, 400 * US)
    deliveries = _watch_deliveries(sim, nic)
    for i in range(120):
        sim.schedule_at(i * 300_000, nic.inject,
                        _udp_packet(bytes(100), seq=i, dscp=5 + (i % 2)))
    sim.run()
    return deliveries, sim.now, nic.stats(), _table_hits(nic)


def run_control_plane_churn(rmt_memo):
    """Reprogram tables mid-run: the memo must forget stale trajectories
    the instant an entry is added or removed."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("checksum", "compression"), rmt_memo=rmt_memo,
    ))
    nic.control.route_dscp(5, ["checksum"])
    deliveries = _watch_deliveries(sim, nic)

    def reroute():
        # Flow 5 now takes the compression lane instead.
        table = nic.control.program.table("dscp_route")
        table.remove_entry(next(entry for entry in table.entries()
                                if entry.patterns == (b"rx", 5)))
        nic.control.route_dscp(5, ["compression"])

    def add_slack():
        nic.control.set_dscp_slack(5, 30 * US)

    sim.schedule_at(20 * US, reroute)
    sim.schedule_at(40 * US, add_slack)
    for i in range(150):
        sim.schedule_at(i * 400_000, nic.inject,
                        _udp_packet(bytes(80), seq=i, dscp=5))
    sim.run()
    return deliveries, sim.now, nic.stats(), _table_hits(nic)


def run_wfq_policy(rmt_memo):
    """A slack action that writes register state on every packet: replay
    must re-execute it, packet by packet, or virtual finish times drift."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("checksum",), rmt_memo=rmt_memo,
    ))
    nic.control.enable_wfq({1: 3.0, 2: 1.0}, cost_ps=4 * US)
    deliveries = _watch_deliveries(sim, nic)
    packets = []
    for i in range(100):
        packet = build_kv_request_frame(
            KvRequest(KvOpcode.GET, 1 + (i % 2), i, b"k"))
        packet.meta.annotations["seq"] = i
        packets.append(packet)
        sim.schedule_at(i * 250_000, nic.inject, packet)
    sim.run()
    stamped = {1: [], 2: []}
    for packet in packets:
        stamped[packet.meta.tenant].append(packet.panic.slack_ps)
    # WFQ ran: both tenants stay backlogged, so each deadline is its
    # tenant's last plus cost / weight, and the 3x tenant's advance a
    # third as fast.
    for tenant, step in ((1, 1_333_333), (2, 4 * US)):
        deadlines = stamped[tenant]
        assert {b - a for a, b in zip(deadlines, deadlines[1:])} == {step}
    # The deadlines are compared memo on vs off along with the deliveries.
    return (deliveries + sorted(stamped.items()), sim.now, nic.stats(),
            _table_hits(nic))


def run_failover_remap(rmt_memo):
    """Crash + failover rewrites chain params in place (remap_engine):
    replayed entries must serve the remapped chain."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("ipsec", "ipsec1"), seed=3, rmt_memo=rmt_memo,
    ))
    nic.set_backup("ipsec", "ipsec1")
    nic.control.route_dscp(10, ["ipsec"])
    monitor = attach_health_monitor(nic)
    monitor.start()
    FaultInjector(nic, FaultPlan(seed=3).crash_engine(30 * US, "ipsec")).arm()
    deliveries = _watch_deliveries(sim, nic)

    def inject(i=0):
        if i >= 150:
            return
        nic.inject(_udp_packet(bytes(120), seq=i, dscp=10))
        sim.schedule(200 * NS, inject, i + 1)

    inject()
    sim.run(until_ps=120 * US)
    monitor.stop()
    sim.run()
    return deliveries, sim.now, nic.stats(), _table_hits(nic)


SCENARIOS = {
    "steady_flows": run_steady_flows,
    "control_plane_churn": run_control_plane_churn,
    "wfq_policy": run_wfq_policy,
    "failover_remap": run_failover_remap,
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_memo_is_bit_identical(scenario):
    run = SCENARIOS[scenario]
    on_deliveries, on_now, on_stats, on_hits = run(rmt_memo=True)
    off_deliveries, off_now, off_stats, off_hits = run(rmt_memo=False)
    assert on_deliveries == off_deliveries
    assert len(on_deliveries) > 0
    assert on_now == off_now
    assert on_stats == off_stats
    # Direct table counters agree entry by entry.
    assert on_hits == off_hits


def test_memo_actually_hits():
    """The memo must do real work on steady flows (else it is dead code)."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1, offloads=("checksum",)))
    nic.control.route_dscp(5, ["checksum"])
    for i in range(60):
        sim.schedule_at(i * 300_000, nic.inject,
                        _udp_packet(bytes(90), seq=i, dscp=5))
    sim.run()
    memo = nic.rmt.pipeline.memo
    assert memo is not None
    assert memo.hits > memo.misses
    assert memo.hits + memo.misses > 0


def test_memo_invalidates_on_table_mutation():
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1, offloads=("checksum",)))
    nic.control.route_dscp(5, ["checksum"])
    for i in range(10):
        sim.schedule_at(i * 300_000, nic.inject,
                        _udp_packet(bytes(90), seq=i, dscp=5))
    sim.run()
    memo = nic.rmt.pipeline.memo
    before = memo.invalidations
    nic.control.set_dscp_slack(5, 10 * US)
    assert memo.invalidations == before + 1


def test_memo_invalidates_on_register_write():
    from repro.rmt.pipeline import RmtProgram

    program = RmtProgram("p")
    register = program.add_register("seq", 1)
    program.add_table("t", [MatchKey("meta.direction")])
    program.table("t").add([b"rx"], "set_queue", {"queue": 1})
    pipeline = RmtPipeline(program, memo=True)
    frame = udp_frame(src_port=1, dst_port=2, payload=bytes(20))
    for _ in range(3):
        pipeline.process(frame, metadata={"direction": b"rx"})
    assert pipeline.memo.hits == 2
    before = pipeline.memo.invalidations
    register.write(0, 7)
    assert pipeline.memo.invalidations == before + 1
    # Next packet re-records rather than replaying a stale trajectory.
    pipeline.process(frame, metadata={"direction": b"rx"})
    assert pipeline.memo.misses == 2


def test_register_writing_flows_never_cached():
    """count writes a register every packet; such flows must
    fall back to full traversals (the write dirties the recording)."""
    from repro.rmt.pipeline import RmtProgram

    program = RmtProgram("p")
    program.add_register("ctr", 1)
    program.add_table("t", [MatchKey("meta.direction")])
    program.table("t").add([b"rx"], "count", {"register": "ctr"})
    pipeline = RmtPipeline(program, memo=True)
    frame = udp_frame(src_port=1, dst_port=2, payload=bytes(20))
    for _ in range(5):
        pipeline.process(frame, metadata={"direction": b"rx"})
    assert pipeline.memo.hits == 0
    assert program.registers["ctr"].read(0) == 5


def test_memo_capacity_is_bounded():
    from repro.rmt.pipeline import RmtProgram

    program = RmtProgram("p")
    program.add_table("t", [MatchKey("udp.src_port")])
    pipeline = RmtPipeline(program, memo=True)
    pipeline.memo.max_entries = 8
    for port in range(1, 40):
        frame = udp_frame(src_port=port, dst_port=2, payload=bytes(20))
        pipeline.process(frame)
    assert len(pipeline.memo._cache) <= 8


def test_replayed_register_write_that_moves_the_flow_key():
    """A replayed stateful action that writes a register (whose listener
    clears the whole cache) and also rewrites a match-relevant field: the
    replay falls back to full lookups for the rest of the stages and must
    not trip over its own, already-evicted, flow."""
    from repro.rmt.pipeline import RmtProgram

    def gate(phv, ctx):
        register = ctx.register("r")
        if ctx.now_ps >= 1000:
            register.write(0, 1)
            phv.set("meta.lane", 7)

    frame = udp_frame(src_port=1, dst_port=2, payload=bytes(20))
    outcomes = []
    for memo in (False, True):
        program = RmtProgram("p")
        register = program.add_register("r", 1)
        program.add_action("gate", gate)
        program.add_table("t", [MatchKey("meta.direction")]).add(
            [b"rx"], "gate")
        lane = program.add_table("lane", [MatchKey("meta.lane")])
        hit = lane.add([7], "set_queue", {"queue": 3})
        pipeline = RmtPipeline(program, memo=memo)
        for now_ps in (0, 0, 2000):
            phv = pipeline.process(frame, metadata={"direction": b"rx"},
                                   now_ps=now_ps)
        outcomes.append((sorted(phv.fields()), register.read(0), hit.hits))
    assert outcomes[0] == outcomes[1]
    fields = dict(outcomes[1][0])
    assert fields["meta.lane"] == 7
    assert fields["meta.rx_queue"] == 3
