"""End-to-end reliable delivery over lossy rack wires.

The go-back-N transport (``repro.reliability.transport``) lives in host
software and speaks through the unmodified NIC pipeline, so these tests
run whole racks: segment framing, window discipline, cumulative ACKs,
duplicate suppression, RTO backoff with bounded retries surfacing
``DeliveryFailed``, the >=90% goodput floor at 1% wire loss, telemetry
instants for retransmission events, and bit-identical behaviour between
monolithic and sharded execution while wires are dropping frames.
"""

import pytest

from repro.core.config import PanicConfig
from repro.core.panic import PanicNic
from repro.faults.plan import FaultPlan
from repro.faults.rack import wire_target
from repro.packet.builder import build_udp_frame
from repro.reliability.transport import (
    ACK,
    DATA,
    HEADER_BYTES,
    ReliableTransport,
    default_rto_ps,
    pack_segment,
    parse_segment,
)
from repro.reliability.rack import reliable_rack_topology
from repro.sim.clock import US
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRng
from repro.sim.shard import run_monolithic, run_sharded
from repro.telemetry import TelemetryConfig


class TestSegmentFormat:
    def test_roundtrip_data_and_ack(self):
        seg = pack_segment(DATA, 2, 3, 41, b"hello")
        assert parse_segment(seg) == (DATA, 2, 3, 41, b"hello")
        ack = pack_segment(ACK, 3, 2, 7)
        assert parse_segment(ack) == (ACK, 3, 2, 7, b"")

    def test_ethernet_padding_is_harmless(self):
        seg = pack_segment(DATA, 0, 1, 0, b"x") + bytes(20)
        seg_type, _src, _dst, _seq, rest = parse_segment(seg)
        assert seg_type == DATA
        assert rest.startswith(b"x")

    def test_rejects_junk(self):
        assert parse_segment(b"") is None
        assert parse_segment(b"\x00" * (HEADER_BYTES - 1)) is None
        assert parse_segment(bytes(HEADER_BYTES)) is None  # bad magic
        bad_type = bytearray(pack_segment(DATA, 0, 1, 0))
        bad_type[2] = 9
        assert parse_segment(bytes(bad_type)) is None

    def test_default_rto_scales_with_propagation(self):
        assert default_rto_ps(0) == 30 * US
        assert default_rto_ps(1000) == 8 * 1000 + 30 * US


def _lone_transport(sim, **kw):
    """A transport on a NIC with no peer: every DATA frame leaves port 0
    and falls on the floor, so nothing is ever acknowledged."""
    nic = PanicNic(sim, PanicConfig(ports=1, offloads=("checksum",)))
    nic.control.route_dscp_tx(10, chain=["checksum"], egress_port=0)

    def frame_builder(dst, segment):
        return build_udp_frame(
            src_mac="02:00:00:00:00:01",
            dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1",
            dst_ip="10.0.1.1",
            src_port=40000,
            dst_port=9000,
            payload=segment,
            dscp=10,
        )

    transport = ReliableTransport(
        nic, 0,
        frame_builder=frame_builder,
        rng=SeededRng(7).fork("reliability"),
        rto_initial_ps=default_rto_ps(0),
        **kw,
    )
    return nic, transport


class TestSenderStateMachine:
    def test_bounded_retries_surface_delivery_failed(self):
        sim = Simulator()
        nic, transport = _lone_transport(sim, max_retries=3)
        transport.send(1, b"payload")
        sim.run()  # drains: bounded retries guarantee heap exhaustion
        stats = transport.stats()
        assert stats["rto_fired"] == 4  # 3 retries + the aborting expiry
        assert stats["retransmits"] == 3
        assert stats["delivery_failures"] == 1
        (failure,) = transport.failures
        assert failure.dst == 1
        assert failure.first_seq == 0
        assert failure.retries == 4
        assert transport.flow_report() == {
            1: {"sent": 1, "acked": 0, "failed": 1, "aborted": 1}
        }

    def test_rto_backs_off_exponentially_to_the_cap(self):
        sim = Simulator()
        nic, transport = _lone_transport(sim, max_retries=8, jitter=0.0)
        transport.send(1, b"payload")
        rto0 = transport.rto_initial_ps
        sim.run()
        # With jitter disabled the expiries land exactly at the doubled
        # RTOs, capped at 16x: 1+2+4+8+16+16+16+16+16 initial-RTOs deep.
        expected = sum(min(2 ** i, 16) for i in range(9)) * rto0
        assert transport.failures[0].at_ps == expected

    def test_aborted_flow_refuses_new_work_quietly(self):
        sim = Simulator()
        nic, transport = _lone_transport(sim, max_retries=1)
        transport.send(1, b"payload")
        sim.run()
        assert transport.failures
        sent_before = transport.stats()["data_sent"]
        transport.send(1, b"more")
        sim.run()
        assert transport.stats()["data_sent"] == sent_before
        assert transport.flow_report()[1]["aborted"] == 1

    def test_constructor_validates_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="window"):
            _lone_transport(sim, window=0)
        with pytest.raises(ValueError, match="jitter"):
            _lone_transport(Simulator(), jitter=1.0)


def _run(topology, plan=None):
    return run_monolithic(topology, fault_plan=plan)


def _delivered_pairs(report):
    return [(src, seq) for src, seq, _t, _q in report["deliveries"]]


class TestEndToEnd:
    def test_reliability_block_lives_in_nic_stats(self):
        result = _run(reliable_rack_topology(nics=2, frames=2))
        rel = result.reports["nic0"]["stats"]["reliability"]
        for key in ("data_sent", "retransmits", "rto_fired", "acks_sent",
                    "delivered", "duplicates_suppressed"):
            assert key in rel

    def test_loss_heals_to_exactly_once_in_order(self):
        plan = (FaultPlan(seed=3)
                .wire_loss(0, wire_target(0, 1), drop_p=0.2)
                .wire_loss(0, wire_target(0, 2), drop_p=0.2))
        result = _run(
            reliable_rack_topology(nics=3, pattern="fanin", frames=15),
            plan,
        )
        report = result.reports["nic0"]
        # Every frame from both senders arrived exactly once, in order
        # per source, despite heavy loss in both directions.
        for src in (1, 2):
            assert [seq for s, seq in _delivered_pairs(report)
                    if s == src] == list(range(15))
        retransmits = sum(
            result.reports[n]["stats"]["reliability"]["retransmits"]
            for n in ("nic1", "nic2")
        )
        assert retransmits > 0
        drops = sum(s["loss_drops"] for s in result.wire_stats.values())
        assert drops > 0

    def test_goodput_floor_at_one_percent_loss(self):
        # The ISSUE's acceptance bar: >=90% goodput at 1% wire loss,
        # with the recovery visible in the stats.  Go-back-N with
        # generous RTOs actually delivers everything here.
        plan = FaultPlan(seed=1)
        for j in (1, 2, 3):
            plan.wire_loss(0, wire_target(0, j), drop_p=0.01)
        result = _run(
            reliable_rack_topology(nics=4, pattern="fanin", frames=30),
            plan,
        )
        sent = sum(r["sent"] for r in result.reports.values())
        delivered = sum(
            len(r["deliveries"]) for r in result.reports.values()
        )
        assert delivered / sent >= 0.90
        assert not any(r["failures"] for r in result.reports.values())

    def test_permanent_cut_aborts_and_still_drains(self):
        plan = FaultPlan().wire_down(0, wire_target(0, 1))
        result = _run(
            reliable_rack_topology(nics=3, pattern="fanin", frames=5),
            plan,
        )
        dead = result.reports["nic1"]
        assert dead["failures"], "cut flow must surface DeliveryFailed"
        assert dead["tx_flows"][0]["aborted"] == 1
        assert dead["tx_flows"][0]["acked"] == 0
        # The untouched sender was not collateral damage.
        assert [seq for s, seq in
                _delivered_pairs(result.reports["nic0"]) if s == 2] == \
            list(range(5))

    def test_flap_heals_without_duplicates(self):
        plan = FaultPlan().flap_wire(20 * US, 120 * US, wire_target(0, 1))
        result = _run(
            reliable_rack_topology(nics=2, frames=20), plan,
        )
        for name in ("nic0", "nic1"):
            pairs = _delivered_pairs(result.reports[name])
            assert len(pairs) == len(set(pairs)) == 20
            assert not result.reports[name]["failures"]
        assert any(
            s["down_drops"] for s in result.wire_stats.values()
        )


class TestRetransmitTelemetry:
    def test_rto_and_retransmit_instants_recorded(self):
        plan = FaultPlan(seed=3).wire_loss(
            0, wire_target(0, 1), drop_p=0.2)
        result = _run(
            reliable_rack_topology(
                nics=2, frames=15,
                telemetry=TelemetryConfig(sample_every=0),
            ),
            plan,
        )
        kinds = {
            span[2]
            for name in result.reports
            for span in result.reports[name].get("trace", ())
        }
        assert "rel_rto" in kinds
        assert "rel_retransmit" in kinds


class TestShardedReliability:
    def test_mono_equals_sharded_under_loss(self):
        def plan():
            return (FaultPlan(seed=9)
                    .wire_loss(0, wire_target(0, 1), drop_p=0.05)
                    .wire_loss(0, wire_target(0, 2), drop_p=0.05)
                    .flap_wire(30 * US, 80 * US, wire_target(0, 3)))

        def topo():
            return reliable_rack_topology(
                nics=4, pattern="fanin", frames=20)

        mono = run_monolithic(topo(), fault_plan=plan())
        sharded = run_sharded(topo(), workers=2, fault_plan=plan())
        assert mono.reports == sharded.reports
        assert mono.wire_stats == sharded.wire_stats
        assert any(
            s["loss_drops"] or s["down_drops"]
            for s in mono.wire_stats.values()
        )
