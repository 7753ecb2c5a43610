"""One conformance suite for every recovery policy.

``ReliableTransport`` (go-back-N) and ``SelectiveRepeatTransport`` are
the same ``TransportCore`` with different loss recovery, so the contract
a workload relies on is stated once and run against both: in-order
exactly-once delivery whatever the wire does, ``sent == acked +
failed``, a bounded retry budget ending in ``DeliveryFailed``,
direct-server-return addressing, and refusal of anything that is not
the policy's own well-formed segment.  Policy-specific behaviour (SACK
arithmetic, Karn's rule, RTO back-off shape) stays in
``test_reliability.py`` / ``test_selective.py``.

Most tests run over a two-host harness with fake NICs and a scripted
wire (drop, duplicate and delay chosen per frame), which reaches
orderings a seeded rack run only hits by luck; the rest run real racks.
"""

import pytest

from repro.faults.plan import FaultPlan
from repro.faults.rack import wire_target
from repro.reliability.rack import reliable_rack_topology
from repro.reliability.selective import (
    SR_ACK,
    SR_DATA,
    SelectiveRepeatTransport,
    pack_sr_ack,
    pack_sr_data,
    parse_sr_segment,
)
from repro.reliability.transport import (
    ACK,
    DATA,
    DeliveryFailed,
    ReliableTransport,
    default_rto_ps,
    pack_segment,
    parse_segment,
)
from repro.sim.clock import US
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRng
from repro.sim.shard import run_monolithic
from repro.workloads.wire import DEFAULT_PROPAGATION_PS

RTO_PS = 10 * US
HOP_PS = 1 * US


class Policy:
    """What the suite needs to know about one transport."""

    def __init__(self, name, cls, parse, data_type, ack_type, data, ack):
        self.name = name
        self.cls = cls
        self.parse = parse
        self.data_type = data_type
        self.ack_type = ack_type
        self.data = data      # (src, dst, seq, payload) -> segment
        self.ack = ack        # (src, dst, cum) -> segment


GBN = Policy(
    "gbn", ReliableTransport, parse_segment, DATA, ACK,
    lambda src, dst, seq, payload: pack_segment(DATA, src, dst, seq,
                                                payload),
    lambda src, dst, cum: pack_segment(ACK, src, dst, cum))
SR = Policy(
    "sr", SelectiveRepeatTransport, parse_sr_segment, SR_DATA, SR_ACK,
    pack_sr_data, pack_sr_ack)
POLICIES = [pytest.param(GBN, id="gbn"), pytest.param(SR, id="sr")]


class _Packet:
    def __init__(self, segment):
        self.data = bytes(42) + segment  # eth+ip+udp headers, then seg


class _Host:
    """A host whose NIC is a scripted wire: ``fate(frame_no, segment)``
    returns the list of delays (ps) at which copies of the frame reach
    the peer -- ``[]`` drops it, two entries duplicate it."""

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.telemetry = None
        self.transport = None
        self.host = self
        self.software_handler = None
        self.peers = {}
        self.fate = lambda _number, _segment: [HOP_PS]
        self.tx = []

    def enqueue_tx(self, frame, _queue=0):
        dst, segment = frame
        self.tx.append(segment)
        peer = self.peers.get(dst)
        if peer is None:
            return  # no cable: the frame falls on the floor
        for delay in self.fate(len(self.tx) - 1, segment):
            self.sim.schedule_at(self.sim.now + delay,
                                 peer.software_handler, _Packet(segment), 0)


def _endpoint(sim, policy, index, delivered=None, **kw):
    """A transport of ``policy`` on a fresh scripted host."""
    host = _Host(sim, f"host{index}")
    kw.setdefault("rto_initial_ps", RTO_PS)
    kw.setdefault("jitter", 0.0)
    transport = policy.cls(
        host, index,
        frame_builder=lambda dst, segment: (dst, segment),
        rng=SeededRng(index).fork("conformance"),
        on_deliver=(None if delivered is None else
                    lambda src, seq, payload, _q:
                    delivered.append((src, seq, payload))),
        **kw,
    )
    return host, transport


def _pair(sim, policy, **kw):
    """Hosts 0 and 1 cabled to each other; returns
    ``(sender_host, sender, receiver_host, receiver, delivered)``."""
    delivered = []
    tx_host, tx = _endpoint(sim, policy, 0, **kw)
    rx_host, rx = _endpoint(sim, policy, 1, delivered, **kw)
    tx_host.peers[1] = rx_host
    rx_host.peers[0] = tx_host
    return tx_host, tx, rx_host, rx, delivered


def _data_seqs(policy, host):
    return [parsed[3] for parsed in map(policy.parse, host.tx)
            if parsed is not None and parsed[0] == policy.data_type]


@pytest.mark.parametrize("policy", POLICIES)
class TestDeliveryContract:
    def test_clean_rack_delivers_in_order_without_retransmits(self, policy):
        result = run_monolithic(reliable_rack_topology(
            nics=2, frames=10, transport=policy.name))
        for name, peer in (("nic0", 1), ("nic1", 0)):
            report = result.reports[name]
            assert [(src, seq) for src, seq, _t, _q
                    in report["deliveries"]] == \
                [(peer, seq) for seq in range(10)]
            rel = report["stats"]["reliability"]
            assert rel["retransmits"] == 0
            assert rel["delivery_failures"] == 0
            assert report["tx_flows"][peer] == {
                "sent": 10, "acked": 10, "failed": 0, "aborted": 0,
            }
            assert report["fct"][peer] > 0
            assert report["failures"] == []

    def test_in_order_exactly_once_over_a_hostile_wire(self, policy):
        sim = Simulator()
        tx_host, tx, rx_host, rx, delivered = _pair(sim, policy, window=4)
        # Data: every 5th frame lost, every 7th duplicated, every 3rd
        # late enough to be overtaken.  ACKs: every 4th lost.
        tx_host.fate = lambda n, _s: (
            [] if n % 5 == 2 else
            [HOP_PS, 3 * HOP_PS] if n % 7 == 3 else
            [4 * HOP_PS] if n % 3 == 1 else [HOP_PS])
        rx_host.fate = lambda n, _s: [] if n % 4 == 1 else [HOP_PS]
        payloads = [b"payload-%02d" % i for i in range(24)]
        for i, payload in enumerate(payloads):
            sim.schedule_at(i * 2 * HOP_PS, tx.send, 1, payload)
        sim.run()
        assert [(src, seq) for src, seq, _p in delivered] == \
            [(0, seq) for seq in range(24)]
        assert [payload for _s, _q, payload in delivered] == payloads
        stats = rx.stats()
        assert stats["delivered"] == 24
        assert stats["duplicates_suppressed"] > 0
        assert tx.stats()["retransmits"] > 0
        assert tx.flow_report() == {
            1: {"sent": 24, "acked": 24, "failed": 0, "aborted": 0}}
        assert 0 < tx.fct_report()[1] <= sim.now
        assert tx.failure_report() == []

    def test_accounting_closes_on_a_rack_under_loss(self, policy):
        plan = (FaultPlan(seed=3)
                .wire_loss(0, wire_target(0, 1), drop_p=0.2)
                .flap_wire(5 * US, 9 * US, wire_target(0, 2)))
        result = run_monolithic(
            reliable_rack_topology(nics=3, pattern="fanin", frames=15,
                                   transport=policy.name),
            fault_plan=plan)
        for src in (1, 2):
            assert [seq for s, seq, _t, _q
                    in result.reports["nic0"]["deliveries"]
                    if s == src] == list(range(15))
            flow = result.reports[f"nic{src}"]["tx_flows"][0]
            assert flow["sent"] == flow["acked"] + flow["failed"] == 15
        assert sum(r["stats"]["reliability"]["retransmits"]
                   for r in result.reports.values()) > 0

    def test_window_bounds_outstanding_segments(self, policy):
        sim = Simulator()
        host, transport = _endpoint(sim, policy, 0, window=2,
                                    max_retries=1)
        for _ in range(5):
            transport.send(1, b"payload")
        sim.run()
        # Only the first window's worth was ever on the wire -- seqs
        # 2..4 stayed queued behind the ACKs that never came.
        assert set(_data_seqs(policy, host)) == {0, 1}
        assert transport.stats()["data_sent"] == 2


@pytest.mark.parametrize("policy", POLICIES)
class TestRetryBudget:
    def test_cut_wire_aborts_with_delivery_failed(self, policy):
        sim = Simulator()
        host, transport = _endpoint(sim, policy, 0, max_retries=3)
        transport.send(1, b"payload")
        transport.send(1, b"payload")
        sim.run()  # drains: bounded retries guarantee heap exhaustion
        stats = transport.stats()
        assert stats["rto_fired"] == 4  # 3 retries + the aborting expiry
        assert stats["retransmits"] >= 3
        assert stats["delivery_failures"] == 1
        assert transport.failures == [DeliveryFailed(
            dst=1, first_seq=0, at_ps=sim.now, retries=4)]
        assert transport.failure_report() == [(1, 0, sim.now, 4)]
        assert transport.flow_report() == {
            1: {"sent": 2, "acked": 0, "failed": 2, "aborted": 1}}
        assert transport.fct_report() == {}

    def test_aborted_flow_refuses_new_work_quietly(self, policy):
        sim = Simulator()
        host, transport = _endpoint(sim, policy, 0, max_retries=1)
        transport.send(1, b"payload")
        sim.run()
        frames_before = len(host.tx)
        transport.send(1, b"more")
        sim.run()
        assert len(host.tx) == frames_before
        flow = transport.flow_report()[1]
        assert flow == {"sent": 2, "acked": 0, "failed": 2, "aborted": 1}

    def test_rack_cut_surfaces_failure_and_spares_the_neighbour(
            self, policy):
        plan = FaultPlan().wire_down(0, wire_target(0, 1))
        result = run_monolithic(
            reliable_rack_topology(nics=3, pattern="fanin", frames=5,
                                   transport=policy.name),
            fault_plan=plan)
        dead = result.reports["nic1"]
        assert dead["failures"], "cut flow must surface DeliveryFailed"
        assert dead["tx_flows"][0] == {
            "sent": 5, "acked": 0, "failed": 5, "aborted": 1}
        assert [seq for s, seq, _t, _q
                in result.reports["nic0"]["deliveries"] if s == 2] == \
            list(range(5))

    def test_constructor_validates_parameters(self, policy):
        for bad in ({"window": 0}, {"jitter": 1.0}, {"rto_initial_ps": 0}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                _endpoint(Simulator(), policy, 0, **bad)


@pytest.mark.parametrize("policy", POLICIES)
def test_mid_flow_loss_is_repaired_while_the_sender_keeps_offering(policy):
    """A 5 us cable cut at t=100 us of a 300-frame flow.  Go-back-N
    used to restart its RTO on every offered payload, so the frames
    lost in the cut were not resent until the sender ran dry 500 us
    later (p50 317 us, max 537 us); the timer-arming rule now lives in
    the core and only a flow leaving idle or an ACK advancing the
    window restarts it."""
    gap_ps = 2 * US
    result = run_monolithic(
        reliable_rack_topology(nics=2, pattern="fanin", frames=300,
                               gap_ps=gap_ps, transport=policy.name),
        fault_plan=FaultPlan().flap_wire(100 * US, 105 * US,
                                         wire_target(0, 1)))
    deliveries = result.reports["nic0"]["deliveries"]
    assert [seq for _src, seq, _t, _q in deliveries] == list(range(300))
    rel = result.reports["nic1"]["stats"]["reliability"]
    assert rel["retransmits"] > 0
    latencies = sorted(t - seq * gap_ps for _src, seq, t, _q in deliveries)
    rto_ps = default_rto_ps(DEFAULT_PROPAGATION_PS)
    assert latencies[-1] < 2 * rto_ps
    assert latencies[len(latencies) // 2] < 10 * US


VIP = 0


@pytest.mark.parametrize("policy", POLICIES)
class TestDirectServerReturn:
    def _rig(self, sim, policy):
        """Client 5 addresses virtual index 0; backend 2 serves it."""
        delivered = []
        client_host, client = _endpoint(sim, policy, 5)
        backend_host, backend = _endpoint(
            sim, policy, 2, delivered, accept_dst={VIP}, reply_as=VIP)
        client_host.peers[VIP] = backend_host   # the LB's steering
        backend_host.peers[5] = client_host     # direct return cable
        return client_host, client, backend_host, backend, delivered

    def test_backend_serves_the_virtual_index(self, policy):
        sim = Simulator()
        _ch, client, backend_host, _b, delivered = self._rig(sim, policy)
        for i in range(6):
            sim.schedule_at(i * HOP_PS, client.send, VIP, b"req")
        sim.run()
        assert [(src, seq) for src, seq, _p in delivered] == \
            [(5, seq) for seq in range(6)]
        # ACKs are stamped with the virtual index, so the client's flow
        # to "0" completes without ever learning who served it.
        acks = [policy.parse(segment) for segment in backend_host.tx]
        assert acks and all(a[0] == policy.ack_type and a[1] == VIP
                            and a[2] == 5 for a in acks)
        assert client.flow_report() == {
            VIP: {"sent": 6, "acked": 6, "failed": 0, "aborted": 0}}
        assert VIP in client.fct_report()

    def test_without_accept_dst_the_segment_is_not_ours(self, policy):
        sim = Simulator()
        delivered = []
        host, transport = _endpoint(sim, policy, 2, delivered)
        host.software_handler(_Packet(policy.data(5, VIP, 0, b"req")), 0)
        assert delivered == [] and host.tx == []
        assert transport.stats()["parse_rejects"] == 1


@pytest.mark.parametrize("policy", POLICIES)
class TestForeignTraffic:
    def test_junk_and_foreign_magic_are_rejected(self, policy):
        sim = Simulator()
        delivered = []
        host, transport = _endpoint(sim, policy, 1, delivered)
        good = policy.data(0, 1, 0, b"x")
        foreign = bytes([good[0] ^ 0xFF]) + good[1:]   # wrong magic
        bad_type = good[:2] + b"\x09" + good[3:]
        for segment in (b"", b"\x00" * 5, foreign, bad_type):
            host.software_handler(_Packet(segment), 0)
        assert transport.stats()["parse_rejects"] == 4
        assert delivered == [] and host.tx == []

    def test_the_other_policys_segments_are_rejected(self, policy):
        other = SR if policy is GBN else GBN
        sim = Simulator()
        delivered = []
        host, transport = _endpoint(sim, policy, 1, delivered)
        host.software_handler(_Packet(other.data(0, 1, 0, b"x")), 0)
        host.software_handler(_Packet(other.ack(0, 1, 1)), 0)
        assert transport.stats()["parse_rejects"] == 2
        assert delivered == [] and host.tx == []

    def test_acks_for_unknown_flows_are_ignored(self, policy):
        sim = Simulator()
        host, transport = _endpoint(sim, policy, 1)
        host.software_handler(_Packet(policy.ack(7, 1, 3)), 0)
        assert transport.stats()["acks_received"] == 0
        assert transport.flow_report() == {}
