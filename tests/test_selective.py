"""Selective-repeat transport: SACK arithmetic, wraparound, Karn's rule.

Unit tests drive a :class:`SelectiveRepeatTransport` over a fake NIC so
sequence-space corners (16-bit wraparound, SACK block unwrapping,
RTT-sample eligibility) are exercised with exact control; end-to-end
tests run whole racks and hold the same exactly-once-in-order bar the
go-back-N suite does -- with strictly less retransmission traffic.
"""

import pytest

from repro.faults.plan import FaultPlan
from repro.faults.rack import wire_target
from repro.reliability.rack import reliable_rack_topology
from repro.reliability.selective import (
    FAST_RETX_DUPTHRESH,
    RttEstimator,
    SACK_MAX_BLOCKS,
    SEQ_SPACE,
    SR_ACK,
    SR_DATA,
    SR_HEADER_BYTES,
    SelectiveRepeatTransport,
    pack_sr_ack,
    pack_sr_data,
    parse_sr_segment,
    seq_unwrap,
    seq_wrap,
)
from repro.reliability.transport import parse_segment
from repro.sim.clock import US
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRng
from repro.sim.shard import run_monolithic, run_sharded


class TestSequenceSpace:
    def test_wrap_unwrap_roundtrip_near_the_wrap(self):
        for ref in (0, 100, SEQ_SPACE - 2, SEQ_SPACE + 5, 3 * SEQ_SPACE):
            for delta in (-100, -1, 0, 1, 100, 1000):
                seq = ref + delta
                if seq < 0:
                    continue
                assert seq_unwrap(seq_wrap(seq), ref) == seq

    def test_wire_field_is_16_bit(self):
        assert seq_wrap(SEQ_SPACE) == 0
        assert seq_wrap(SEQ_SPACE + 7) == 7
        assert seq_wrap(SEQ_SPACE - 1) == SEQ_SPACE - 1

    def test_old_sequence_numbers_unwrap_below_reference(self):
        ref = 5 * SEQ_SPACE + 10
        assert seq_unwrap(seq_wrap(ref - 3), ref) == ref - 3


class TestSegmentFormat:
    def test_data_roundtrip(self):
        seg = pack_sr_data(2, 3, SEQ_SPACE + 41, b"hello")
        assert parse_sr_segment(seg) == (SR_DATA, 2, 3, 41, b"hello")

    def test_ack_roundtrip_with_sack_blocks_across_wrap(self):
        blocks = ((SEQ_SPACE - 2, SEQ_SPACE + 1), (SEQ_SPACE + 4,
                                                   SEQ_SPACE + 6))
        ack = pack_sr_ack(3, 2, SEQ_SPACE - 5, blocks)
        seg_type, src, dst, cum, wire_blocks = parse_sr_segment(ack)
        assert (seg_type, src, dst) == (SR_ACK, 3, 2)
        assert cum == seq_wrap(SEQ_SPACE - 5)
        # The [65534, 65537) block wraps on the wire: start 65534, end 1.
        assert wire_blocks == ((SEQ_SPACE - 2, 1), (4, 6))
        # And unwraps back to the original absolute ranges.
        start, end = wire_blocks[0]
        ref = SEQ_SPACE - 5
        assert seq_unwrap(start, ref) == SEQ_SPACE - 2
        assert (end - start) % SEQ_SPACE == 3

    def test_rejects_junk_and_truncated_sack(self):
        assert parse_sr_segment(b"") is None
        assert parse_sr_segment(bytes(SR_HEADER_BYTES)) is None
        ack = pack_sr_ack(0, 1, 5, ((6, 8),))
        assert parse_sr_segment(ack[:-1]) is None  # truncated block
        too_many = bytearray(pack_sr_ack(0, 1, 5))
        too_many[SR_HEADER_BYTES] = SACK_MAX_BLOCKS + 1
        assert parse_sr_segment(bytes(too_many)) is None

    def test_gbn_parser_rejects_sr_segments(self):
        # The segment types are disjoint on purpose: a go-back-N NIC
        # sharing a rack with a selective-repeat NIC must not misparse.
        assert parse_segment(pack_sr_data(0, 1, 3, b"x")) is None
        assert parse_segment(pack_sr_ack(0, 1, 3)) is None

    def test_pack_validates_blocks(self):
        with pytest.raises(ValueError, match="SACK"):
            pack_sr_ack(0, 1, 0, tuple((i, i + 1) for i in range(5)))
        with pytest.raises(ValueError, match="empty"):
            pack_sr_ack(0, 1, 0, ((3, 3),))


class TestRttEstimator:
    def test_first_sample_initialises_per_rfc(self):
        est = RttEstimator(30 * US, 1 * US, 480 * US)
        assert est.rto_ps() == 30 * US  # cold start: the fixed initial
        est.sample(8 * US)
        assert est.srtt_ps == 8 * US
        assert est.rttvar_ps == 4 * US
        assert est.rto_ps() == 8 * US + 4 * 4 * US

    def test_converges_toward_stable_rtt(self):
        est = RttEstimator(30 * US, 1 * US, 480 * US)
        for _ in range(50):
            est.sample(6 * US)
        assert abs(est.srtt_ps - 6 * US) < 0.01 * US
        # Variance decays, but the srtt/4 granularity floor keeps the
        # RTO strictly above the measured RTT.
        assert 6 * US < est.rto_ps() <= 8 * US

    def test_rto_respects_min_and_max(self):
        est = RttEstimator(30 * US, 5 * US, 40 * US)
        est.sample(1 * US)
        assert est.rto_ps() == 5 * US
        est2 = RttEstimator(30 * US, 1 * US, 10 * US)
        est2.sample(100 * US)
        assert est2.rto_ps() == 10 * US

    def test_validates_bounds(self):
        with pytest.raises(ValueError, match="rto_min"):
            RttEstimator(30 * US, 0, 10 * US)
        with pytest.raises(ValueError, match="rto_min"):
            RttEstimator(30 * US, 10 * US, 5 * US)


class _FakeHost:
    def __init__(self):
        self.software_handler = None
        self.tx = []

    def enqueue_tx(self, frame, queue=0):
        self.tx.append(frame)


class _FakeNic:
    def __init__(self, sim):
        self.sim = sim
        self.name = "fake"
        self.telemetry = None
        self.host = _FakeHost()
        self.transport = None


class _FakePacket:
    def __init__(self, segment):
        self.data = bytes(42) + segment  # eth+ip+udp headers, then seg


def _bench_transport(sim, **kw):
    """A transport over a fake NIC: transmissions are recorded, nothing
    is delivered unless the test injects it via the software handler."""
    nic = _FakeNic(sim)
    kw.setdefault("rto_initial_ps", 10 * US)
    kw.setdefault("jitter", 0.0)
    transport = SelectiveRepeatTransport(
        nic, 0,
        frame_builder=lambda dst, seg: seg,
        rng=SeededRng(3).fork("sr"),
        **kw,
    )
    return nic, transport


def _tx_data_seqs(nic):
    seqs = []
    for frame in nic.host.tx:
        parsed = parse_sr_segment(frame)
        if parsed and parsed[0] == SR_DATA:
            seqs.append(parsed[3])
    return seqs


def _feed(transport, segment):
    transport._on_host_rx(_FakePacket(segment), 0)


class TestReceiverWraparound:
    def test_in_order_delivery_across_the_wrap(self):
        sim = Simulator()
        nic, transport = _bench_transport(
            sim, initial_seq=SEQ_SPACE - 3)
        got = []
        transport.on_deliver = lambda src, seq, p, q: got.append(seq)
        for seq in range(SEQ_SPACE - 3, SEQ_SPACE + 2):
            _feed(transport, pack_sr_data(1, 0, seq, b"d"))
        assert got == list(range(SEQ_SPACE - 3, SEQ_SPACE + 2))
        assert transport.stats()["delivered"] == 5

    def test_duplicates_suppressed_across_the_wrap(self):
        sim = Simulator()
        nic, transport = _bench_transport(
            sim, initial_seq=SEQ_SPACE - 3)
        got = []
        transport.on_deliver = lambda src, seq, p, q: got.append(seq)
        for seq in range(SEQ_SPACE - 3, SEQ_SPACE + 2):
            _feed(transport, pack_sr_data(1, 0, seq, b"d"))
        # Replay one pre-wrap and one post-wrap segment: both are old
        # news to the receiver even though one's wire field (1) is
        # numerically above the other's (65534).
        _feed(transport, pack_sr_data(1, 0, SEQ_SPACE - 2, b"d"))
        _feed(transport, pack_sr_data(1, 0, SEQ_SPACE + 1, b"d"))
        assert transport.stats()["duplicates_suppressed"] == 2
        assert got == list(range(SEQ_SPACE - 3, SEQ_SPACE + 2))

    def test_out_of_order_buffering_and_sack_blocks(self):
        sim = Simulator()
        nic, transport = _bench_transport(sim)
        got = []
        transport.on_deliver = lambda src, seq, p, q: got.append(seq)
        _feed(transport, pack_sr_data(1, 0, 0, b"d"))
        _feed(transport, pack_sr_data(1, 0, 3, b"d"))  # hole at 1, 2
        _feed(transport, pack_sr_data(1, 0, 2, b"d"))
        assert got == [0]
        # The latest ACK advertises cum=1 plus the buffered [2, 4) range.
        seg_type, _s, _d, cum, blocks = parse_sr_segment(nic.host.tx[-1])
        assert seg_type == SR_ACK and cum == 1
        assert blocks == ((2, 4),)
        _feed(transport, pack_sr_data(1, 0, 1, b"d"))  # hole fills
        assert got == [0, 1, 2, 3]
        assert transport.stats()["buffered_ooo"] == 2


class TestSenderSack:
    def test_sack_advances_base_through_sacked_run(self):
        sim = Simulator()
        nic, transport = _bench_transport(sim, window=8)
        for _ in range(4):
            transport.send(1, b"p")
        # Receiver got 1..3 but not 0: cum stays 0, SACK covers [1, 4).
        _feed(transport, pack_sr_ack(1, 0, 0, ((1, 4),)))
        flow = transport._tx[1]
        assert flow.base == 0
        assert flow.sacked == {1, 2, 3}
        # Cum finally covers 0 -- base jumps through the SACKed run.
        _feed(transport, pack_sr_ack(1, 0, 1, ()))
        assert flow.base == 4
        assert not flow.sacked

    def test_sack_arithmetic_across_the_wrap(self):
        start = SEQ_SPACE - 2
        sim = Simulator()
        nic, transport = _bench_transport(
            sim, window=8, initial_seq=start)
        for _ in range(6):
            transport.send(1, b"p")
        # SACK [65535, 65537+1): wire start 65535, wire end 2 -- the
        # block wraps, the hole is the very first segment (65534).
        _feed(transport, pack_sr_ack(
            1, 0, start, ((start + 1, start + 4),)))
        flow = transport._tx[1]
        assert flow.base == start
        assert flow.sacked == {start + 1, start + 2, start + 3}
        _feed(transport, pack_sr_ack(1, 0, start + 1, ()))
        assert flow.base == start + 4

    def test_fast_retransmit_fires_once_per_hole(self):
        sim = Simulator()
        nic, transport = _bench_transport(sim, window=8)
        for _ in range(1 + FAST_RETX_DUPTHRESH):
            transport.send(1, b"p")
        assert _tx_data_seqs(nic) == [0, 1, 2, 3]
        # Three SACKed segments above the hole at 0: resend it now.
        _feed(transport, pack_sr_ack(1, 0, 0, ((1, 4),)))
        assert _tx_data_seqs(nic) == [0, 1, 2, 3, 0]
        assert transport.stats()["fast_retransmits"] == 1
        # A further duplicate SACK must not resend the hole again.
        _feed(transport, pack_sr_ack(1, 0, 0, ((1, 4),)))
        assert _tx_data_seqs(nic) == [0, 1, 2, 3, 0]
        assert transport.stats()["fast_retransmits"] == 1

    def test_stale_cum_below_base_is_a_dup_ack(self):
        sim = Simulator()
        nic, transport = _bench_transport(sim, window=4)
        for _ in range(3):
            transport.send(1, b"p")
        _feed(transport, pack_sr_ack(1, 0, 2, ()))
        assert transport._tx[1].base == 2
        _feed(transport, pack_sr_ack(1, 0, 1, ()))  # reordered stale ACK
        assert transport._tx[1].base == 2
        assert transport.stats()["dup_acks"] == 1

    def test_constructor_validates_window_against_seq_space(self):
        with pytest.raises(ValueError, match="window"):
            _bench_transport(Simulator(), window=SEQ_SPACE)


class TestKarnsRule:
    def test_ack_of_retransmitted_segment_takes_no_sample(self):
        sim = Simulator()
        nic, transport = _bench_transport(
            sim, window=1, rto_initial_ps=10 * US)
        sim.schedule_at(0, transport.send, 1, b"p")
        # The first RTO fires at 10 us and retransmits seq 0; the ACK
        # lands after that, so its RTT is ambiguous (which transmission
        # does it acknowledge?).  Karn's rule: no sample.
        sim.schedule_at(12 * US, _feed, transport,
                        pack_sr_ack(1, 0, 1, ()))
        sim.run()
        flow = transport._tx[1]
        assert transport.stats()["rto_fired"] == 1
        assert transport.stats()["retransmits"] == 1
        assert flow.rtt.samples == 0
        assert flow.rtt.srtt_ps is None  # estimator untouched
        assert flow.rtt.rto_ps() == 10 * US

    def test_clean_segment_after_retransmission_samples_again(self):
        sim = Simulator()
        nic, transport = _bench_transport(
            sim, window=1, rto_initial_ps=10 * US)
        sim.schedule_at(0, transport.send, 1, b"p")
        sim.schedule_at(12 * US, _feed, transport,
                        pack_sr_ack(1, 0, 1, ()))      # poisoned: no sample
        sim.schedule_at(14 * US, transport.send, 1, b"p")
        sim.schedule_at(20 * US, _feed, transport,
                        pack_sr_ack(1, 0, 2, ()))      # clean: 6 us sample
        sim.run()
        flow = transport._tx[1]
        assert flow.rtt.samples == 1
        assert flow.rtt.srtt_ps == 6 * US

    def test_sample_from_never_retransmitted_segment_in_mixed_ack(self):
        sim = Simulator()
        nic, transport = _bench_transport(
            sim, window=4, rto_initial_ps=10 * US)
        sim.schedule_at(0, transport.send, 1, b"p")
        sim.schedule_at(0, transport.send, 1, b"p")
        # RTO at 10 us retransmits only the base (seq 0); seq 1 was
        # transmitted exactly once.  The covering ACK may sample seq 1.
        sim.schedule_at(12 * US, _feed, transport,
                        pack_sr_ack(1, 0, 2, ()))
        sim.run()
        flow = transport._tx[1]
        assert transport.stats()["retransmits"] == 1  # base only
        assert flow.rtt.samples == 1
        assert flow.rtt.srtt_ps == 12 * US  # measured on seq 1, not 0

    def test_backoff_resets_on_progress(self):
        sim = Simulator()
        nic, transport = _bench_transport(
            sim, window=1, rto_initial_ps=10 * US, max_retries=8)
        sim.schedule_at(0, transport.send, 1, b"p")
        sim.schedule_at(35 * US, _feed, transport,
                        pack_sr_ack(1, 0, 1, ()))  # after 2 expiries
        sim.run()
        flow = transport._tx[1]
        assert flow.backoff == 1
        assert flow.retries == 0


class TestEndToEndSelectiveRepeat:
    def test_clean_wire_delivers_in_order_without_retransmits(self):
        result = run_monolithic(
            reliable_rack_topology(nics=2, frames=10, transport="sr"))
        for name, peer in (("nic0", 1), ("nic1", 0)):
            report = result.reports[name]
            assert [(s, q) for s, q, _t, _qu in report["deliveries"]] == \
                [(peer, seq) for seq in range(10)]
            rel = report["stats"]["reliability"]
            assert rel["retransmits"] == 0
            assert report["tx_flows"][peer] == {
                "sent": 10, "acked": 10, "failed": 0, "aborted": 0,
            }
            assert report["fct"][peer] > 0
            assert report["rtt"][peer]["samples"] > 0

    def test_loss_heals_exactly_once_in_order_with_fewer_retransmits(self):
        def plan():
            p = FaultPlan(seed=3)
            for j in (1, 2, 3):
                p.wire_loss(0, wire_target(0, j),
                            drop_p=0.01, corrupt_p=0.005)
            return p

        results = {}
        for transport in ("gbn", "sr"):
            result = run_monolithic(
                reliable_rack_topology(nics=4, pattern="fanin", frames=30,
                                       transport=transport),
                fault_plan=plan(),
            )
            report = result.reports["nic0"]
            for src in (1, 2, 3):
                assert [seq for s, seq, _t, _q in report["deliveries"]
                        if s == src] == list(range(30))
            results[transport] = sum(
                result.reports[n]["stats"]["reliability"]["retransmits"]
                for n in result.reports
            )
        # Selective repeat resends holes, go-back-N resends windows.
        assert results["sr"] < results["gbn"]

    def test_mono_equals_sharded_under_loss(self):
        def plan():
            return (FaultPlan(seed=9)
                    .wire_loss(0, wire_target(0, 1), drop_p=0.05)
                    .wire_loss(0, wire_target(0, 2), drop_p=0.05))

        def topo():
            return reliable_rack_topology(
                nics=4, pattern="fanin", frames=20, transport="sr")

        mono = run_monolithic(topo(), fault_plan=plan())
        sharded = run_sharded(topo(), workers=2, fault_plan=plan())
        assert mono.reports == sharded.reports
        assert mono.wire_stats == sharded.wire_stats
