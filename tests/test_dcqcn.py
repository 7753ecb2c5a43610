"""Tests for the DCQCN congestion-control subsystem (ECN marking,
CNP plumbing, the rate-control algorithm, and the closed loop)."""

from types import SimpleNamespace

import pytest

from repro.core import PanicConfig, PanicNic
from repro.engines import RateLimiterEngine
from repro.engines.dcqcn import (
    CNP_UDP_PORT,
    CnpResponder,
    DcqcnEngine,
    DcqcnRateController,
    ECN_CE,
    ECN_ECT0,
    EcnMarkerEngine,
    build_cnp,
    parse_cnp,
)
from repro.noc import Endpoint, Mesh, MeshConfig
from repro.packet import Packet, PanicHeader, build_udp_frame, parse_frame
from repro.sim import Simulator
from repro.sim.clock import US
from repro.telemetry.tracer import TraceCtx


def ect_frame(payload=b"data", ecn=ECN_ECT0, tenant=None):
    packet = Packet(build_udp_frame(
        src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
        src_ip="10.0.0.1", dst_ip="10.0.0.2",
        src_port=1, dst_port=2, payload=payload, ecn=ecn,
    ))
    packet.meta.tenant = tenant
    return packet


class TestEcnHeader:
    def test_ecn_roundtrip_on_wire(self):
        frame = build_udp_frame(
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1", dst_ip="10.0.0.2",
            src_port=1, dst_port=2, payload=b"x", ecn=ECN_CE,
        )
        assert parse_frame(frame).ipv4.ecn == ECN_CE

    def test_ecn_validated(self):
        from repro.packet import HeaderError, Ipv4Header

        with pytest.raises(HeaderError):
            Ipv4Header(src="1.1.1.1", dst="2.2.2.2", ecn=4)


class TestCnpFrames:
    def test_build_parse_roundtrip(self):
        cnp = build_cnp(77, src_mac="02:00:00:00:00:02",
                        dst_mac="02:00:00:00:00:01",
                        src_ip="10.0.0.2", dst_ip="10.0.0.1")
        assert parse_cnp(cnp) == 77
        assert parse_frame(cnp).udp.dst_port == CNP_UDP_PORT

    def test_non_cnp_returns_none(self):
        assert parse_cnp(ect_frame().data) is None
        assert parse_cnp(b"garbage") is None


class TestEcnMarker:
    def test_marks_when_watched_queue_deep(self, sim):
        marker = EcnMarkerEngine(sim, "mark", k_min=0, k_max=1, p_max=1.0)
        watched = RateLimiterEngine(sim, "watched")
        marker.watch_engine = watched
        # Fake a deep queue on the watched engine.
        for i in range(5):
            watched.queue.push(i, i)
        out = marker.handle(ect_frame())[0][0]
        assert parse_frame(out.data).ipv4.ecn == ECN_CE
        assert marker.marked == 1

    def test_no_marking_when_queue_shallow(self, sim):
        marker = EcnMarkerEngine(sim, "mark2", k_min=5, k_max=20)
        out = marker.handle(ect_frame())[0][0]
        assert parse_frame(out.data).ipv4.ecn == ECN_ECT0

    def test_non_ect_never_marked(self, sim):
        marker = EcnMarkerEngine(sim, "mark3", k_min=0, k_max=1)
        watched = RateLimiterEngine(sim, "watched3")
        marker.watch_engine = watched
        for i in range(5):
            watched.queue.push(i, i)
        out = marker.handle(ect_frame(ecn=0))[0][0]
        assert parse_frame(out.data).ipv4.ecn == 0
        assert marker.eligible == 0

    def test_marked_frame_keeps_its_packet_life(self, sim):
        """Marking rebuilds the frame; the trace context (with the INT
        stack it carries) and buffer handle must follow it to the
        next engine."""
        marker = EcnMarkerEngine(sim, "mark4", k_min=0, k_max=1, p_max=1.0)
        marker.watch_engine = SimpleNamespace(backlog=5)
        packet = ect_frame()
        stack = ((1, 0, 10, 20, -1, 0),)
        ctx = TraceCtx(records=stack)
        packet.trace, packet.pbuf_handle = ctx, 7
        out = marker.handle(packet)[0][0]
        assert parse_frame(out.data).ipv4.ecn == ECN_CE
        assert out.trace is ctx and out.trace.records is stack
        assert out.pbuf_handle == 7

    def test_pointer_mode_marking_frees_every_payload(self, sim):
        nic = PanicNic(sim, PanicConfig(
            ports=1, offloads=("ecnmark",), payload_mode="pointer"),
            name="ecn_ptr")
        nic.control.route_udp_port(2, ["ecnmark"])
        marker = nic.offload("ecnmark")
        marker.watch_engine = SimpleNamespace(backlog=100)
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        for _ in range(4):
            nic.inject(ect_frame(payload=bytes(600)))
        sim.run()
        assert marker.marked == 4
        assert len(delivered) == 4
        assert all(parse_frame(p.data).ipv4.ecn == ECN_CE for p in delivered)
        assert nic.payload_buffer.live_handles == 0

    def test_parameters_validated(self, sim):
        with pytest.raises(ValueError):
            EcnMarkerEngine(sim, "bad1", k_min=5, k_max=2)
        with pytest.raises(ValueError):
            EcnMarkerEngine(sim, "bad2", p_max=0)


class TestRateController:
    def test_cnp_cuts_rate(self):
        ctrl = DcqcnRateController(100e9)
        rate = ctrl.on_cnp(1, 0)
        assert rate == pytest.approx(50e9)  # alpha starts at 1 -> halve

    def test_successive_cnps_keep_cutting(self):
        ctrl = DcqcnRateController(100e9)
        r1 = ctrl.on_cnp(1, 0)
        r2 = ctrl.on_cnp(1, 1000)
        assert r2 < r1

    def test_rate_floors_at_min(self):
        ctrl = DcqcnRateController(100e9, min_rate_bps=1e9)
        for t in range(100):
            rate = ctrl.on_cnp(1, t)
        assert rate == 1e9

    def test_timer_recovers_toward_target(self):
        ctrl = DcqcnRateController(100e9)
        ctrl.on_cnp(1, 0)
        before = ctrl.flow(1).current_bps
        for t in range(5):
            ctrl.on_timer(1, 1000 + t)
        assert ctrl.flow(1).current_bps > before
        # Fast recovery converges to the pre-cut target.
        assert ctrl.flow(1).current_bps <= 100e9

    def test_additive_increase_reaches_line_rate(self):
        ctrl = DcqcnRateController(10e9, additive_step_bps=1e9)
        ctrl.on_cnp(1, 0)
        for t in range(200):
            ctrl.on_timer(1, t)
        assert ctrl.flow(1).current_bps == pytest.approx(10e9, rel=0.01)

    def test_flows_independent(self):
        ctrl = DcqcnRateController(100e9)
        ctrl.on_cnp(1, 0)
        assert ctrl.flow(2).current_bps == 100e9

    def test_alpha_ewma(self):
        ctrl = DcqcnRateController(100e9, g=0.5)
        state = ctrl.flow(1)
        ctrl.on_cnp(1, 0)
        assert state.alpha == pytest.approx(1.0)  # (1-g)*1 + g
        ctrl.on_timer(1, 1)
        assert state.alpha == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            DcqcnRateController(0)
        with pytest.raises(ValueError):
            DcqcnRateController(1e9, g=1.5)


class TestDcqcnEngine:
    def test_cnp_actuates_limiter(self, sim):
        mesh = Mesh(sim, MeshConfig(width=2, height=1))
        dcqcn = DcqcnEngine(sim, "dcqcn", line_rate_bps=100e9)
        dcqcn.bind_port(mesh.bind(dcqcn, 0, 0))
        limiter = RateLimiterEngine(sim, "rl")
        limiter.bind_port(mesh.bind(limiter, 1, 0))
        dcqcn.attach_limiter(limiter)
        cnp = Packet(build_cnp(5, src_mac="02:00:00:00:00:02",
                               dst_mac="02:00:00:00:00:01",
                               src_ip="10.0.0.2", dst_ip="10.0.0.1"))
        cnp.panic = PanicHeader(chain=[])
        dcqcn._loopback(cnp)
        sim.run(until_ps=10 * US)
        bucket = limiter.bucket(5)
        assert bucket is not None
        assert bucket.rate_bps == pytest.approx(50e9)

    def test_timer_restores_rate(self, sim):
        mesh = Mesh(sim, MeshConfig(width=2, height=1))
        dcqcn = DcqcnEngine(sim, "dcqcn2", line_rate_bps=10e9,
                            timer_period_ps=20 * US)
        dcqcn.bind_port(mesh.bind(dcqcn, 0, 0))
        limiter = RateLimiterEngine(sim, "rl2")
        limiter.bind_port(mesh.bind(limiter, 1, 0))
        dcqcn.attach_limiter(limiter)
        cnp = Packet(build_cnp(5, src_mac="02:00:00:00:00:02",
                               dst_mac="02:00:00:00:00:01",
                               src_ip="10.0.0.2", dst_ip="10.0.0.1"))
        cnp.panic = PanicHeader(chain=[])
        dcqcn._loopback(cnp)
        sim.run()  # timers run until rate recovers
        assert limiter.bucket(5).rate_bps == pytest.approx(10e9, rel=0.01)


class TestCnpResponder:
    def test_ce_triggers_cnp(self, sim):
        from repro.core.host import Host

        host = Host(sim, "h")
        sent = []
        host.enqueue_tx = lambda frame, queue=0: sent.append(frame)
        responder = CnpResponder(host)
        ce_packet = ect_frame(ecn=ECN_CE, tenant=9)
        host.software_handler(ce_packet, 0)
        assert len(sent) == 1
        assert parse_cnp(sent[0]) == 9

    def test_cnp_rate_limited(self, sim):
        from repro.core.host import Host

        host = Host(sim, "h2")
        sent = []
        host.enqueue_tx = lambda frame, queue=0: sent.append(frame)
        CnpResponder(host, min_gap_ps=100 * US)
        for _ in range(5):
            host.software_handler(ect_frame(ecn=ECN_CE, tenant=9), 0)
        assert len(sent) == 1  # gap not elapsed: one CNP only

    def test_unmarked_packets_ignored(self, sim):
        from repro.core.host import Host

        host = Host(sim, "h3")
        sent = []
        host.enqueue_tx = lambda frame, queue=0: sent.append(frame)
        CnpResponder(host)
        host.software_handler(ect_frame(ecn=ECN_ECT0, tenant=9), 0)
        assert sent == []

    def test_downstream_handler_still_runs(self, sim):
        from repro.core.host import Host

        host = Host(sim, "h4")
        seen = []
        host.software_handler = lambda p, q: seen.append(p)
        CnpResponder(host)
        packet = ect_frame(ecn=ECN_CE, tenant=1)
        host.software_handler(packet, 0)
        assert seen == [packet]
