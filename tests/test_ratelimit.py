"""Tests for the SENIC-style rate-limiter engine."""

import pytest

from repro.core import PanicConfig, PanicNic
from repro.engines import RateLimiterEngine, TokenBucket
from repro.noc import Endpoint, Mesh, MeshConfig
from repro.packet import Packet, PanicHeader, build_udp_frame
from repro.sim import Simulator
from repro.sim.clock import SEC, US


class Sink(Endpoint):
    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def receive(self, message):
        self.got.append((message.packet, self.sim.now))


class TestTokenBucket:
    def test_starts_full(self):
        bucket = TokenBucket(rate_bps=8e9, burst_bytes=1000)
        assert bucket.try_consume(1000, 0)
        assert not bucket.try_consume(1, 0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate_bps=8e9, burst_bytes=1000)  # 1 B/ns
        bucket.try_consume(1000, 0)
        assert not bucket.try_consume(500, 100_000)  # 100ns -> 100B
        assert bucket.try_consume(500, 500_000)      # 500ns -> 500B

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate_bps=8e9, burst_bytes=100)
        bucket.refill(10 * SEC)
        assert bucket.tokens == 100

    def test_eligible_at(self):
        bucket = TokenBucket(rate_bps=8e9, burst_bytes=1000)
        bucket.try_consume(1000, 0)
        at = bucket.eligible_at(100, 0)
        assert 100_000 <= at <= 101_000  # ~100 ns for 100 B at 1 B/ns

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_bps=0, burst_bytes=10)
        with pytest.raises(ValueError):
            TokenBucket(rate_bps=1e9, burst_bytes=0)


class TestRateLimiterEngine:
    def rig(self, sim):
        mesh = Mesh(sim, MeshConfig(width=2, height=1))
        limiter = RateLimiterEngine(sim, "rl")
        limiter.bind_port(mesh.bind(limiter, 0, 0))
        sink = Sink(sim)
        mesh.bind(sink, 1, 0)
        return limiter, sink

    def packet(self, tenant, size=250):
        packet = Packet(bytes(size))
        packet.meta.tenant = tenant
        packet.panic = PanicHeader(chain=[1])
        return packet

    def test_unshaped_tenant_passes(self, sim):
        limiter, sink = self.rig(sim)
        limiter._loopback(self.packet(tenant=9))
        sim.run()
        assert len(sink.got) == 1
        assert limiter.passed == 1

    def test_burst_passes_then_paces(self, sim):
        limiter, sink = self.rig(sim)
        limiter.set_rate(1, rate_bps=1e9, burst_bytes=500)  # 2 pkts of 250B
        for _ in range(6):
            limiter._loopback(self.packet(tenant=1))
        sim.run()
        assert len(sink.got) == 6  # paced, never dropped
        times = [t for _p, t in sink.got]
        gaps = [b - a for a, b in zip(times, times[1:])]
        # 250 B at 1 Gbps = 2 us per packet once the burst is spent.
        paced_gaps = gaps[2:]
        for gap in paced_gaps:
            assert gap >= 1.9 * US

    def test_rate_is_enforced_long_run(self, sim):
        limiter, sink = self.rig(sim)
        limiter.set_rate(1, rate_bps=2e9, burst_bytes=250)
        n = 20
        for _ in range(n):
            limiter._loopback(self.packet(tenant=1))
        sim.run()
        elapsed = sink.got[-1][1] - sink.got[0][1]
        achieved_bps = (n - 1) * 250 * 8 * SEC / elapsed
        assert achieved_bps <= 2.1e9

    def test_tenants_isolated(self, sim):
        limiter, sink = self.rig(sim)
        limiter.set_rate(1, rate_bps=1e8, burst_bytes=250)  # slow tenant
        for _ in range(3):
            limiter._loopback(self.packet(tenant=1))
        limiter._loopback(self.packet(tenant=2))  # unshaped
        sim.run(until_ps=10 * US)
        tenants_done = [p.meta.tenant for p, _t in sink.got]
        assert 2 in tenants_done  # tenant 2 was not stuck behind tenant 1


class TestRateLimiterOnNic:
    def test_tx_pacing_in_panic(self, sim):
        nic = PanicNic(sim, PanicConfig(ports=1, offloads=("ratelimit",)))
        limiter = nic.offload("ratelimit")
        limiter.set_rate(5, rate_bps=1e9, burst_bytes=600)
        nic.control.route_dscp(5, ["ratelimit"])

        def frame(i):
            data = build_udp_frame(
                src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
                src_ip="10.0.0.5", dst_ip="10.0.0.2",
                src_port=1, dst_port=2, payload=bytes(500),
                dscp=5, identification=i,
            )
            packet = Packet(data)
            packet.meta.tenant = 5
            return packet

        arrivals = []
        nic.host.software_handler = lambda p, q: arrivals.append(sim.now)
        for i in range(5):
            nic.inject(frame(i))
        sim.run()
        assert len(arrivals) == 5
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        # ~542 B frames at 1 Gbps ~= 4.3 us each once the burst is spent.
        assert max(gaps) >= 4 * US
