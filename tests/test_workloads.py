"""Tests for traffic sources, the KVS workload, DoS flood and traces."""

import pytest

from repro.core import HostKvServer, PanicConfig, PanicNic
from repro.packet import parse_frame
from repro.sim import Simulator
from repro.sim.clock import SEC, US
from repro.sim.rng import SeededRng
from repro.workloads import (
    CbrSource,
    DosFlood,
    KvsWorkload,
    PoissonSource,
    TenantSpec,
    simple_udp_factory,
)


class TestSources:
    def collect(self, sim, source_cls, rate_pps=1_000_000, count=10, **kwargs):
        arrivals = []

        def inject(packet):
            arrivals.append((packet, sim.now))
            return sim.now

        source = source_cls(
            sim, "src", inject, simple_udp_factory(), rate_pps=rate_pps,
            count=count, **kwargs
        )
        source.start()
        sim.run()
        return arrivals

    def test_cbr_constant_gaps(self, sim):
        arrivals = self.collect(sim, CbrSource)
        gaps = {b - a for (_p1, a), (_p2, b) in zip(arrivals, arrivals[1:])}
        assert gaps == {SEC // 1_000_000}
        assert len(arrivals) == 10

    def test_poisson_variable_gaps_with_right_mean(self, sim):
        arrivals = self.collect(
            sim, PoissonSource, rate_pps=1_000_000, count=2000,
            rng=SeededRng(5),
        )
        gaps = [b - a for (_p1, a), (_p2, b) in zip(arrivals, arrivals[1:])]
        mean = sum(gaps) / len(gaps)
        assert 0.9 * SEC / 1e6 < mean < 1.1 * SEC / 1e6
        assert len(set(gaps)) > 100  # genuinely variable

    def test_sequence_cookie_increments(self, sim):
        arrivals = self.collect(sim, CbrSource, count=5)
        seqs = [p.meta.annotations["seq"] for p, _t in arrivals]
        assert seqs == [0, 1, 2, 3, 4]

    def test_stop_time_bound(self, sim):
        arrivals = []
        source = CbrSource(
            sim, "src", lambda p: arrivals.append(p) or sim.now,
            simple_udp_factory(), rate_pps=1_000_000, count=None,
            stop_ps=10 * US,
        )
        source.start()
        sim.run()
        assert 5 <= len(arrivals) <= 11

    def test_source_needs_bound(self, sim):
        with pytest.raises(ValueError):
            CbrSource(sim, "bad", lambda p: 0, simple_udp_factory(),
                      rate_pps=1000)

    def test_double_start_rejected(self, sim):
        source = CbrSource(sim, "src", lambda p: 0, simple_udp_factory(),
                           rate_pps=1000, count=1)
        source.start()
        with pytest.raises(RuntimeError):
            source.start()

    def test_factory_payload_floor(self):
        with pytest.raises(ValueError):
            simple_udp_factory(payload_bytes=4)


class TestKvsWorkload:
    def build(self, sim, tenants=None, **kwargs):
        nic = PanicNic(sim, PanicConfig(ports=1))
        HostKvServer(nic.host)
        nic.control.enable_kv_cache()
        specs = tenants or [TenantSpec(1, rate_pps=500_000)]
        workload = KvsWorkload(sim, nic, specs, requests_per_tenant=30, **kwargs)
        workload.populate_store()
        return nic, workload

    def test_all_requests_answered(self, sim):
        nic, workload = self.build(sim)
        workload.start()
        sim.run()
        summary = workload.summary()[1]
        assert summary["requests"] == 30
        assert summary["responses"] == 30
        assert summary["outstanding"] == 0

    def test_latency_collected(self, sim):
        nic, workload = self.build(sim)
        workload.start()
        sim.run()
        summary = workload.summary()[1]
        assert summary["latency_us_p99"] >= summary["latency_us_p50"] > 0

    def test_cache_warming_shortens_latency(self):
        latencies = {}
        for warm in (False, True):
            sim = Simulator()
            nic, workload = self.build(sim)
            if warm:
                workload.warm_nic_cache(nic.offload("kvcache"), hot_keys=50)
            workload.start()
            sim.run()
            latencies[warm] = workload.summary()[1]["latency_us_mean"]
        assert latencies[True] < latencies[False]

    def test_wan_tenant_traffic_is_encrypted(self, sim):
        nic = PanicNic(sim, PanicConfig(ports=1))
        HostKvServer(nic.host)
        nic.control.enable_kv_cache()
        nic.control.enable_ipsec_rx()
        spec = TenantSpec(9, rate_pps=200_000, wan=True)
        workload = KvsWorkload(
            sim, nic, [spec], requests_per_tenant=10,
            ipsec=nic.offload("ipsec"),
        )
        workload.populate_store()
        workload.start()
        sim.run()
        assert nic.offload("ipsec").decrypted.value == 10
        assert workload.summary()[9]["responses"] == 10

    def test_deterministic_under_seed(self):
        def run():
            sim = Simulator()
            nic, workload = self.build(sim, seed=7)
            workload.start()
            sim.run()
            return workload.summary()

        assert run() == run()

    def test_tenant_spec_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(1, rate_pps=0)
        with pytest.raises(ValueError):
            TenantSpec(1, rate_pps=100, get_fraction=1.5)


class TestDosFlood:
    def test_flood_marks_packets(self, sim):
        packets = []
        flood = DosFlood(sim, lambda p: packets.append(p) or sim.now,
                         rate_pps=1_000_000, count=20)
        flood.start()
        sim.run()
        assert len(packets) == 20
        assert all(p.meta.annotations["dos"] for p in packets)
        assert all(parse_frame(p.data).ipv4.dscp == 63 for p in packets)
        assert flood.injected == 20

