"""Tests for IMIX traffic generation and cross-feature combinations."""

import pytest

from repro.packet import parse_frame
from repro.sim.rng import SeededRng
from repro.workloads import CbrSource
from repro.workloads.generator import IMIX_BLEND, imix_factory


class TestImixFactory:
    def _sizes(self, n=600):
        factory = imix_factory(rng=SeededRng(5))
        return [len(factory(i).data) for i in range(n)]

    def test_only_blend_sizes_produced(self):
        allowed = {size for size, _w in IMIX_BLEND}
        observed = set(self._sizes())
        # 64-byte target means a 64-byte frame (min payload applies).
        assert observed <= allowed | {64}
        assert len(observed) == 3

    def test_blend_ratios_roughly_hold(self):
        sizes = self._sizes(1200)
        small = sum(1 for s in sizes if s == 64)
        medium = sum(1 for s in sizes if s == 570)
        large = sum(1 for s in sizes if s == 1500)
        total = len(sizes)
        assert small / total == pytest.approx(7 / 12, abs=0.08)
        assert medium / total == pytest.approx(4 / 12, abs=0.08)
        assert large / total == pytest.approx(1 / 12, abs=0.05)

    def test_frames_parse_and_carry_cookie(self):
        factory = imix_factory(rng=SeededRng(1))
        packet = factory(42)
        parsed = parse_frame(packet.data)
        assert parsed.udp is not None
        assert int.from_bytes(parsed.payload[:8], "big") == 42

    def test_deterministic_for_seed(self):
        a = [len(imix_factory(rng=SeededRng(9))(i).data) for i in range(50)]
        b = [len(imix_factory(rng=SeededRng(9))(i).data) for i in range(50)]
        assert a == b

    def test_flows_vary_by_seq(self):
        factory = imix_factory(rng=SeededRng(2))
        ports = {parse_frame(factory(i).data).udp.src_port for i in range(20)}
        assert len(ports) > 1  # multiple flows for RSS spreading


class TestImixThroughNic:
    def test_imix_mix_survives_panic(self, sim, nic):
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        source = CbrSource(
            sim, "imix.src", nic.inject, imix_factory(rng=SeededRng(3)),
            rate_pps=1_000_000, count=60,
        )
        source.start()
        sim.run()
        assert len(delivered) == 60
        sizes = {len(p.data) for p in delivered}
        assert len(sizes) == 3  # all three classes arrived intact
