"""Tests for multi-tile heavyweight RMT pipelines (Figure 3c)."""

import pytest

from repro.core import PanicConfig, PanicNic
from repro.packet import KvOpcode, KvRequest, build_kv_request_frame, parse_frame
from repro.sim import Simulator


class TestMultiTileRmt:
    def build(self, sim, tiles=2, ports=2):
        return PanicNic(sim, PanicConfig(
            ports=ports, rmt_tiles=tiles, mesh_width=4, mesh_height=4,
            offloads=("kvcache",),
        ))

    def test_tiles_constructed(self, sim):
        nic = self.build(sim)
        assert len(nic.rmt_tiles) == 2
        assert "rmt" in nic.engines and "rmt1" in nic.engines
        assert nic.rmt is nic.rmt_tiles[0]

    def test_ports_spread_across_tiles(self, sim):
        nic = self.build(sim)
        assert nic.ports[0].lookup_table.default_next == nic.rmt_tiles[0].address
        assert nic.ports[1].lookup_table.default_next == nic.rmt_tiles[1].address

    def test_both_tiles_process_traffic(self, sim):
        nic = self.build(sim)
        nic.control.enable_kv_cache()
        nic.offload("kvcache").cache_put(b"k", b"v")
        nic.inject(build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 1, b"k")),
                   port=0)
        nic.inject(build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 2, b"k")),
                   port=1)
        sim.run()
        assert len(nic.transmitted) == 2
        assert nic.rmt_tiles[0].processed >= 1
        assert nic.rmt_tiles[1].processed >= 1

    def test_single_control_plane_programs_all_tiles(self, sim):
        nic = self.build(sim)
        nic.control.enable_kv_cache()
        # Both engines share the very same program object.
        assert (nic.rmt_tiles[0].pipeline.program
                is nic.rmt_tiles[1].pipeline.program)

    def test_responses_work_from_either_tile(self, sim):
        nic = self.build(sim)
        nic.control.enable_kv_cache()
        nic.offload("kvcache").cache_put(b"k", b"v")
        for i, port in enumerate((0, 1, 0, 1)):
            nic.inject(
                build_kv_request_frame(KvRequest(KvOpcode.GET, 1, i, b"k")),
                port=port,
            )
        sim.run()
        values = {parse_frame(p.data).kv_response().value
                  for p in nic.transmitted}
        assert values == {b"v"}
        assert len(nic.transmitted) == 4

    def test_tile_count_validated(self):
        with pytest.raises(ValueError):
            PanicConfig(rmt_tiles=0)

    def test_tiles_fit_check(self):
        with pytest.raises(ValueError):
            PanicConfig(ports=2, rmt_tiles=12, mesh_width=4, mesh_height=4)

    def test_aggregate_throughput_scales(self, sim):
        """Two tiles admit packets concurrently: the span for a burst
        split across tiles is about half the single-tile span."""
        nic = self.build(sim)
        times = {0: [], 1: []}
        for index, tile in enumerate(nic.rmt_tiles):
            original = tile.decision_handler

            def handler(packet, phv, _index=index, _orig=original):
                times[_index].append(sim.now)
                return _orig(packet, phv)

            tile.decision_handler = handler
        nic.control.enable_kv_cache()
        nic.offload("kvcache").cache_put(b"k", b"v")
        for i in range(20):
            nic.inject(
                build_kv_request_frame(KvRequest(KvOpcode.GET, 1, i, b"k")),
                port=i % 2,
            )
        sim.run()
        assert len(times[0]) >= 10 and len(times[1]) >= 10
