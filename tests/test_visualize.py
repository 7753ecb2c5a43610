"""Tests for the ASCII mesh map and utilization report."""

from repro.analysis import mesh_map, utilization_report
from repro.packet import KvOpcode, KvRequest, build_kv_request_frame


class TestVisualize:
    def test_mesh_map_shows_every_engine(self, nic):
        art = mesh_map(nic)
        for key in nic.engines:
            assert key[:13] in art
        assert "4x4 mesh" in art

    def test_mesh_map_empty_tiles_dotted(self, nic):
        assert "." in mesh_map(nic)

    def test_grid_dimensions(self, nic):
        art = mesh_map(nic)
        grid_lines = art.splitlines()[1:]
        # height rows + height+1 separators.
        assert len(grid_lines) == 2 * nic.config.mesh_height + 1

    def test_utilization_report_counts(self, sim, nic):
        nic.control.enable_kv_cache()
        nic.offload("kvcache").cache_put(b"k", b"v")
        nic.inject(build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 1, b"k")))
        sim.run()
        report = utilization_report(nic)
        assert "rmt" in report
        assert "processed=2" in report  # request + response passes
