"""Tests for the analytical mesh model -- Table 3 must reproduce exactly."""

import pytest

from repro.noc import MeshAnalysis, table3_rows
from repro.noc.analysis import TABLE3_PAPER
from repro.sim.clock import MHZ


class TestTable3:
    def test_all_rows_match_paper(self):
        rows = table3_rows()
        assert len(rows) == 4
        for row, (paper_bw, paper_chain) in zip(rows, TABLE3_PAPER):
            assert row.bisection_gbps == pytest.approx(paper_bw)
            assert row.chain_length == pytest.approx(paper_chain, abs=0.005)

    def test_row_labels(self):
        labels = [row.label() for row in table3_rows()]
        assert labels[0] == "40Gbps x2 500MHz 64b 6x6 Mesh"
        assert labels[3] == "100Gbps x2 500MHz 128b 8x8 Mesh"


class TestMeshAnalysis:
    def test_bisection_formula(self):
        # 6x6, 64-bit @ 500 MHz: 2*6 channels * 32 Gbps = 384 Gbps.
        analysis = MeshAnalysis(6, 6, 64, 500 * MHZ)
        assert analysis.channel_bw_bps == 32e9
        assert analysis.bisection_channels == 12
        assert analysis.bisection_bw_bps == 384e9

    def test_capacity_is_twice_bisection(self):
        analysis = MeshAnalysis(8, 8, 64, 500 * MHZ)
        assert analysis.capacity_bps == 2 * analysis.bisection_bw_bps

    def test_chain_length_scales_with_channel_width(self):
        narrow = MeshAnalysis(6, 6, 64, 500 * MHZ)
        wide = MeshAnalysis(6, 6, 128, 500 * MHZ)
        assert wide.chain_length(100e9, 2) > narrow.chain_length(100e9, 2)

    def test_chain_length_drops_with_line_rate(self):
        analysis = MeshAnalysis(8, 8, 128, 500 * MHZ)
        assert analysis.chain_length(40e9, 2) > analysis.chain_length(100e9, 2)

    def test_rectangular_mesh_uses_smaller_cut(self):
        analysis = MeshAnalysis(8, 4, 64, 500 * MHZ)
        assert analysis.bisection_channels == 8

    def test_too_small_mesh_rejected(self):
        with pytest.raises(ValueError):
            MeshAnalysis(1, 4, 64, 500 * MHZ)

    def test_invalid_inputs_rejected(self):
        analysis = MeshAnalysis(4, 4, 64, 500 * MHZ)
        with pytest.raises(ValueError):
            analysis.chain_length(0, 2)
        with pytest.raises(ValueError):
            analysis.chain_length(40e9, 0)
        with pytest.raises(ValueError):
            MeshAnalysis(4, 4, 0, 500 * MHZ)
