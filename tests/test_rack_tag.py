"""Tag-based rack flow identity: parser, caps, mesh sizing, equivalence.

The 6-bit DSCP encoding caps all-pairs rack flows at 7 NICs; the
VXLAN-style 16-bit payload tag (``flow_id="tag"``) lifts that to 255.
These tests pin the parser's ``rack_tag`` state (the walk must agree
bit-for-bit with the codec golden's reference FSM), the short-payload
error path, the ``resolve_flow_id`` vocabulary and caps, automatic NoC
mesh sizing for wide racks, and that tag-identified racks stay
bit-identical between monolithic and sharded execution.
"""

import pytest

from repro.packet.builder import build_udp_frame
from repro.packet.headers import RACK_TAG_BYTES, RACK_TAG_UDP_PORT
from repro.rmt.parser import default_parse_graph
from repro.sim.shard import run_monolithic, run_sharded
from repro.workloads.rack import (
    MAX_RACK_NICS,
    MAX_TAG_RACK_NICS,
    flow_tag,
    rack_mesh_size,
    rack_topology,
    resolve_flow_id,
)
from tests.test_codec_golden import reference_phv


def _tagged_frame(tag: int, payload: bytes = bytes(20)) -> bytes:
    return build_udp_frame(
        src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
        src_ip="10.0.0.1", dst_ip="10.0.1.1",
        src_port=40001, dst_port=RACK_TAG_UDP_PORT,
        payload=tag.to_bytes(RACK_TAG_BYTES, "big") + payload,
    )


class TestRackTagParsing:
    def test_fused_and_fsm_agree(self):
        # The walk against the codec golden's object-building reference
        # FSM, insertion order included.
        frame = _tagged_frame(0x1234)
        walked = default_parse_graph().parse(frame)
        assert walked.get("rack.tag") == 0x1234
        assert list(walked._fields.items()) == list(
            reference_phv(frame)._fields.items())

    def test_untagged_port_leaves_field_unset(self):
        graph = default_parse_graph()
        frame = build_udp_frame(
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1", dst_ip="10.0.1.1",
            src_port=40001, dst_port=9000, payload=bytes(20),
        )
        phv = graph.parse(frame)
        assert phv.get_or("rack.tag", None) is None

    def test_tag_does_not_consume_payload(self):
        # The shim stays part of meta.payload: fixed offsets (checksum,
        # KV parse, the rack workload's seq/index fields) never shift.
        graph = default_parse_graph()
        phv = graph.parse(_tagged_frame(0x00FF, payload=b"hello" + bytes(8)))
        payload = phv.get("meta.payload")
        assert payload[:RACK_TAG_BYTES] == b"\x00\xff"
        assert payload[RACK_TAG_BYTES:RACK_TAG_BYTES + 5] == b"hello"

    def test_short_payload_marks_parse_error(self):
        graph = default_parse_graph()
        frame = build_udp_frame(
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1", dst_ip="10.0.1.1",
            src_port=40001, dst_port=RACK_TAG_UDP_PORT, payload=b"\x01",
        )
        phv = graph.parse(frame)
        assert phv.get("meta.parse_error") == 1
        assert phv.get("meta.parse_error_state") == b"rack_tag"


class TestFlowIdResolution:
    def test_auto_picks_dscp_up_to_seven(self):
        assert resolve_flow_id("auto", 7) == "dscp"
        assert resolve_flow_id("auto", 8) == "tag"

    def test_dscp_cap_enforced(self):
        with pytest.raises(ValueError, match="dscp"):
            resolve_flow_id("dscp", MAX_RACK_NICS + 1)

    def test_tag_cap_enforced(self):
        with pytest.raises(ValueError, match="tag"):
            resolve_flow_id("tag", MAX_TAG_RACK_NICS + 1)
        with pytest.raises(ValueError):
            resolve_flow_id("auto", MAX_TAG_RACK_NICS + 1)

    def test_unknown_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="flow_id"):
            resolve_flow_id("vlan", 4)

    def test_topology_rejects_oversized_dscp_rack(self):
        with pytest.raises(ValueError):
            rack_topology(nics=8, flow_id="dscp")

    def test_tags_are_unique_per_directed_flow(self):
        n = 12
        tags = {flow_tag(s, d, n)
                for s in range(n) for d in range(n) if s != d}
        assert len(tags) == n * (n - 1)


class TestMeshSizing:
    def test_small_racks_keep_stock_mesh(self):
        # <= 7 NICs must keep the historical 4x4 so DSCP-era configs are
        # bit-for-bit unchanged.
        assert rack_mesh_size(6) == 4

    def test_wide_racks_grow_square(self):
        # 31 ports + DMA + PCIe + RMT + checksum offload = 35 tiles.
        assert rack_mesh_size(31) == 6
        assert rack_mesh_size(62) == 9

    def test_wide_rack_builds_and_runs(self):
        topo = rack_topology(nics=9, frames=2, pattern="fanin")
        result = run_monolithic(topo)
        assert len(result.reports["nic0"]["deliveries"]) == 8 * 2


class TestTagEquivalence:
    def test_forced_tag_on_small_rack(self):
        # Same rack size the DSCP suite covers, but on the tag path:
        # mono and sharded must agree bit-for-bit.
        topo = rack_topology(nics=4, frames=6, flow_id="tag")
        mono = run_monolithic(topo)
        for name in mono.reports:
            assert len(mono.reports[name]["deliveries"]) == 3 * 6
        sharded = run_sharded(topo, workers=2)
        assert sharded.reports == mono.reports
        assert sharded.wire_stats == mono.wire_stats

    def test_auto_tag_rack_sharded(self):
        topo = rack_topology(nics=9, frames=3, pattern="fanin")
        mono = run_monolithic(topo)
        assert len(mono.reports["nic0"]["deliveries"]) == 8 * 3
        sharded = run_sharded(topo, workers=3)
        assert sharded.reports == mono.reports

    def test_tag_delivery_attribution_matches_dscp(self):
        # Same traffic pattern under both encodings: the delivered
        # (src, seq) sets must agree even though wire bytes differ.
        def srcseq(reports):
            return {name: [(s, q) for s, q, _t, _queue in
                           report["deliveries"]]
                    for name, report in reports.items()}
        dscp = run_monolithic(rack_topology(nics=4, frames=5,
                                            flow_id="dscp"))
        tag = run_monolithic(rack_topology(nics=4, frames=5,
                                           flow_id="tag"))
        assert srcseq(dscp.reports) == srcseq(tag.reports)
