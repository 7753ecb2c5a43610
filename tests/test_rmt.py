"""Tests for the RMT substrate: PHV, parser, tables, actions, pipeline."""

import pytest

from repro.packet import (
    KvOpcode,
    KvRequest,
    build_kv_request_frame,
    build_udp_frame,
    frame_checksums_ok,
    parse_frame,
)
from repro.rmt import (
    ActionContext,
    ActionError,
    MatchKey,
    MatchKind,
    Phv,
    PhvError,
    Register,
    RmtPipeline,
    RmtProgram,
    Table,
    TableError,
    default_parse_graph,
)
from repro.rmt.action import decode_chain, standard_actions
from repro.rmt.parser import deparse


def udp_frame(payload=b"data", dscp=0, dst_ip="10.0.0.2", src_port=1234,
              dst_port=9999):
    return build_udp_frame(
        src_mac="02:00:00:00:00:01",
        dst_mac="02:00:00:00:00:02",
        src_ip="10.0.0.1",
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        payload=payload,
        dscp=dscp,
    )


class TestPhv:
    def test_set_get(self):
        phv = Phv()
        phv.set("ipv4.ttl", 64)
        assert phv.get("ipv4.ttl") == 64

    def test_invalid_field_raises(self):
        with pytest.raises(PhvError):
            Phv().get("nope")

    def test_get_or_default(self):
        assert Phv().get_or("x", 7) == 7

    def test_type_enforcement(self):
        with pytest.raises(TypeError):
            Phv().set("x", 1.5)

    def test_copy_independent(self):
        phv = Phv({"x": 1})
        clone = phv.copy()
        clone.set("x", 2)
        assert phv.get("x") == 1


class TestParser:
    def test_parses_udp(self):
        phv = default_parse_graph().parse(udp_frame(dscp=11))
        assert phv.get("eth.type") == 0x0800
        assert phv.get("ipv4.dscp") == 11
        assert phv.get("udp.dst_port") == 9999
        assert phv.get("meta.payload") == b"data"

    def test_parses_kv(self):
        packet = build_kv_request_frame(KvRequest(KvOpcode.GET, 5, 9, b"key"))
        phv = default_parse_graph().parse(packet.data)
        assert phv.get("kv.opcode") == int(KvOpcode.GET)
        assert phv.get("kv.tenant") == 5
        assert phv.get("kv.key") == b"key"

    def test_non_kv_udp_has_no_kv_fields(self):
        phv = default_parse_graph().parse(udp_frame())
        assert "kv.opcode" not in phv

    def test_malformed_packet_sets_parse_error(self):
        phv = default_parse_graph().parse(b"\x00" * 13)  # truncated L2
        assert phv.get_or("meta.parse_error", 0) == 1

    @pytest.mark.parametrize("src_port,dst_port",
                             [(40000, 11211), (11211, 40000)])
    def test_unknown_kv_opcode_is_a_parse_error_not_a_crash(
            self, src_port, dst_port):
        # First payload byte 9 is no KvOpcode: this used to escape the
        # parser as a bare ValueError and abort the whole simulation.
        frame = udp_frame(src_port=src_port, dst_port=dst_port,
                          payload=b"\x09" + bytes(63))
        phv = default_parse_graph().parse(frame)
        assert phv.get("meta.parse_error") == 1
        assert phv.get("meta.parse_error_state") == b"kv"

    def test_unknown_kv_status_is_a_parse_error_too(self):
        response = bytes([KvOpcode.RESPONSE, 7]) + bytes(10)
        phv = default_parse_graph().parse(
            udp_frame(src_port=11211, dst_port=40000, payload=response))
        assert phv.get("meta.parse_error") == 1

    def test_mac_padding_trimmed_by_ip_length(self):
        frame = udp_frame(payload=b"x")
        padded = frame + bytes(64 - len(frame))
        phv = default_parse_graph().parse(padded)
        assert phv.get("meta.payload") == b"x"


class TestTable:
    def test_exact_match(self):
        table = Table("t", [MatchKey("f")])
        table.add([5], "hit_action")
        entry = table.match(Phv({"f": 5}))
        assert entry is not None
        assert (entry.action, entry.params) == ("hit_action", {})

    def test_exact_miss_gets_default(self):
        table = Table("t", [MatchKey("f")], default_action="dflt",
                      default_params={"a": 1})
        assert table.match(Phv({"f": 9})) is None
        assert (table.default_action, table.default_params) == (
            "dflt", {"a": 1})

    def test_invalid_field_is_miss(self):
        table = Table("t", [MatchKey("f")])
        table.add([5], "x")
        assert table.match(Phv()) is None

    def test_ternary_priority(self):
        table = Table("t", [MatchKey("f", MatchKind.TERNARY)])
        table.add([(0x10, 0xF0)], "low", priority=1)
        table.add([(0x12, 0xFF)], "high", priority=10)
        assert table.match(Phv({"f": 0x12})).action == "high"
        assert table.match(Phv({"f": 0x15})).action == "low"

    def test_lpm_longest_prefix_wins(self):
        table = Table("t", [MatchKey("ip", MatchKind.LPM)])
        table.add([(0x0A000000, 8)], "slash8", priority=8)
        table.add([(0x0A010000, 16)], "slash16", priority=16)
        assert table.match(Phv({"ip": 0x0A010203})).action == "slash16"
        assert table.match(Phv({"ip": 0x0A990203})).action == "slash8"

    def test_lpm_zero_prefix_matches_all(self):
        table = Table("t", [MatchKey("ip", MatchKind.LPM)])
        table.add([(0, 0)], "any")
        assert table.match(Phv({"ip": 12345})).action == "any"

    def test_range_match(self):
        table = Table("t", [MatchKey("port", MatchKind.RANGE)])
        table.add([(1000, 2000)], "in_range")
        assert table.match(Phv({"port": 1500})).action == "in_range"
        assert table.match(Phv({"port": 2001})) is None

    def test_composite_key(self):
        table = Table(
            "t", [MatchKey("a"), MatchKey("b", MatchKind.RANGE)]
        )
        table.add([7, (0, 10)], "both")
        assert table.match(Phv({"a": 7, "b": 5})).action == "both"
        assert table.match(Phv({"a": 8, "b": 5})) is None

    def test_duplicate_exact_entry_rejected(self):
        table = Table("t", [MatchKey("f")])
        table.add([1], "x")
        with pytest.raises(TableError):
            table.add([1], "y")

    def test_entry_arity_checked(self):
        table = Table("t", [MatchKey("a"), MatchKey("b")])
        with pytest.raises(TableError):
            table.add([1], "x")

    def test_capacity_enforced(self):
        table = Table("t", [MatchKey("f")], max_entries=2)
        table.add([1], "x")
        table.add([2], "x")
        with pytest.raises(TableError):
            table.add([3], "x")

    def test_remove_entry(self):
        table = Table("t", [MatchKey("f")])
        entry = table.add([1], "x")
        table.remove_entry(entry)
        assert table.match(Phv({"f": 1})) is None
        with pytest.raises(TableError):
            table.remove_entry(entry)

    def test_hit_counter(self):
        # The stage walk counts a hit; the matcher alone counts nothing.
        program = RmtProgram("p")
        table = program.add_table("t", [MatchKey("udp.dst_port")])
        entry = table.add([9999], "no_op")
        pipe = RmtPipeline(program)
        pipe.process(udp_frame())
        pipe.process(udp_frame())
        assert entry.hits == 2
        table.match(Phv({"udp.dst_port": 9999}))
        assert entry.hits == 2

    def test_needs_at_least_one_key(self):
        with pytest.raises(TableError):
            Table("t", [])


class TestActions:
    def _ctx(self):
        return ActionContext(registers={"r": Register("r", 4)})

    def test_set_field(self):
        actions = standard_actions()
        phv = Phv()
        actions["set_field"](phv, self._ctx(), field="dst", value=1)
        assert phv.get("dst") == 1

    def test_chain_encode_decode(self):
        actions = standard_actions()
        phv = Phv()
        chain = RmtProgram().encode_chain([3, 5])
        actions["set_chain"](phv, self._ctx(), chain=chain)
        assert decode_chain(phv.get("meta.chain")) == [3, 5]

    def test_set_slack_is_absolute_deadline(self):
        actions = standard_actions()
        ctx = ActionContext(now_ps=1000)
        phv = Phv()
        actions["set_slack"](phv, ctx, slack_ps=500)
        assert phv.get("meta.slack_deadline_ps") == 1500

    def test_count_register(self):
        actions = standard_actions()
        ctx = self._ctx()
        for _ in range(3):
            actions["count"](Phv(), ctx, register="r", index=2)
        assert ctx.register("r").read(2) == 3

    def test_hash_select_stable_and_bounded(self):
        actions = standard_actions()
        phv1 = Phv({"ipv4.src": 111, "udp.src_port": 5})
        phv2 = Phv({"ipv4.src": 111, "udp.src_port": 5})
        actions["hash_select"](phv1, self._ctx(), fields=["ipv4.src", "udp.src_port"], ways=4)
        actions["hash_select"](phv2, self._ctx(), fields=["ipv4.src", "udp.src_port"], ways=4)
        assert phv1.get("meta.rx_queue") == phv2.get("meta.rx_queue")
        assert 0 <= phv1.get("meta.rx_queue") < 4

    def test_decrement_ttl_drops_at_zero(self):
        actions = standard_actions()
        phv = Phv({"ipv4.ttl": 1})
        actions["decrement_ttl"](phv, self._ctx())
        assert phv.get("meta.drop") == 1

    def test_register_bounds(self):
        reg = Register("r", 2)
        with pytest.raises(IndexError):
            reg.read(2)
        with pytest.raises(ValueError):
            Register("bad", 0)

    def test_unknown_register_raises(self):
        with pytest.raises(ActionError):
            ActionContext().register("ghost")

    def test_decode_chain_odd_length_rejected(self):
        with pytest.raises(ActionError):
            decode_chain(b"\x00")


class TestDeparse:
    """Header fields an action wrote go back on the frame, checksums
    patched the way a switch patches them."""

    @staticmethod
    def _parsed(data):
        return RmtPipeline(RmtProgram()).process(data)._fields

    def test_written_fields_land_with_valid_checksums(self):
        data = udp_frame(b"odd", dscp=10)
        fields = self._parsed(data)
        fields.update({"ipv4.ttl": 63, "ipv4.dscp": 46, "ipv4.src": 0x0A000063,
                       "udp.dst_port": 4242, "eth.dst": 0x020000000009})
        out = deparse(data, fields)
        assert frame_checksums_ok(out)
        frame = parse_frame(out)
        assert (frame.ipv4.ttl, frame.ipv4.dscp, str(frame.ipv4.src),
                frame.udp.dst_port, str(frame.eth.dst)) == (
            63, 46, "10.0.0.99", 4242, "02:00:00:00:00:09")
        assert frame.payload == b"odd"

    def test_an_untouched_frame_is_the_same_bytes(self):
        data = udp_frame()
        assert deparse(data, self._parsed(data)) is data

    @pytest.mark.parametrize("flipped", [24, -1])  # IPv4 sum, UDP payload
    def test_a_bad_checksum_stays_bad(self, flipped):
        raw = bytearray(udp_frame())
        raw[flipped] ^= 0x01
        fields = self._parsed(bytes(raw))
        fields.update({"ipv4.ttl": 63, "udp.dst_port": 4242})
        assert not frame_checksums_ok(deparse(bytes(raw), fields))


class TestPipeline:
    def test_stages_run_in_order(self):
        program = RmtProgram("p")
        t1 = program.add_table("first", [MatchKey("udp.dst_port")])
        t1.add([9999], "set_field", {"field": "meta.mark", "value": 1})
        t2 = program.add_table("second", [MatchKey("meta.mark")])
        t2.add([1], "set_field", {"field": "meta.mark2", "value": 2})
        pipe = RmtPipeline(program)
        phv = pipe.process(udp_frame())
        assert phv.get("meta.mark2") == 2

    def test_drop_short_circuits(self):
        program = RmtProgram("p")
        t1 = program.add_table("dropper", [MatchKey("udp.dst_port")])
        t1.add([9999], "drop")
        t2 = program.add_table("after", [MatchKey("udp.dst_port")])
        t2.add([9999], "set_field", {"field": "meta.after", "value": 1})
        pipe = RmtPipeline(program)
        phv = pipe.process(udp_frame())
        assert phv.get("meta.drop") == 1
        assert "meta.after" not in phv

    def test_requires_guard_skips_stage(self):
        program = RmtProgram("p")
        table = program.add_table(
            "kv_only", [MatchKey("kv.opcode")], requires="kv.opcode"
        )
        table.add([1], "set_field", {"field": "meta.kv", "value": 1})
        pipe = RmtPipeline(program)
        phv = pipe.process(udp_frame())  # not KV
        assert "meta.kv" not in phv

    def test_metadata_seeding(self):
        program = RmtProgram("p")
        pipe = RmtPipeline(program)
        phv = pipe.process(udp_frame(), metadata={"ingress_port": 2})
        assert phv.get("meta.ingress_port") == 2

    def test_unknown_action_raises(self):
        # Actions resolve at install: the bad entry is refused by add,
        # not by the first packet that hits it.
        program = RmtProgram("p")
        table = program.add_table("t", [MatchKey("udp.dst_port")])
        with pytest.raises(ActionError):
            table.add([9999], "not_an_action")
        assert table.size == 0
        with pytest.raises(ActionError):
            program.add_table("u", [MatchKey("x")], default_action="ghost")

    def test_unknown_action_raises_when_its_table_joins(self):
        # An entry installed before its table joins a program resolves
        # (and fails) when the table joins; the program keeps no stage.
        program = RmtProgram("p")
        table = Table("t", [MatchKey("udp.dst_port")])
        table.add([9999], "not_an_action")
        with pytest.raises(ActionError):
            program.add_stage(table)
        assert program.num_stages == 0

    def test_duplicate_action_name_rejected(self):
        program = RmtProgram("p")
        with pytest.raises(ActionError):
            program.add_action("drop", lambda phv, ctx: None)

    def test_duplicate_register_rejected(self):
        program = RmtProgram("p")
        program.add_register("r", 1)
        with pytest.raises(ActionError):
            program.add_register("r", 1)

    def test_table_lookup_by_name(self):
        program = RmtProgram("p")
        table = program.add_table("mine", [MatchKey("x")])
        assert program.table("mine") is table
        with pytest.raises(KeyError):
            program.table("ghost")

    def test_decrement_ttl_rewrites_phv(self):
        program = RmtProgram("p")
        table = program.add_table("ttl", [MatchKey("udp.dst_port")])
        table.add([9999], "decrement_ttl")
        phv = RmtPipeline(program).process(udp_frame())
        assert phv.get("ipv4.ttl") == 63
        assert not phv.get_or("meta.drop", 0)
