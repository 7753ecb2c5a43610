"""Every control-plane verb, tested by the packets it steers.

One table of rows.  A row is one or more calls of a verb on a fresh NIC,
then one frame, then what the pipeline stamped on that frame once
``sim.run()`` returns: its deadline, taken relative to the frame's
arrival at the RMT tile, and its droppable flag.  Each verb has

* a positive row: a frame the verb's entry matches;
* a negative row: a frame the verb must not touch, whose deadline must
  equal the one a NIC without the verb stamps;
* a compose row, for a verb that adds entries: a second call must add
  to the first, and the frame matches the second call.

A check of structure (a table's size) can pass while the behaviour is
wrong; a row checks the packet.  The verb list is read from
:class:`PanicControl`, so a new verb fails here until it has rows.
"""

import inspect
from collections import namedtuple
from functools import lru_cache

import pytest

from repro.core import PanicConfig, PanicNic
from repro.core.pipeline_programs import DEFAULT_SLACK_PS, PanicControl
from repro.packet import KvOpcode, KvRequest, Packet, build_kv_request_frame
from repro.packet.headers import RACK_TAG_BYTES, RACK_TAG_UDP_PORT
from repro.sim import Simulator
from repro.sim.clock import US
from tests import udp_frame

#: Methods that resolve names and program nothing.
LOOKUPS = ("addr", "port_addr")

#: Verbs whose rows are still to be written (their rows give the engine
#: path and the egress port or the drop).  This tuple may only shrink.
ROUTING_VERBS_WITHOUT_ROWS = (
    "enable_ipsec_rx",
    "route_kv_opcode",
    "enable_kv_cache",
    "route_tenant",
    "route_dscp",
    "route_dscp_tx",
    "route_tag_tx",
    "route_udp_port",
    "route_tenant_tx",
    "remap_engine",
)

#: ``calls`` holds one argument tuple per call of ``verb``.  ``frame`` is
#: ``(kind, key)``: a KV GET of tenant ``key``, a UDP frame of DSCP
#: ``key`` or a rack frame of tag ``key``.  ``slack_ps`` is the stamped
#: deadline minus the frame's RMT arrival, or None where the stamp must
#: equal a bare NIC's.
Row = namedtuple("Row", "verb case calls frame slack_ps droppable")

ROWS = (
    Row("set_tenant_slack", "positive", ((1, 50 * US),), ("kv", 1),
        50 * US, False),
    Row("set_tenant_slack", "negative", ((1, 50 * US),), ("kv", 2),
        None, False),
    Row("set_tenant_slack", "compose", ((1, 50 * US), (2, 70 * US)),
        ("kv", 2), 70 * US, False),
    Row("set_dscp_slack", "positive", ((5, 50 * US),), ("dscp", 5),
        50 * US, False),
    Row("set_dscp_slack", "negative", ((5, 50 * US),), ("dscp", 6),
        None, False),
    Row("set_dscp_slack", "compose", ((5, 50 * US), (6, 70 * US)),
        ("dscp", 6), 70 * US, False),
    Row("set_tag_slack", "positive", ((7, 50 * US),), ("tag", 7),
        50 * US, False),
    Row("set_tag_slack", "negative", ((7, 50 * US),), ("tag", 8),
        None, False),
    Row("set_tag_slack", "compose", ((7, 50 * US), (8, 70 * US)),
        ("tag", 8), 70 * US, False),
    # A first message's deadline is its arrival plus cost / weight.
    Row("enable_wfq", "positive", (({1: 4.0}, 4 * US),), ("kv", 1),
        1 * US, False),
    Row("enable_wfq", "negative", (({1: 4.0}, 4 * US),), ("kv", 2),
        None, False),
    Row("enable_wfq", "compose", (({1: 1.0}, 4 * US), ({2: 4.0}, 4 * US)),
        ("kv", 2), 1 * US, False),
    Row("mark_dscp_droppable", "positive", ((9,),), ("dscp", 9),
        1_000_000 * US, True),
    Row("mark_dscp_droppable", "negative", ((9,),), ("dscp", 10),
        None, False),
    Row("mark_dscp_droppable", "compose", ((9,), (10, 30 * US)),
        ("dscp", 10), 30 * US, True),
)


def build_frame(kind, key):
    if kind == "kv":
        return build_kv_request_frame(KvRequest(KvOpcode.GET, key, 1, b"k"))
    tag = kind == "tag"
    return Packet(udp_frame(
        src_port=7777, dst_port=RACK_TAG_UDP_PORT if tag else 8888,
        payload=(key.to_bytes(RACK_TAG_BYTES, "big") if tag else b"")
        + bytes(40),
        dscp=0 if tag else key))


def stamp(verb, calls, frame):
    """Run ``frame`` through a fresh NIC after ``calls`` of ``verb``;
    return its stamped ``(deadline, droppable)``."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1, mesh_width=4, mesh_height=4))
    for args in calls:
        getattr(nic.control, verb)(*args)
    packet = build_frame(*frame)
    nic.inject(packet)
    sim.run()
    return packet.panic.slack_ps, packet.panic.droppable


@lru_cache(maxsize=None)
def bare_stamp(frame):
    """What a NIC no verb programmed stamps on ``frame``."""
    return stamp(None, (), frame)


@pytest.mark.parametrize(
    "row", [pytest.param(row, id=f"{row.verb}-{row.case}") for row in ROWS])
def test_verb_steers_its_frame(row):
    deadline, droppable = stamp(row.verb, row.calls, row.frame)
    bare_deadline, bare_droppable = bare_stamp(row.frame)
    if row.slack_ps is None:
        assert (deadline, droppable) == (bare_deadline, bare_droppable)
    else:
        arrival = bare_deadline - DEFAULT_SLACK_PS
        assert deadline - arrival == row.slack_ps
        assert droppable is row.droppable


def test_every_verb_has_rows():
    verbs = {name for name, _ in inspect.getmembers(
        PanicControl, inspect.isfunction) if not name.startswith("_")}
    verbs -= set(LOOKUPS)
    with_rows = {row.verb for row in ROWS}
    missing = verbs - with_rows - set(ROUTING_VERBS_WITHOUT_ROWS)
    assert not missing, f"verbs without rows: {sorted(missing)}"
    assert set(ROUTING_VERBS_WITHOUT_ROWS) <= verbs
    assert not with_rows & set(ROUTING_VERBS_WITHOUT_ROWS)
    assert len(ROUTING_VERBS_WITHOUT_ROWS) <= 10
    for verb in with_rows:
        cases = sorted(row.case for row in ROWS if row.verb == verb)
        assert cases == ["compose", "negative", "positive"], verb
