"""Call budget of the frame codec: Python calls per frame, counted exactly.

Every frame the simulator carries is built once and parsed at least once
by the RMT pipeline, and both used to be assembled from header and
address objects, a dozen interpreter frames each.  cProfile's ``ncalls``
are deterministic, so -- like ``tests/test_noc_call_budget.py`` -- this
gate needs no wall clock: it counts every call made *by* codec code (its
own functions plus the builtins and ``struct`` methods they invoke) for
one operation, and holds the count to a ceiling just above what the code
reaches today.

* one ``build_udp_frame`` with text addresses (the spelling every
  workload uses; the address memo is warm, as it is after a flow's
  first frame): the four memo lookups, one ``int.from_bytes`` of the
  payload, one ``Struct.pack``;
* one ``ParseGraph.parse`` on the default graph of a KV GET, a KV
  response, a plain UDP frame and a rack-tagged UDP frame (the traffic
  of the chain and rack workloads): ``parse``, then per state one
  extractor call and its ``unpack_from`` (the KV and tag states add one
  ``len``).  A header, address or KV message object built on the walk
  would show as a dozen more.

A change that pushes a count over its ceiling has put frames back on the
hot path; raise a ceiling only with the ledger numbers that justify it.
"""

import cProfile

from repro.packet.builder import (
    build_kv_request_frame,
    build_kv_response_frame,
    build_udp_frame,
)
from repro.packet.headers import RACK_TAG_UDP_PORT
from repro.packet.kv import KvOpcode, KvRequest, KvResponse, KvStatus
from repro.rmt.parser import default_parse_graph
from repro.rmt.phv import Phv

REPEATS = 20


def calls_per_operation(operation, *owners: str) -> int:
    """Calls made per ``operation()`` by code whose file path contains
    one of ``owners``, builtins they invoke included."""
    operation()  # warm memos and lazily compiled state
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(REPEATS):
        operation()
    profile.disable()
    total = 0
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str) or not any(
                owner in code.co_filename for owner in owners):
            continue
        total += entry.callcount
        total += sum(sub.callcount for sub in entry.calls or ()
                     if isinstance(sub.code, str))
    assert total % REPEATS == 0, "per-operation call count is not constant"
    return total // REPEATS


#: (calls reached when this gate was written, ceiling); the object-built
#: codec this replaced made 79, 68 and 67.
BUILD_UDP_FRAME = (12, 13)
#: The parses were 6, 6, 5 and 5 calls while a fused one-pass copy of
#: the default graph's UDP spine stood in for the walk.  Deleting it
#: left one walk for every graph, at the walk's per-state calls (KV
#: 6 -> 10, plain UDP 5 -> 7, tagged 5 -> 9); in 10 in-process pairs
#: against the fused copy, ``kvs_isolation`` (two parses per request)
#: read a median wall ratio of 1.030 and ``chain_sparse`` 1.014
#: (EXPERIMENTS.md E40).
PARSE_KV_REQUEST = (10, 10)
PARSE_KV_RESPONSE = (10, 10)
PARSE_PLAIN_UDP = (7, 7)
PARSE_RACK_TAGGED = (9, 9)


def test_build_udp_frame_call_budget():
    payload = bytes(range(23))

    def build():
        build_udp_frame(
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000,
            dst_port=9000, payload=payload, dscp=3, identification=7)

    calls = calls_per_operation(build, "/repro/packet/")
    assert calls <= BUILD_UDP_FRAME[1], (
        f"{calls} codec calls per build_udp_frame "
        f"(was {BUILD_UDP_FRAME[0]} when the budget was set)")


def _parse_calls(frame: bytes) -> int:
    graph = default_parse_graph()
    phv = Phv()  # the pipeline hands its own in; re-parsing overwrites
    return calls_per_operation(
        lambda: graph.parse(frame, phv),
        "/repro/rmt/parser.py", "/repro/rmt/phv.py", "/repro/packet/")


def test_kv_request_parse_call_budget():
    frame = build_kv_request_frame(
        KvRequest(KvOpcode.GET, 3, 99, b"user:42")).data
    calls = _parse_calls(frame)
    assert calls <= PARSE_KV_REQUEST[1], (
        f"{calls} codec calls per KV request parse "
        f"(was {PARSE_KV_REQUEST[0]} when the budget was set)")


def test_kv_response_parse_call_budget():
    frame = build_kv_response_frame(
        KvResponse(KvStatus.OK, 3, 99, b"value")).data
    calls = _parse_calls(frame)
    assert calls <= PARSE_KV_RESPONSE[1], (
        f"{calls} codec calls per KV response parse "
        f"(was {PARSE_KV_RESPONSE[0]} when the budget was set)")


def _udp_frame(dst_port: int, payload: bytes) -> bytes:
    return build_udp_frame(
        src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000,
        dst_port=dst_port, payload=payload)


def test_plain_udp_parse_call_budget():
    calls = _parse_calls(_udp_frame(9000, bytes(64)))
    assert calls <= PARSE_PLAIN_UDP[1], (
        f"{calls} codec calls per plain UDP parse "
        f"(was {PARSE_PLAIN_UDP[0]} when the budget was set)")


def test_rack_tagged_parse_call_budget():
    calls = _parse_calls(
        _udp_frame(RACK_TAG_UDP_PORT, b"\x12\x34" + bytes(62)))
    assert calls <= PARSE_RACK_TAGGED[1], (
        f"{calls} codec calls per rack-tagged parse "
        f"(was {PARSE_RACK_TAGGED[0]} when the budget was set)")
