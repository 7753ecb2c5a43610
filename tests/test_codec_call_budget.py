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
* one ``ParseGraph.parse`` of a KV GET and of a KV response on the
  default graph: ``parse`` -> the one-pass walk -> two ``unpack_from``.
  A count near the FSM's (four extractors, three header ``unpack``s, a
  ``KvRequest``) means the walk declined the paper's own traffic.

A change that pushes a count over its ceiling has put frames back on the
hot path; raise a ceiling only with the ledger numbers that justify it.
"""

import cProfile

from repro.packet.builder import (
    build_kv_request_frame,
    build_kv_response_frame,
    build_udp_frame,
)
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
PARSE_KV_REQUEST = (6, 7)
PARSE_KV_RESPONSE = (6, 7)


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
