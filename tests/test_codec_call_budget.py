"""Call budget of the frame codec: Python calls per frame, counted exactly.

Every frame the simulator carries is built once and parsed at least once
by the RMT pipeline, and both used to be assembled from header and
address objects, a dozen interpreter frames each.  cProfile's ``ncalls``
are deterministic, so -- like ``tests/test_noc_call_budget.py`` -- this
gate needs no wall clock: it counts every call into the codec (the
builder in ``repro.packet``, the parser in ``repro/rmt/parser.py``) and
every call its code makes out of it -- builtins, ``struct`` methods, the
PHV -- for one operation (``tests/pins.py``), and holds the count to
what the code reaches today.

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

A count that rises has put frames back on the hot path; re-record it
only with the ledger numbers that justify it.
EXPERIMENTS.md "Known deviations" lists every past move.
"""

from repro.packet.builder import (
    build_kv_request_frame,
    build_kv_response_frame,
    build_udp_frame,
)
from repro.packet.headers import RACK_TAG_UDP_PORT
from repro.packet.kv import KvOpcode, KvRequest, KvResponse, KvStatus
from repro.rmt.parser import default_parse_graph
from repro.rmt.phv import Phv
from tests import pins

REPEATS = 20


def calls_per_operation(operation, package: str) -> int:
    """Calls into and out of ``package`` per ``operation()``."""
    operation()  # warm memos and lazily compiled state

    def repeated():
        for _ in range(REPEATS):
            operation()

    return pins.per(pins.calls(package, repeated), REPEATS)


def test_build_udp_frame_call_budget():
    payload = bytes(range(23))

    def build():
        build_udp_frame(
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000,
            dst_port=9000, payload=payload, dscp=3, identification=7)

    pins.budget("calls.codec.build_udp_frame",
                calls_per_operation(build, "repro/packet/"))


def _parse_calls(frame: bytes) -> int:
    graph = default_parse_graph()
    phv = Phv()  # the pipeline hands its own in; re-parsing overwrites
    return calls_per_operation(lambda: graph.parse(frame, phv),
                               "repro/rmt/parser.py")


def test_kv_request_parse_call_budget():
    frame = build_kv_request_frame(
        KvRequest(KvOpcode.GET, 3, 99, b"user:42")).data
    pins.budget("calls.codec.parse_kv_request", _parse_calls(frame))


def test_kv_response_parse_call_budget():
    frame = build_kv_response_frame(
        KvResponse(KvStatus.OK, 3, 99, b"value")).data
    pins.budget("calls.codec.parse_kv_response", _parse_calls(frame))


def _udp_frame(dst_port: int, payload: bytes) -> bytes:
    return build_udp_frame(
        src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000,
        dst_port=dst_port, payload=payload)


def test_plain_udp_parse_call_budget():
    pins.budget("calls.codec.parse_plain_udp",
                _parse_calls(_udp_frame(9000, bytes(64))))


def test_rack_tagged_parse_call_budget():
    pins.budget("calls.codec.parse_rack_tagged", _parse_calls(
        _udp_frame(RACK_TAG_UDP_PORT, b"\x12\x34" + bytes(62))))
