"""Property-based tests on the RMT substrate: table semantics against
brute-force reference implementations, and parser totality."""

import struct

from hypothesis import given, settings, strategies as st

from repro.core import PanicConfig, PanicNic
from repro.packet import Packet, build_udp_frame
from repro.packet.kv import KV_UDP_PORT
from repro.rmt import MatchKey, MatchKind, Phv, Table, default_parse_graph
from repro.sim import Simulator


# ----------------------------------------------------------------------
# Ternary matching == reference implementation
# ----------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.integers(0, 255), st.integers(0, 255),
                  st.integers(0, 100)),
        min_size=1, max_size=20,
    ),
    st.integers(0, 255),
)
@settings(max_examples=200, deadline=None)
def test_ternary_table_matches_reference(entries, probe):
    table = Table("t", [MatchKey("f", MatchKind.TERNARY)])
    for i, (value, mask, priority) in enumerate(entries):
        table.add([(value, mask)], f"a{i}", priority=priority)
    entry = table.match(Phv({"f": probe}))

    # Reference: highest priority wins; stable (insertion) order ties.
    best = None
    for i, (value, mask, priority) in enumerate(entries):
        if (probe & mask) == (value & mask):
            if best is None or priority > best[0]:
                best = (priority, i)
    if best is None:
        assert entry is None
    else:
        assert entry is not None
        assert entry.action == f"a{best[1]}"


@given(
    st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 32)),
        min_size=1, max_size=16, unique=True,
    ),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_lpm_longest_prefix_reference(prefixes, probe):
    table = Table("lpm", [MatchKey("ip", MatchKind.LPM)])
    for i, (prefix, length) in enumerate(prefixes):
        table.add([(prefix, length)], f"a{i}", priority=length)
    entry = table.match(Phv({"ip": probe}))

    def matches(prefix, length):
        if length == 0:
            return True
        mask = ((1 << length) - 1) << (32 - length)
        return (probe & mask) == (prefix & mask)

    best = None
    for i, (prefix, length) in enumerate(prefixes):
        if matches(prefix, length):
            if best is None or length > best[0]:
                best = (length, i)
    if best is None:
        assert entry is None
    else:
        assert entry is not None
        assert entry.action == f"a{best[1]}"


@given(
    st.lists(
        st.tuples(st.integers(0, 65535), st.integers(0, 65535),
                  st.integers(0, 50)),
        min_size=1, max_size=16,
    ),
    st.integers(0, 65535),
)
@settings(max_examples=150, deadline=None)
def test_range_table_matches_reference(raw_entries, probe):
    entries = [(min(a, b), max(a, b), p) for a, b, p in raw_entries]
    table = Table("r", [MatchKey("port", MatchKind.RANGE)])
    for i, (low, high, priority) in enumerate(entries):
        table.add([(low, high)], f"a{i}", priority=priority)
    entry = table.match(Phv({"port": probe}))
    best = None
    for i, (low, high, priority) in enumerate(entries):
        if low <= probe <= high:
            if best is None or priority > best[0]:
                best = (priority, i)
    if best is None:
        assert entry is None
    else:
        assert entry is not None and entry.action == f"a{best[1]}"


# ----------------------------------------------------------------------
# Parser totality: never raises, always terminates
# ----------------------------------------------------------------------


@given(st.binary(max_size=200))
@settings(max_examples=300, deadline=None)
def test_parser_total_on_arbitrary_bytes(data):
    phv = default_parse_graph().parse(data)
    # Either a clean parse or an explicit parse_error marker -- never an
    # exception, and meta.payload always set.
    assert phv.is_valid("meta.payload") or phv.get_or("meta.parse_error", 0)


@st.composite
def _kv_shaped(draw):
    """Bytes laid out like a KV request/response whose lengths add up,
    so the parser gets past the truncation checks to the opcode and
    status bytes -- which are arbitrary."""
    key = draw(st.binary(max_size=8))
    value = draw(st.binary(max_size=8))
    opcode = draw(st.integers(0, 255))
    if draw(st.booleans()):
        head = struct.pack("!BHIHI", opcode, draw(st.integers(0, 0xFFFF)),
                           draw(st.integers(0, 2**32 - 1)),
                           len(key), len(value))
        return head + key + value
    head = struct.pack("!BBHII", 0x80, opcode, draw(st.integers(0, 0xFFFF)),
                       draw(st.integers(0, 2**32 - 1)), len(value))
    return head + value


@given(st.one_of(st.binary(max_size=80), _kv_shaped()), st.booleans())
@settings(max_examples=150, deadline=None)
def test_arbitrary_bytes_on_the_kv_port_never_abort_a_run(payload, reply):
    # Unlike the totality test above, the frame is well-formed down to
    # UDP, so every example reaches the KV parse state: unknown opcode
    # or status bytes, truncated bodies, a GET carrying a value ...
    # all must end as a parse error inside the NIC, none as an
    # exception out of sim.run().
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1, offloads=("kvcache",)))
    nic.control.enable_kv_cache()
    ports = (KV_UDP_PORT, 40000) if reply else (40000, KV_UDP_PORT)
    frame = build_udp_frame(
        src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
        src_ip="10.1.2.3", dst_ip="10.4.5.6",
        src_port=ports[0], dst_port=ports[1], payload=payload,
    )
    phv = default_parse_graph().parse(frame)
    assert phv.is_valid("meta.payload") or phv.get("meta.parse_error") == 1
    nic.inject(Packet(frame))
    sim.run()


@given(
    st.integers(1, 65535),
    st.integers(1, 65535),
    st.binary(max_size=100),
    st.integers(0, 63),
    st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_parser_faithful_on_valid_udp(sport, dport, payload, dscp, ecn):
    frame = build_udp_frame(
        src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
        src_ip="10.1.2.3", dst_ip="10.4.5.6",
        src_port=sport, dst_port=dport, payload=payload,
        dscp=dscp, ecn=ecn,
    )
    phv = default_parse_graph().parse(frame)
    assert phv.get("udp.src_port") == sport
    assert phv.get("udp.dst_port") == dport
    assert phv.get("ipv4.dscp") == dscp
    assert phv.get("ipv4.ecn") == ecn
    if dport != 11211 and sport != 11211:
        assert phv.get("meta.payload") == payload
