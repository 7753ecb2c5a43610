"""Property-based tests (hypothesis) on core data structures and codecs."""

from hypothesis import given, settings, strategies as st

from repro.engines import AhoCorasick, compress, decompress, keystream, xor_bytes
from repro.packet import (
    EthernetHeader,
    Ipv4Header,
    KvOpcode,
    KvRequest,
    MacAddress,
    IPv4Address,
    PanicHeader,
    internet_checksum,
    parse_frame,
    verify_internet_checksum,
    wire_bits,
)
from repro.sched import PifoQueue
from repro.sim.clock import Clock
from repro.sim.stats import Histogram
from tests import udp_frame


# ----------------------------------------------------------------------
# Codec round trips
# ----------------------------------------------------------------------


@given(st.binary(max_size=4096))
@settings(max_examples=200, deadline=None)
def test_compression_roundtrip(data):
    assert decompress(compress(data)) == data


@given(st.binary(max_size=2048))
def test_compression_never_corrupts_header(data):
    blob = compress(data)
    assert blob[:3] == b"LZ1"
    assert int.from_bytes(blob[3:7], "big") == len(data)


@given(st.binary(min_size=1, max_size=512), st.integers(0, 2**32 - 1),
       st.integers(0, 2**32 - 1))
def test_keystream_xor_is_involution(data, spi, seq):
    stream = keystream(b"key", spi, seq, len(data))
    assert xor_bytes(xor_bytes(data, stream), stream) == data


@given(st.binary(max_size=256))
def test_internet_checksum_verifies(data):
    # Checksum fields sit at even offsets in real headers, so the
    # property is over word-aligned data.
    if len(data) % 2:
        data += b"\x00"
    stamped = data + internet_checksum(data).to_bytes(2, "big")
    assert verify_internet_checksum(stamped)


# ----------------------------------------------------------------------
# Header round trips
# ----------------------------------------------------------------------


@given(st.integers(0, 2**48 - 1), st.integers(0, 2**48 - 1),
       st.integers(0, 0xFFFF))
def test_ethernet_header_roundtrip(dst, src, ethertype):
    header = EthernetHeader(MacAddress(dst), MacAddress(src), ethertype)
    parsed, rest = EthernetHeader.unpack(header.pack())
    assert parsed == header and rest == b""


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(0, 255),
    st.integers(20, 0xFFFF),
    st.integers(0, 255),
    st.integers(0, 63),
)
def test_ipv4_header_roundtrip(src, dst, proto, length, ttl, dscp):
    header = Ipv4Header(
        src=IPv4Address(src), dst=IPv4Address(dst), protocol=proto,
        total_length=length, ttl=ttl, dscp=dscp,
    )
    parsed, _rest = Ipv4Header.unpack(header.pack())
    assert parsed.src == header.src
    assert parsed.dst == header.dst
    assert parsed.total_length == length
    assert parsed.dscp == dscp
    assert verify_internet_checksum(header.pack())


@given(st.lists(st.integers(0, 0xFFFF), max_size=50),
       st.integers(0, 2**40), st.booleans(), st.booleans())
def test_panic_header_roundtrip(chain, slack, needs_rmt, droppable):
    header = PanicHeader(chain=chain, slack_ps=slack, needs_rmt=needs_rmt,
                         droppable=droppable)
    parsed, rest = PanicHeader.unpack(header.pack() + b"xyz")
    assert parsed.chain == chain
    assert parsed.slack_ps == slack
    assert parsed.needs_rmt == needs_rmt
    assert parsed.droppable == droppable
    assert rest == b"xyz"


@given(
    st.sampled_from([KvOpcode.GET, KvOpcode.SET, KvOpcode.DELETE]),
    st.integers(0, 0xFFFF),
    st.integers(0, 2**32 - 1),
    st.binary(min_size=1, max_size=64),
    st.binary(max_size=128),
)
def test_kv_request_roundtrip(opcode, tenant, request_id, key, value):
    if opcode != KvOpcode.SET:
        value = b""
    request = KvRequest(opcode, tenant, request_id, key, value)
    parsed, rest = KvRequest.unpack(request.pack())
    assert parsed == request and rest == b""


@given(st.binary(max_size=900), st.integers(1, 0xFFFF), st.integers(1, 0xFFFF))
@settings(max_examples=100, deadline=None)
def test_udp_frame_parse_roundtrip(payload, sport, dport):
    frame = udp_frame(src_port=sport, dst_port=dport, payload=payload)
    parsed = parse_frame(frame)
    assert parsed.payload == payload
    assert parsed.udp.src_port == sport
    assert parsed.udp.dst_port == dport


# ----------------------------------------------------------------------
# Data-structure invariants
# ----------------------------------------------------------------------


@given(st.lists(st.integers(0, 2**40), min_size=1, max_size=200))
def test_pifo_pops_sorted(ranks):
    queue = PifoQueue()
    for i, rank in enumerate(ranks):
        queue.push(i, rank)
    popped = []
    while len(queue):
        popped.append(queue.pop()[1])
    assert popped == sorted(ranks)


@given(st.lists(st.tuples(st.integers(0, 100), st.booleans()),
                min_size=1, max_size=60),
       st.integers(1, 10))
def test_pifo_bounded_never_exceeds_capacity(items, capacity):
    queue = PifoQueue(capacity=capacity)
    accepted = 0
    for i, (rank, droppable) in enumerate(items):
        try:
            if queue.push(i, rank, droppable=True):
                accepted += 1
        except Exception:
            pass
        assert len(queue) <= capacity
    assert queue.pushed == accepted


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False), min_size=1, max_size=300))
def test_histogram_percentiles_monotone(samples):
    h = Histogram()
    for sample in samples:
        h.record(sample)
    pcts = [h.percentile(p) for p in (0, 25, 50, 75, 90, 99, 100)]
    assert pcts == sorted(pcts)
    assert pcts[0] == min(samples)
    assert pcts[-1] == max(samples)


@given(st.integers(1, 10**9), st.floats(min_value=1e6, max_value=1e12,
                                        allow_nan=False))
def test_clock_conversion_bounds(cycles, freq):
    clock = Clock(freq)
    ps = clock.cycles_to_ps(cycles)
    # The period is quantized to integer picoseconds; the conversion is
    # exact w.r.t. the quantized period and never undercounts it.
    assert ps >= cycles * clock.period_ps
    assert ps - cycles * clock.period_ps <= 1
    # And the quantization error vs the ideal period is sub-ps per cycle.
    assert abs(ps - cycles * (1e12 / freq)) <= 0.5 * cycles + 1
    assert ps // clock.period_ps >= cycles - 1


@given(st.integers(0, 10_000))
def test_wire_bits_floor(nbytes):
    bits = wire_bits(nbytes)
    assert bits >= 672
    assert bits % 8 == 0


@given(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=10),
       st.binary(max_size=256))
@settings(max_examples=150, deadline=None)
def test_aho_corasick_matches_naive_search(patterns, haystack):
    automaton = AhoCorasick(patterns)
    found = {(end, automaton.patterns[idx]) for end, idx in automaton.search(haystack)}
    expected = set()
    for pattern in set(patterns):
        start = 0
        while True:
            index = haystack.find(pattern, start)
            if index < 0:
                break
            expected.add((index + len(pattern), pattern))
            start = index + 1
    assert found == expected
