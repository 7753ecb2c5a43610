"""Property-based tests over system components (routing, shaping,
placement, scheduling policies)."""

from hypothesis import given, settings, strategies as st

from repro.engines.ratelimit import TokenBucket
from repro.noc import Endpoint, Mesh, MeshConfig
from repro.noc.placement import (
    expected_hops,
    greedy_placement,
    manhattan,
)
from repro.packet import Packet
from repro.sched import PifoQueue, WeightedShareSlackPolicy
from repro.sim import Simulator
from repro.sim.clock import SEC


class _Sink(Endpoint):
    def __init__(self):
        self.got = []

    def receive(self, packet):
        self.got.append(packet)


@given(
    st.integers(2, 5), st.integers(2, 5),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_mesh_delivery_hops_equal_manhattan_plus_injection(w, h, data):
    """XY routing takes exactly manhattan(src, dst) + 1 channel hops."""
    sim = Simulator()
    mesh = Mesh(sim, MeshConfig(width=w, height=h))
    sinks = {}
    ports = {}
    for y in range(h):
        for x in range(w):
            sink = _Sink()
            ports[(x, y)] = mesh.bind(sink, x, y)
            sinks[(x, y)] = sink
    sx = data.draw(st.integers(0, w - 1))
    sy = data.draw(st.integers(0, h - 1))
    dx = data.draw(st.integers(0, w - 1))
    dy = data.draw(st.integers(0, h - 1))
    if (sx, sy) == (dx, dy):
        return
    ports[(sx, sy)].send(Packet(b"\x00" * 64), mesh.address_of(dx, dy))
    sim.run()
    [packet] = sinks[(dx, dy)].got
    assert packet.hops == manhattan((sx, sy), (dx, dy)) + 1


@given(st.lists(st.tuples(st.integers(0, w_max := 3),
                          st.integers(0, 3),
                          st.integers(0, 3),
                          st.integers(0, 3)),
                min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_mesh_is_always_lossless(pairs):
    sim = Simulator()
    mesh = Mesh(sim, MeshConfig(width=4, height=4, credits=2))
    sinks = {}
    ports = {}
    for y in range(4):
        for x in range(4):
            sink = _Sink()
            ports[(x, y)] = mesh.bind(sink, x, y)
            sinks[(x, y)] = sink
    sent = 0
    for sx, sy, dx, dy in pairs:
        if (sx, sy) == (dx, dy):
            continue
        ports[(sx, sy)].send(Packet(b"\x00" * 64), mesh.address_of(dx, dy))
        sent += 1
    sim.run()
    assert sum(len(s.got) for s in sinks.values()) == sent
    assert mesh.in_flight == 0


@given(
    st.floats(min_value=1e8, max_value=1e11, allow_nan=False),
    st.integers(100, 10_000),
    st.lists(st.integers(60, 1500), min_size=2, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_token_bucket_never_exceeds_rate_plus_burst(rate_bps, burst, sizes):
    """Cumulative bytes admitted by time T <= burst + rate * T."""
    bucket = TokenBucket(rate_bps=rate_bps, burst_bytes=burst)
    now = 0
    admitted = 0
    for size in sizes:
        when = bucket.eligible_at(size, now)
        assert when >= now
        now = when
        if size <= burst:  # oversized packets can never be admitted
            assert bucket.try_consume(size, now)
            admitted += size
    bound = burst + rate_bps * now / (8 * SEC)
    assert admitted <= bound + 1


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 50)),
                min_size=1, max_size=100))
def test_wfq_virtual_time_never_regresses(events):
    policy = WeightedShareSlackPolicy({0: 1.0, 1: 2.0, 2: 5.0, 3: 0.5})
    last = {}
    for tenant, cost in events:
        deadline = policy.deadline_ps(tenant, 0, cost_ps=cost)
        if tenant in last:
            # Non-decreasing; ties (sub-ps virtual time) are broken FIFO
            # by the PIFO's sequence numbers.
            assert deadline >= last[tenant]
        last[tenant] = deadline


@given(
    st.integers(2, 4),
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7),
                  st.floats(min_value=0.1, max_value=10, allow_nan=False)),
        min_size=1, max_size=20,
    ),
)
@settings(max_examples=50, deadline=None)
def test_greedy_placement_valid_and_bounded(k, raw_traffic):
    engines = [f"e{i}" for i in range(8)]
    traffic = {}
    for a, b, weight in raw_traffic:
        if a != b:
            traffic[(f"e{a}", f"e{b}")] = weight
    placement = greedy_placement(engines, traffic, 4, 4)
    # Valid: all engines placed on distinct tiles inside the mesh.
    assert set(placement) == set(engines)
    coords = list(placement.values())
    assert len(set(coords)) == len(coords)
    assert all(0 <= x < 4 and 0 <= y < 4 for x, y in coords)
    # Bounded: expected hops can never beat 1 (adjacent) for nonzero
    # traffic, nor exceed the mesh diameter.
    if traffic:
        hops = expected_hops(placement, traffic)
        assert 1.0 <= hops <= 6.0


@given(st.lists(st.tuples(st.integers(0, 1000), st.booleans()),
                min_size=1, max_size=80),
       st.integers(1, 8))
def test_pifo_droppable_conservation(items, capacity):
    """accepted + dropped == offered, and survivors beat the dropped."""
    queue = PifoQueue(capacity=capacity)
    offered = 0
    for i, (rank, _d) in enumerate(items):
        queue.push(i, rank, droppable=True)
        offered += 1
    survivors = []
    while len(queue):
        survivors.append(queue.pop()[1])
    assert len(survivors) + queue.dropped == offered
    assert survivors == sorted(survivors)
