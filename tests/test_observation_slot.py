"""A packet's one observation slot: ``Packet.trace``.

Its :class:`~repro.telemetry.tracer.TraceCtx` names the span sink (the
tracer, when the packet is sampled), INT's sink (the NIC's
:class:`~repro.telemetry.int_.IntAgent`, when INT is on), or both.  INT
records every Ethernet frame and the tracer only sampled ones, so the
two must share contexts without either moving the other: the sampled
set is the same with INT on or off, a context made for INT alone takes
the tracer when its packet is sampled, and a frame a tile builds itself
(a host TX frame, a KV-cache or RDMA reply) gets its context where it is
built.
"""

import os

import pytest

from repro import HostKvServer, PanicConfig, PanicNic, Simulator
from repro.packet import KvOpcode, KvRequest, Packet, build_kv_request_frame
from repro.sim.clock import NS, US
from repro.sim.rng import SeededRng
from repro.sim.shard import run_monolithic, run_sharded
from repro.telemetry import PacketTracer, TelemetryConfig, TraceCtx
from repro.telemetry.config import IntConfig
from repro.workloads.rack import rack_topology
from repro.workloads.wire import Wire


def _rack(int_=None):
    return rack_topology(
        nics=4, pattern="symmetric", frames=6, gap_ps=400 * NS,
        propagation_ps=500 * NS, seed=3,
        telemetry=TelemetryConfig(sample_every=3), int_=int_)


def test_sampling_adopts_a_context_made_for_int():
    tracer = PacketTracer(TelemetryConfig(sample_every=1), SeededRng(1))
    packet = Packet(bytes(64))
    stack = ((2, 0, 10, 20, -1, 0),)
    ctx = packet.trace = TraceCtx(records=stack)
    assert tracer.maybe_trace(packet, 0) is ctx
    assert ctx.tracer is tracer and ctx.trace_id == 0
    assert ctx.records is stack
    assert tracer.seen == tracer.sampled == 1
    # Sampled now, so a re-offer is not a new arrival.
    assert tracer.maybe_trace(packet, 5) is ctx
    assert tracer.seen == 1


def test_sampled_set_is_the_same_with_int_on_and_off():
    off = run_monolithic(_rack())
    on = run_monolithic(_rack(IntConfig()))
    assert sum(len(report["int"]) for report in on.reports.values()) > 0
    for name, report in off.reports.items():
        summary = report["trace_summary"]
        assert 0 < summary["sampled"] < summary["seen"], name
        assert on.reports[name]["trace_summary"] == summary, name
        assert on.reports[name]["trace"] == report["trace"], name


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="sharded execution requires os.fork")
def test_int_and_sampled_contexts_cross_shards_bit_identically():
    # Every node sends and receives, so side-channel stacks cross the
    # shard boundary into INT-only and traced-plus-INT contexts alike.
    topology = _rack(IntConfig())
    mono = run_monolithic(topology)
    sharded = run_sharded(topology, workers=2)
    assert set(sharded.reports) == set(mono.reports)
    for name, report in mono.reports.items():
        assert report["int"] and report["trace"], name
        assert report["stats"]["int"]["frames_seen"] > 0
        assert sharded.reports[name] == report, f"{name} diverges"
    assert sharded.wire_stats == mono.wire_stats
    assert sharded.events_fired == mono.events_fired


#: Postcards of :func:`_origin_pair` and each NIC's ``(frames_seen,
#: hops_recorded)``, as the commit that gave INT a slot on every tile and
#: the host recorded them, when a frame got its INT state lazily at its
#: first enqueue.
ORIGIN = {
    ("kvcache", False): ({
        "nic1": [
            (1690531, 3, (2, 1), ((2, 0, 747248, 935248, 0, 0),
                                  (1, 1, 1449168, 1690531, 0, 0))),
            (7671990, 3, (2, 1), ((2, 0, 6734968, 6922968, 0, 0),
                                  (1, 1, 7436888, 7671990, 0, 0))),
            (17549981, 3, (2, 1), ((2, 0, 16700232, 16802232, 0, 0),
                                   (1, 1, 17316312, 17549981, 0, 0))),
        ],
        "nic2": [
            (4040796, 0, (1, 2), ((1, 0, 3144410, 3236410, 0, 0),
                                  (2, 1, 3749850, 4040796, 0, 0))),
        ],
    }, [(6, 6), (6, 4)]),
    ("kvcache", True): ({
        "nic1": [
            (1743491, 3, (2, 1), ((2, 0, 752048, 960048, 0, 0),
                                  (1, 1, 1479728, 1743491, 0, 0))),
            (7724950, 3, (2, 1), ((2, 0, 6739768, 6947768, 0, 0),
                                  (1, 1, 7467448, 7724950, 0, 0))),
            (17629501, 3, (2, 1), ((2, 0, 16751592, 16853592, 0, 0),
                                   (1, 1, 17373432, 17629501, 0, 0))),
        ],
        "nic2": [
            (4092156, 0, (1, 2), ((1, 0, 3144410, 3236410, 0, 0),
                                  (2, 1, 3754810, 4092156, 0, 0))),
        ],
    }, [(6, 6), (6, 4)]),
    ("rdma", False): ({
        "nic1": [
            (1942837, 3, (2, 1), ((2, 0, 747248, 1187327, 0, 0),
                                  (1, 1, 1701407, 1942837, 0, 0))),
            (4926493, 3, (2, 1), ((2, 0, 3749850, 4178352, 0, 0),
                                  (1, 1, 4692432, 4926493, 0, 0))),
        ],
        "nic2": [],
    }, [(4, 4), (4, 2)]),
    ("rdma", True): ({
        "nic1": [
            (1995797, 3, (2, 1), ((2, 0, 752048, 1212127, 0, 0),
                                  (1, 1, 1731967, 1995797, 0, 0))),
            (4979453, 3, (2, 1), ((2, 0, 3754650, 4203152, 0, 0),
                                  (1, 1, 4722992, 4979453, 0, 0))),
        ],
        "nic2": [],
    }, [(4, 4), (4, 2)]),
}


def _origin_pair(server_tile, inband):
    """nic1's host sends KV GETs to nic2, so every frame on the wire is
    one a tile built: nic1's DMA TX frames, and nic2's replies.  With
    ``"kvcache"`` nic2 serves a cached key, a host-served key, then the
    cached key again (KV-cache replies and its host's TX reply); with
    ``"rdma"`` its RDMA tile serves both GETs from host memory."""
    sim = Simulator()
    nics = [PanicNic(sim, PanicConfig(ports=1, seed=seed,
                                      int_=IntConfig(inband=inband)),
                     name=f"nic{seed}") for seed in (1, 2)]
    client, server = nics
    Wire(sim, client, server, propagation_ps=500 * NS)
    if server_tile == "kvcache":
        server.control.enable_kv_cache()
        server.offload("kvcache").cache_put(b"hot", b"served-on-nic")
        HostKvServer(server.host)
        server.host.store(b"cold", b"served-by-host")
        keys = (b"hot", b"cold", b"hot")
    else:
        server.control.route_kv_opcode(KvOpcode.GET, ["rdma"],
                                       append_dma=False)
        server.host.store(b"mem", b"dma-read-value")
        keys = (b"mem", b"mem")
    for index, key in enumerate(keys):
        frame = build_kv_request_frame(
            KvRequest(KvOpcode.GET, 1, index, key)).data
        sim.schedule_at(index * 3 * US, client.host.enqueue_tx, frame)
    sim.run()
    return nics


@pytest.mark.parametrize("inband", [False, True],
                         ids=["side-channel", "in-band"])
@pytest.mark.parametrize("server_tile", ["kvcache", "rdma"])
def test_frames_a_tile_builds_carry_int_from_birth(server_tile, inband):
    nics = _origin_pair(server_tile, inband)
    postcards, counts = ORIGIN[server_tile, inband]
    assert {nic.name: nic.int_agent.postcards() for nic in nics} \
        == postcards
    # Every frame a NIC built or took off the wire is seen once, and
    # every hop it finished is recorded.
    assert [(nic.int_agent.frames_seen, nic.int_agent.hops_recorded)
            for nic in nics] == counts
