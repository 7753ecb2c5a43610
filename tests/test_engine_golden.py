"""Golden digests of seeded single-tile drives: the engine oracle, pinned.

The equivalence suites compare one execution mode *against* another, so
a change that moves every mode's engine tile together is invisible to
them.  These cases hash what one tile does, standing alone on a small
mesh, under seeded traffic from two sources and a fixed fault script --
a heartbeat probe, a stall with a rank-store upset and a second probe
inside it, a slowdown, and a crash landing mid-service, each followed by
``recover()`` -- for the two kinds of tile there are:

* a base :class:`Engine` (1 and 2 lanes) over a bounded PIFO, once with
  all-droppable traffic under the ``"raise"`` policy (eviction and
  drop-at-enqueue) and once with mixed traffic under ``"backpressure"``
  (refusals parked at the router);
* an :class:`RmtPipelineEngine` with 2 pipelines and 2 chained engines,
  with sends on the 2 ns cycle grid (same-instant arrivals) and off it.

Outputs follow the chain, take an explicit destination, fan out, come
back to the tile itself (by chain and by explicit address) or fall
through to the local lookup table.  The digest covers every message's
engine spans as the tracer reports them (enqueue instant, PIFO depth
and rank seen on arrival, ``service_start_ps``, finish instant,
status), where and when each output arrived (the next hop), the
heartbeat echoes, the tile's final counters, the ``queue_latency``
samples and the service times (finish minus service start, which the
tile once kept as ``service_latency``) in observation order.

Recorded on the commit *before* the RMT tile was folded onto
``Engine._finish``; the fold left every digest unmodified.  Two things
are deliberately outside them, because that commit changed them:

* spans closed with ``status="blackholed"`` while still *queued* -- the
  parent left a crashed PIFO's messages without a closing span
  (``tests/test_telemetry.py`` pins the fix);
* the RMT tile's ``pps_meter``, which no longer counts heartbeat probes
  (they are echoed before the pipeline sees them).

One change of the fold is visible to neither: an RMT tile's
self-addressed output re-enters through a zero-delay event, as on every
tile, where the parent called ``_loopback`` synchronously.  Only another
arrival at that very picosecond, already scheduled, could tell the two
apart; the off-grid drive cannot produce one and the on-grid drive
happens not to (ten seeds tried), so both RMT digests are the parent's.

Re-recording is deliberate, never routine: say in the cause which
behaviour changed and why the old digest was wrong, and record with
``python -m tests.pins --cause "..." engine.`` (``tests/pins.py``);
EXPERIMENTS.md "Known deviations" lists every past move.
"""

import random

import pytest

from repro.engines.base import Engine
from repro.engines.rmt_engine import RmtPipelineEngine
from repro.noc import Endpoint, Mesh, MeshConfig
from repro.packet import Packet, PanicHeader, build_udp_frame
from repro.packet.packet import MessageKind
from repro.rmt import MatchKey, RmtProgram
from repro.sim import Simulator
from repro.sim.rng import SeededRng
from repro.telemetry import PacketTracer, TelemetryConfig
from tests import pins

PAYLOADS = (18, 18, 64, 200, 512, 1400)
#: Far above any instant of the drive, so a heartbeat probe (ranked by
#: arrival time, lossless) always finds a worse-ranked droppable message
#: to evict from a full PIFO.  Few distinct values: FIFO ties matter.
SLACKS = tuple(10**9 + step * 50_000 for step in range(4))
GAPS = (0, 0, 20_000, 60_000, 200_000, 600_000)


class Sink(Endpoint):
    def __init__(self, sim):
        self.sim = sim
        self.got = []
        self.echoes = 0

    def receive(self, packet):
        ann = packet.meta.annotations
        echo = None
        if "hb_echo_from" in ann:
            # Echoes carry no probe number; the script's probes are far
            # enough apart that the n-th echo answers the n-th probe.
            self.echoes += 1
            echo = self.echoes
        self.got.append((ann.get("seq"), echo, self.sim.now, packet.hops))


class Worker(Engine):
    """Per-byte service time; what to emit is the packet's own choice."""

    def service_time_ps(self, packet):
        return self.clock.cycles_to_ps(8 + len(packet.data) // 16)

    def handle(self, packet):
        return emit(self, packet)


def emit(engine, packet):
    """The drive's output policy, shared by ``Worker.handle`` and the
    RMT tile's decision handler."""
    ann = packet.meta.annotations
    mode = ann.pop("mode", "chain")
    if mode == "explicit":
        return [(packet, ann["sink"])]
    if mode == "self":
        return [(packet, engine.address)]      # second visit: "chain"
    if mode == "fanout":
        copy = Packet(packet.data[:32])
        copy.meta.annotations["seq"] = -ann["seq"]
        return [(packet, None), (copy, ann["sink"])]
    return [(packet, None)]


def frame(size, index):
    return build_udp_frame(
        src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
        src_ip="10.0.0.1", dst_ip="10.0.0.2",
        src_port=1000 + index % 7, dst_port=9, payload=bytes(size))


def run_case(tile, lanes, capacity, overflow, lossless, seed, ties):
    """One seeded drive; returns the observables the digest covers."""
    rng = random.Random(seed)
    sim = Simulator()
    mesh = Mesh(sim, MeshConfig(width=3, height=2))
    if tile == "rmt":
        program = RmtProgram("golden")
        for index in range(3):
            program.add_table(f"t{index}", [MatchKey("udp.dst_port")])
        engine = RmtPipelineEngine(sim, "tile", program, pipelines=2,
                                   chained_engines=2)
        engine.decision_handler = lambda packet, _phv: emit(engine, packet)
    else:
        engine = Worker(sim, "tile", queue_capacity=capacity, lanes=lanes,
                        overflow=overflow)
    engine.bind_port(mesh.bind(engine, 1, 0))
    sources = [mesh.bind(Sink(sim), 0, y) for y in (0, 1)]
    sinks = [Sink(sim), Sink(sim)]
    sink_addrs = [mesh.bind(sink, 2, y).address for y, sink in enumerate(sinks)]
    engine.lookup_table.default_next = sink_addrs[1]
    tracer = PacketTracer(TelemetryConfig(sample_every=1), SeededRng(seed))

    def on_evict(packet):   # what Telemetry installs on every queue
        tracer.end_engine(packet.trace, sim.now, status="evicted")

    engine.queue.on_evict = on_evict

    # Service time of every message the tile finished alive, in finish
    # order: what the deleted ``service_latency`` tracker recorded.
    service = []
    finish = engine._finish

    def observed_finish(packet):
        if engine.fault_mode != "crash":
            service.append(sim.now - packet.trace.service_start)
        finish(packet)

    engine._finish = observed_finish

    traced = []

    def send(source, packet):
        traced.append(tracer.maybe_trace(packet, sim.now))
        source.send(packet, engine.address)

    def crash_in_service(give_up_ps):
        """Crash at the first whole nanosecond from now on at which the
        tracer shows a message admitted to service and not finished."""
        if any(ctx.open_component == engine.name and ctx.service_start >= 0
               for ctx in traced):
            engine.fail("crash")
        elif sim.now < give_up_ps:
            sim.schedule(1_000, crash_in_service, give_up_ps)

    def probe():
        packet = Packet(b"", MessageKind.CONTROL)
        packet.meta.annotations["hb_reply_to"] = sink_addrs[1]
        send(sources[0], packet)

    def burst(count, at, first_seq):
        """``count`` seeded messages from ``at`` on; returns the end."""
        offsets = ([0] * count if ties
                   else rng.sample(range(1, 1_000), count))
        for seq in range(first_seq, first_seq + count):
            at += rng.choice(GAPS)
            sink = rng.choice(sink_addrs)
            mode = rng.choice(("chain", "chain", "explicit", "self", "fanout"))
            chain = rng.choice(([sink], [sink], [engine.address, sink], []))
            packet = Packet(frame(rng.choice(PAYLOADS), seq))
            packet.panic = PanicHeader(
                chain=chain, slack_ps=rng.choice(SLACKS),
                droppable=not (lossless and rng.random() < 0.5))
            packet.meta.annotations.update(seq=seq, mode=mode, sink=sink)
            sim.schedule_at(at + offsets.pop(), send, rng.choice(sources),
                            packet)
        return at

    def settle(at):
        return at + 4_000_000   # past the last finish of what was sent

    # The script: each fault lands inside a burst, each recover() after
    # the burst was sent, and the next burst starts on a quiet tile.
    end = burst(60, 0, 0)
    sim.schedule_at(end // 2 + 300, probe)
    start = settle(end)
    end = burst(40, start, 100)
    sim.schedule_at(start + (end - start) // 3 + 300, engine.fail, "stall")
    sim.schedule_at(start + (end - start) // 2 + 300, probe)
    sim.schedule_at(start + 2 * (end - start) // 3 + 300,
                    engine.queue.corrupt_ranks, SeededRng(seed + 1))
    sim.schedule_at(end + 500_300, engine.recover)
    start = settle(end)
    end = burst(40, start, 200)
    sim.schedule_at(start + (end - start) // 4 + 300,
                    setattr, engine, "slowdown", 2.5)
    sim.schedule_at(end + 500_300, engine.recover)
    start = settle(settle(end))
    end = burst(40, start, 300)
    sim.schedule_at(start + (end - start) // 2 + 300, crash_in_service, end)
    sim.schedule_at(settle(end) + 300, engine.recover)
    burst(20, settle(settle(end)), 400)
    sim.run()

    def lost_while_queued(span):
        args = dict(span[6])
        return (args.get("status") == "blackholed"
                and args["service_start_ps"] == -1)

    spans = [span for span in tracer.report()
             if span[3] == engine.name and not lost_while_queued(span)]
    counters = {
        "processed": engine.processed,
        "rejected": engine.rejected,
        "blackholed": engine.blackholed,
        "pushed": engine.queue.pushed,
        "dropped": engine.queue.dropped,
        "max_occupancy": engine.queue.max_occupancy,
        "lookups": engine.lookup_table.lookups,
        "injected": engine.port.sent,
        "busy_lanes": engine._busy_lanes,
        "backlog": engine.backlog,
    }
    if tile == "rmt":
        counters["decisions"] = engine.decisions
    return {
        "spans": spans,
        "arrivals": [sink.got for sink in sinks],
        "counters": counters,
        "queue_latency": list(engine.queue_latency._samples),
        "service_latency": service,
        "in_flight": mesh.in_flight,
        "now": sim.now,
    }


#: name -> (tile, lanes, capacity, overflow, lossless, seed, ties); each
#: digest is pinned in tests/pins.json as ``engine.<name>``.
CASES = {
    "base_evict_l1": ("base", 1, 4, "raise", False, 31, True),
    "base_evict_l2": ("base", 2, 4, "raise", False, 32, True),
    "base_backpressure_l1": ("base", 1, 3, "backpressure", True, 33, True),
    "base_backpressure_l2": ("base", 2, 3, "backpressure", True, 34, False),
    "rmt_p2_c2": ("rmt", 1, None, "raise", True, 35, False),
    "rmt_p2_c2_ties": ("rmt", 1, None, "raise", True, 36, True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_tile_digest_is_pinned(name):
    pins.golden(f"engine.{name}", run_case(*CASES[name]))


def test_cases_exercise_what_they_claim():
    """The digests pin something only if the script really bites."""
    for name, params in CASES.items():
        run = run_case(*params)
        counters = run["counters"]
        statuses = [dict(span[6]).get("status") for span in run["spans"]]
        assert statuses.count("blackholed") >= 1, name     # died in service
        assert counters["blackholed"] > statuses.count("blackholed"), name
        assert counters["busy_lanes"] == counters["backlog"] == 0, name
        echoes = [got[1] for sink in run["arrivals"] for got in sink
                  if got[1] is not None]
        assert sorted(echoes) == [1, 2], name
        assert max(run["queue_latency"]) > 0, name
        if params[0] == "rmt":
            assert counters["decisions"] < counters["processed"], name
            continue
        assert counters["max_occupancy"] == params[2], name
        if params[3] == "backpressure":
            assert counters["rejected"] > 0, name
        assert counters["dropped"] > 0, name
