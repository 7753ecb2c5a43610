"""Call budget of one engine-tile visit: Python calls, counted exactly.

An engine visit is mostly interpreter frames (ROADMAP item 3), and
cProfile's ``ncalls`` are deterministic, so this gate needs no wall
clock.  One message at a time crosses an otherwise idle tile on a
standalone mesh -- the router's ``try_receive`` to the return of
``Engine._finish``, output injected toward a sink -- and the count is
every call *into* ``repro.engines`` code plus every call that code makes
out of it into the rest of ``repro`` or a builtin (PIFO, trackers,
``Component.now``, the NoC port; the drive's own decision handler is not
the tile's).  What those callees do inside is theirs and has its own
budget: the NoC's in ``test_noc_call_budget.py``, the RMT pass's in
``test_rmt_call_budget.py``.

Both kinds of tile finish through the same ``Engine._finish``; they are
held to the exact counts the code reaches today, so a call put on the
visit -- or taken off it -- shows up here as a one-line diff, to be made
with the ledger numbers that justify it.
"""

import cProfile

from repro.engines.base import Engine
from repro.engines.rmt_engine import RmtPipelineEngine
from repro.noc import Endpoint, Mesh, MeshConfig
from repro.packet import Packet, PanicHeader, build_udp_frame
from repro.rmt import MatchKey, RmtProgram
from repro.sim import Simulator

VISITS = 20

FRAME = build_udp_frame(
    src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
    src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1000, dst_port=9,
    payload=bytes(64))


class Sink(Endpoint):
    def receive(self, packet):
        pass


def engine_calls_per_visit(build) -> int:
    """Calls into and out of repro.engines code per idle-tile visit."""
    sim = Simulator()
    mesh = Mesh(sim, MeshConfig(width=3, height=1))
    source = mesh.bind(Sink(), 0, 0)
    engine = build(sim)
    engine.bind_port(mesh.bind(engine, 1, 0))
    sink = mesh.bind(Sink(), 2, 0).address

    def visit():
        packet = Packet(FRAME)
        packet.panic = PanicHeader(chain=[sink])
        source.send(packet, engine.address)

    # Warm the caches a first message fills (serialization delay,
    # express path, RMT memo), then send the counted ones one at a time.
    visit()
    sim.run()
    for index in range(VISITS):
        sim.schedule(index * 1_000_000, visit)
    profile = cProfile.Profile()
    profile.runcall(sim.run)
    mesh.assert_drained()
    assert engine.processed == VISITS + 1

    def in_engines(code):
        return (not isinstance(code, str)
                and "/repro/engines/" in code.co_filename)

    total = 0
    for entry in profile.getstats():
        if not in_engines(entry.code):
            continue
        total += entry.callcount
        # Builtins and the rest of repro only: hypothesis hangs gc
        # callbacks on whatever frame is live when a collection fires.
        total += sum(sub.callcount for sub in entry.calls or ()
                     if isinstance(sub.code, str)
                     or ("/repro/" in sub.code.co_filename
                         and not in_engines(sub.code)))
    assert total % VISITS == 0, "per-visit call count is not constant"
    return total // VISITS


def base_engine(sim):
    return Engine(sim, "tile")


def rmt_tile(sim):
    program = RmtProgram("budget")
    program.add_table("t0", [MatchKey("udp.dst_port")])
    return RmtPipelineEngine(
        sim, "tile", program, pipelines=2, memo=True,
        decision_handler=lambda packet, _phv: [(packet, None)])


#: Calls per visit.  The RMT tile's was 41 on its own copy of the
#: completion path (EXPERIMENTS.md E25 itemises the difference) and 39
#: while it fed a rate meter nothing read (E26).  Both were 3 higher
#: (29 / 38) while ``service_latency`` was observed and the enqueue
#: stamp and trail lived in the annotations dict, and the RMT tile paid
#: one more ``now`` read for the stamp's pop default (E31).  Both were 1
#: higher (26 / 34) while ``_finish`` called ``_echo_heartbeat`` for
#: every message instead of testing for a CONTROL packet first.  Both
#: were 25 / 33 until a message reaching an idle base tile started
#: service in ``receive`` (one PIFO ``pass_through`` instead of a push,
#: a ``_try_start`` and a pop), ``_route_by_chain`` walked the chain
#: cursor itself, a delayed send was scheduled straight at the port,
#: the queue-latency sample became one ``record`` and ``now`` was read
#: off the kernel once per step (EXPERIMENTS.md E36).  The RMT tile's
#: was 22 while it fetched its intrinsic metadata from a process-global
#: memo and handed it to ``process`` for a ``"meta."`` prefix per field;
#: it now writes the fields into the PHV and calls ``run`` (E37).  Both
#: were 1 higher (13 / 21) while ``_finish`` appended the tile's name to
#: a trail every packet carried (``Packet.touch``); a packet's path is
#: now read from its engine spans when it is traced.
BASE_VISIT = 12
RMT_VISIT = 20


def test_base_engine_visit_call_budget():
    assert engine_calls_per_visit(base_engine) == BASE_VISIT


def test_rmt_tile_visit_call_budget():
    assert engine_calls_per_visit(rmt_tile) == RMT_VISIT
