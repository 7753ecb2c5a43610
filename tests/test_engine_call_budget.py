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
held to the exact counts the code reaches today (``tests/pins.py``
counts by this rule for every budget), so a call put on the
visit -- or taken off it -- shows up here as a one-line diff, to be made
with the ledger numbers that justify it.
EXPERIMENTS.md "Known deviations" lists every past move.
"""

from repro.engines.base import Engine
from repro.engines.rmt_engine import RmtPipelineEngine
from repro.noc import Endpoint, Mesh, MeshConfig
from repro.packet import Packet, PanicHeader, build_udp_frame
from repro.rmt import MatchKey, RmtProgram
from repro.sim import Simulator
from tests import pins

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
    total = pins.calls("repro/engines/", sim.run)
    mesh.assert_drained()
    assert engine.processed == VISITS + 1
    return pins.per(total, VISITS)


def base_engine(sim):
    return Engine(sim, "tile")


def rmt_tile(sim):
    program = RmtProgram("budget")
    program.add_table("t0", [MatchKey("udp.dst_port")])
    return RmtPipelineEngine(
        sim, "tile", program, pipelines=2, memo=True,
        decision_handler=lambda packet, _phv: [(packet, None)])


def test_base_engine_visit_call_budget():
    pins.budget("calls.engine.base_visit", engine_calls_per_visit(base_engine))


def test_rmt_tile_visit_call_budget():
    pins.budget("calls.engine.rmt_visit", engine_calls_per_visit(rmt_tile))
