"""Call budget of the NoC data path: Python calls per hop, counted exactly.

The per-hop path is the simulator's largest layer on the rack workloads,
and its cost is mostly interpreter frames.  cProfile's ``ncalls`` are
deterministic, so this gate needs no wall clock: it counts every call
into ``repro.noc`` code plus every call that code makes out of it, to
builtins (list/dict methods) or the rest of ``repro`` (the kernel's
``schedule``), while one message at a time crosses an otherwise idle
standalone 4x4 mesh, and holds the count to what the code reaches today
(``tests/pins.py``).  Calls the kernel makes on its own behalf (its
heap) are not the NoC's and are not counted.

* scalar hop (``fast_path=False``): the difference between a 7-hop and a
  4-hop route isolates three middle hops from per-message costs.  One
  hop is ``_complete`` -> ``on_deliver`` -> ``_forward`` -> ``submit``
  -> ``_start`` (and its serialization-table read), then the credit
  hand-back; the router's two fairness rotations are two increments
  of its round-robin offset, no calls.
* express flight (``fast_path=True``): everything from ``send`` to the
  endpoint's ``receive`` for one completed 7-hop flight, and what each
  further hop adds to it (the router's reservation and its release).

A count that rises has put frames back on the hot path; re-record it
only with the ledger numbers that justify it.
EXPERIMENTS.md "Known deviations" lists every past move.
"""

from repro.noc import Endpoint, Mesh, MeshConfig
from repro.packet import Packet
from repro.sim import Simulator
from tests import pins

MESSAGES = 20


class Sink(Endpoint):
    def receive(self, packet):
        pass


def noc_calls_per_message(fast_path: bool, far: tuple) -> int:
    """Calls into and out of repro.noc code per corner-to-``far``
    message."""
    sim = Simulator()
    mesh = Mesh(sim, MeshConfig(width=4, height=4, fast_path=fast_path))
    port = mesh.bind(Sink(), 0, 0)
    dest = mesh.bind(Sink(), *far).address
    # Warm the caches a first message fills (serialization delay,
    # express path), then send the counted ones one at a time.
    port.send(Packet(bytes(200)), dest)
    sim.run()
    for index in range(MESSAGES):
        sim.schedule(index * 1_000_000, port.send, Packet(bytes(200)), dest)
    total = pins.calls("repro/noc/", sim.run)
    mesh.assert_drained()
    return pins.per(total, MESSAGES)


def test_scalar_hop_call_budget():
    long_route = noc_calls_per_message(False, (3, 3))    # 7 hops
    short_route = noc_calls_per_message(False, (3, 0))   # 4 hops
    pins.budget("calls.noc.scalar_hop", pins.per(long_route - short_route, 3))


def test_express_flight_call_budget():
    long_route = noc_calls_per_message(True, (3, 3))
    short_route = noc_calls_per_message(True, (3, 0))
    pins.budget("calls.noc.express_flight_7_hops", long_route)
    pins.budget("calls.noc.express_extra_hop",
                pins.per(long_route - short_route, 3))
