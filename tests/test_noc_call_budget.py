"""Call budget of the NoC data path: Python calls per hop, counted exactly.

The per-hop path is the simulator's largest layer on the rack workloads,
and its cost is mostly interpreter frames.  cProfile's ``ncalls`` are
deterministic, so this gate needs no wall clock: it counts every call
made *by* ``repro.noc`` code -- its own functions plus the builtins they
invoke (list/dict methods) -- while one message at a time crosses an
otherwise idle standalone 4x4 mesh, and holds the count to a ceiling a
few calls above what the code reaches today.  Calls the kernel makes on
its own behalf (its heap) are not the NoC's and are not counted.

* scalar hop (``fast_path=False``): the difference between a 7-hop and a
  4-hop route isolates three middle hops from per-message costs.  One
  hop is ``_complete`` -> ``on_deliver`` -> ``_forward`` -> ``submit``
  -> ``_start`` (and its serialization-table read), then the credit
  hand-back; the router's two fairness rotations are two increments
  of its round-robin offset, no calls.
* express flight (``fast_path=True``): everything from ``send`` to the
  endpoint's ``receive`` for one completed 7-hop flight, and what each
  further hop adds to it (the router's reservation and its release).

A change that pushes a count over its ceiling has put frames back on the
hot path; raise a ceiling only with the ledger numbers that justify it.
"""

import cProfile

from repro.noc import Endpoint, Mesh, MeshConfig
from repro.packet import Packet
from repro.sim import Simulator

MESSAGES = 20


class Sink(Endpoint):
    def receive(self, packet):
        pass


def noc_calls_per_message(fast_path: bool, far: tuple) -> float:
    """Calls made by repro.noc code per corner-to-``far`` message."""
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
    profile = cProfile.Profile()
    profile.runcall(sim.run)
    mesh.assert_drained()
    total = 0
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str) or "/repro/noc/" not in code.co_filename:
            continue
        total += entry.callcount
        total += sum(sub.callcount for sub in entry.calls or ()
                     if isinstance(sub.code, str))
    assert total % MESSAGES == 0, "per-message call count is not constant"
    return total // MESSAGES


#: (calls reached when this gate was written, ceiling).  Set at 11, 55
#: and 6 while each round-robin rotation was a list ``pop(0)`` plus an
#: ``append``.  A flight read 29 of its ceiling 32 while every send
#: built a separate envelope object; a packet is now its own envelope
#: (the send writes three slots, no call), so the flight's ceiling is
#: what it reaches.  A hop builds no envelope, so the per-hop counts
#: did not move.
SCALAR_HOP = (7, 9)
EXPRESS_FLIGHT_7_HOPS = (28, 28)
EXPRESS_EXTRA_HOP = (2, 3)


def test_scalar_hop_call_budget():
    long_route = noc_calls_per_message(False, (3, 3))    # 7 hops
    short_route = noc_calls_per_message(False, (3, 0))   # 4 hops
    per_hop, remainder = divmod(long_route - short_route, 3)
    assert remainder == 0, "middle hops do not cost the same"
    assert per_hop <= SCALAR_HOP[1], (
        f"{per_hop} NoC calls per uncontended scalar hop "
        f"(was {SCALAR_HOP[0]} when the budget was set)")


def test_express_flight_call_budget():
    long_route = noc_calls_per_message(True, (3, 3))
    short_route = noc_calls_per_message(True, (3, 0))
    assert long_route <= EXPRESS_FLIGHT_7_HOPS[1], (
        f"{long_route} NoC calls per completed 7-hop express flight "
        f"(was {EXPRESS_FLIGHT_7_HOPS[0]} when the budget was set)")
    per_hop = (long_route - short_route) / 3
    assert per_hop <= EXPRESS_EXTRA_HOP[1], (
        f"each extra hop adds {per_hop} NoC calls to an express flight "
        f"(was {EXPRESS_EXTRA_HOP[0]} when the budget was set)")
