"""A fired event pins nothing: finished express flights leave no garbage.

An :class:`~repro.noc.express.ExpressFlight` keeps the handle of its
delivery event, and that event's callback is the flight's own bound
``_finish``.  The kernel clears a record's ``fn`` and ``args`` before
calling it, so once the flight delivers nothing closes a cycle through
it: the flight and the packet it carried are freed by reference
counting alone.  Run with the cyclic collector off, a 4x4 mesh that
cut-through-routes corner-to-corner messages must leave no flight and
no delivered packet behind.
"""

import gc

from repro.noc import Endpoint, Mesh, MeshConfig
from repro.noc.express import ExpressFlight
from repro.packet import Packet
from repro.sim import Simulator
from repro.sim.clock import US

SIZE = 4
CORNERS = [(0, 0), (SIZE - 1, 0), (0, SIZE - 1), (SIZE - 1, SIZE - 1)]


class IdSink(Endpoint):
    """Records the bytes of every packet it receives (each message's are
    unique), never the packet."""

    def __init__(self, delivered):
        self.delivered = delivered

    def receive(self, packet):
        self.delivered.append(packet.data)


def run_corner_sends(rounds):
    """Every corner sends to the opposite corner, one message alone on
    the mesh at a time; returns the delivered messages' bytes and the
    number of express flights seen airborne."""
    sim = Simulator()
    mesh = Mesh(sim, MeshConfig(width=SIZE, height=SIZE, fast_path=True))
    delivered, airborne = [], []
    ports = {(x, y): mesh.bind(IdSink(delivered), x, y)
             for y in range(SIZE) for x in range(SIZE)}

    def send(src, dst):
        tag = len(airborne).to_bytes(2, "big")
        ports[src].send(Packet(tag + bytes(62)), mesh.address_of(*dst))
        airborne.append(mesh.express_in_flight)

    at = 0
    for _ in range(rounds):
        for (x, y) in CORNERS:
            at += US
            sim.schedule_at(at, send, (x, y), (SIZE - 1 - x, SIZE - 1 - y))
    sim.run()
    mesh.assert_drained()
    return delivered, sum(airborne)


def test_finished_flights_and_their_packets_are_freed_without_gc():
    gc.collect()
    gc.disable()
    try:
        delivered, flights = run_corner_sends(rounds=25)
        sent = set(delivered)
        left = gc.get_objects()
        flights_left = sum(1 for obj in left if isinstance(obj, ExpressFlight))
        packets_left = sum(1 for obj in left
                           if isinstance(obj, Packet) and obj.data in sent)
    finally:
        gc.enable()
    assert len(sent) == 100
    assert flights == 100  # every message cut through
    assert (flights_left, packets_left) == (0, 0)
