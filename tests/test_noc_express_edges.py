"""Edge cases for the NoC cut-through (express) fast path.

:mod:`repro.noc.express` promises the fast path is invisible in
simulated terms even when a flight is disturbed mid-route.  These tests
pin the two nastiest interactions down as fast-vs-slow equivalence runs:

* a foreign delivery commits a prefix of the flight's crossings, after
  which a fault (corruption or flit drop) armed on one of those
  *committed* hops must materialize the still-collapsed remainder and
  hit the **next** message over that wire -- never the flight's own;
* a flight whose final-hop credit pool hits zero in the very window it
  delivers (bounded lossless endpoint refusing the message), stalling
  follow-up traffic until the endpoint frees space;
* a flight materialized in its first hop, whose rebuilt hop completion
  ties with another message's arrival at the router both leave by: the
  completion must keep the place in the tie that the per-hop path gave
  it at launch.

Every observable -- delivery payloads, hop counts, picosecond
timestamps, channel counters, credit deficits -- must be bit-identical
with ``MeshConfig.fast_path`` on or off.
"""

import random

import pytest

from repro.noc import Endpoint, Mesh, MeshConfig
from repro.packet import Packet
from repro.sim import Simulator

#: Serialization of a 64-byte message on a 64-bit 500 MHz channel:
#: 512 / 64 = 8 cycles + 1 router cycle = 9 * 2000 ps per hop.
SER = 18_000


class Sink(Endpoint):
    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def receive(self, packet):
        self.got.append((packet, self.sim.now))


class StingySink(Sink):
    """Bounded lossless input: refuses everything until opened."""

    def __init__(self, sim):
        super().__init__(sim)
        self.accepting = False
        self.refusals = 0

    def try_receive(self, packet):
        if not self.accepting:
            self.refusals += 1
            return False
        self.receive(packet)
        return True

    def open(self):
        self.accepting = True
        if self.notify_space is not None:
            self.notify_space()


def build_row(sim, length, fast_path, credits=8, stingy_at=None):
    """A 1-high mesh row: long straight routes, deterministic timing."""
    mesh = Mesh(sim, MeshConfig(width=length, height=1, credits=credits,
                                fast_path=fast_path))
    sinks, ports = {}, {}
    for x in range(length):
        sink = StingySink(sim) if x == stingy_at else Sink(sim)
        ports[x] = mesh.bind(sink, x, 0)
        sinks[x] = sink
    return mesh, sinks, ports


def _packet(tag):
    return Packet(bytes([tag]) * 64)


def _observables(mesh, sinks):
    deliveries = {
        x: [(p.data, p.hops, t) for p, t in sink.got]
        for x, sink in sinks.items()
    }
    counters = {
        ch.name: (ch.sent, ch.corrupted, ch.dropped_flits,
                  ch.leaked_credits, ch.credit_deficit)
        for ch in mesh.channels
    }
    return deliveries, counters


# ----------------------------------------------------------------------
# Fault armed on a committed hop of a partially-interfered flight
# ----------------------------------------------------------------------


def run_committed_hop_fault(fast_path, fault):
    """Message A cuts through a 6-tile row (0 -> 5).  A local delivery
    into router 1 at t=40us lands after A's crossing ended (36us), so the
    flight commits its first two hops and stays collapsed.  A fault then
    armed on committed hop ``ch_0_0_east`` must materialize the
    remainder and catch message C (0 -> 2), not A.  The probe counts
    flights airborne at 1 us (A launched), 45 us (still collapsed past
    the commit) and 52 us (materialized; A, alone again, relaunches its
    last three hops at 54 us)."""
    sim = Simulator()
    mesh, sinks, ports = build_row(sim, 6, fast_path)
    sim.schedule_at(0, ports[0].send, _packet(0xAA), 5)
    express_probe = []
    for when in (1_000, 45_000, 52_000):
        sim.schedule_at(when,
                        lambda: express_probe.append(mesh.express_in_flight))
    # Foreign traffic into an already-crossed router: commit, don't
    # materialize (22us submit + one inject hop = 40us delivery).
    sim.schedule_at(22_000, ports[1].send, _packet(0xBB), 1)
    wire = mesh.channel("mesh.ch_0_0_east")
    if fault == "corruption":
        sim.schedule_at(50_000, wire.inject_corruption, random.Random(7), 4)
    else:
        sim.schedule_at(50_000, wire.inject_drop)
    sim.schedule_at(60_000, ports[0].send, _packet(0xCC), 2)
    sim.run()
    mesh.assert_drained()
    return _observables(mesh, sinks), sim.events_fired, express_probe


@pytest.mark.parametrize("fault", ["corruption", "drop"])
def test_committed_hop_fault_is_mode_invisible(fault):
    obs_fast, events_fast, probe_fast = run_committed_hop_fault(True, fault)
    obs_slow, events_slow, probe_slow = run_committed_hop_fault(False, fault)
    assert obs_fast == obs_slow
    # The fast run really did collapse the route, kept it collapsed past
    # the commit and materialized it at the fault; the slow run did not.
    assert probe_fast == [1, 1, 0]
    assert probe_slow == [0, 0, 0]
    assert events_fast <= events_slow


@pytest.mark.parametrize("fault", ["corruption", "drop"])
def test_committed_hop_fault_hits_the_next_message(fault):
    (deliveries, counters), _, probe = run_committed_hop_fault(True, fault)
    assert probe == [1, 1, 0]
    # A arrives pristine at the analytic cut-through time: 6 hops.
    assert deliveries[5] == [(bytes([0xAA]) * 64, 6, 6 * SER)]
    # B's local delivery (the interferer) is untouched.
    assert deliveries[1] == [(bytes([0xBB]) * 64, 1, 40_000)]
    sent, corrupted, dropped, leaked, deficit = counters["mesh.ch_0_0_east"]
    if fault == "corruption":
        # C still arrives, 3 hops later, with flipped payload bits.
        assert len(deliveries[2]) == 1
        data, hops, when = deliveries[2][0]
        assert when == 60_000 + 3 * SER
        assert hops == 3
        assert data != bytes([0xCC]) * 64
        assert (corrupted, dropped) == (1, 0)
    else:
        # C vanished on the wire and its credit leaked.
        assert deliveries[2] == []
        assert (corrupted, dropped) == (0, 1)
        assert leaked == 1
        assert deficit == 1


# ----------------------------------------------------------------------
# Cut-through whose final credit hits zero in the delivery window
# ----------------------------------------------------------------------


def run_zero_credit_window(fast_path):
    """With one credit per channel, flight A's delivery into the refusing
    endpoint at tile 3 consumes the final hop's last credit in the same
    window it finishes; follow-up C (2 -> 3) must wait for the endpoint
    to free space before the credit loop moves again."""
    sim = Simulator()
    mesh, sinks, ports = build_row(sim, 4, fast_path, credits=1, stingy_at=3)
    sim.schedule_at(0, ports[0].send, _packet(0xAA), 3)
    express_probe = []
    sim.schedule_at(1_000,
                    lambda: express_probe.append(mesh.express_in_flight))
    sim.schedule_at(80_000, ports[2].send, _packet(0xCC), 3)
    sim.schedule_at(120_000, sinks[3].open)
    sim.run()
    mesh.assert_drained()
    refusals = sinks[3].refusals
    return _observables(mesh, sinks), sim.events_fired, express_probe, refusals


def test_zero_credit_delivery_window_is_mode_invisible():
    obs_fast, events_fast, probe_fast, refusals_fast = \
        run_zero_credit_window(True)
    obs_slow, events_slow, probe_slow, refusals_slow = \
        run_zero_credit_window(False)
    assert obs_fast == obs_slow
    assert refusals_fast == refusals_slow
    assert probe_fast == [1]
    assert probe_slow == [0]
    # The collapsed 4-hop traversal saved real kernel events.
    assert events_fast < events_slow


def test_zero_credit_delivery_window_timing():
    (deliveries, counters), _, probe, refusals = run_zero_credit_window(True)
    assert probe == [1]
    # A parked at the router until the endpoint opened at 120us.
    assert deliveries[3][0] == (bytes([0xAA]) * 64, 4, 120_000)
    # C could not even start its final hop while A held the only credit:
    # it serializes right after the release and lands one hop later.
    assert deliveries[3][1] == (bytes([0xCC]) * 64, 2, 120_000 + SER)
    assert refusals >= 1
    # Quiesced credit pools are whole again.
    sent, corrupted, dropped, leaked, deficit = counters["mesh.ch_2_0_east"]
    assert (corrupted, dropped, leaked, deficit) == (0, 0, 0, 0)
    assert sent == 2


# ----------------------------------------------------------------------
# Materialized first hop in a same-instant tie
# ----------------------------------------------------------------------


def run_first_hop_tie(fast_path):
    """A (256 B, 1 -> 4) launches alone at t=0; its first hop, the
    injection into router 1, ends at 66 us.  C (64 B, 0 -> 4), sent at
    30 us, reaches router 1 at 66 us too, and both want ``ch_1_0_east``.
    On the per-hop path A's hop completion was scheduled at 0 and C's
    arrival at 48 us, so A takes the channel and C queues behind it.  A
    fault armed far down A's route at 60 us materializes the flight in
    its first hop; the rebuilt completion must still beat C."""
    sim = Simulator()
    mesh, sinks, ports = build_row(sim, 5, fast_path)
    sim.schedule_at(0, ports[1].send, Packet(bytes([0xAA]) * 256), 4)
    express_probe = []
    for when in (1_000, 62_000):
        sim.schedule_at(when,
                        lambda: express_probe.append(mesh.express_in_flight))
    sim.schedule_at(30_000, ports[0].send, _packet(0xCC), 4)
    sim.schedule_at(60_000, mesh.channel("mesh.ch_3_0_east").inject_corruption,
                    random.Random(3), 1)
    sim.run()
    mesh.assert_drained()
    return _observables(mesh, sinks), express_probe


def test_first_hop_tie_is_mode_invisible():
    obs_fast, probe_fast = run_first_hop_tie(True)
    obs_slow, probe_slow = run_first_hop_tie(False)
    assert obs_fast == obs_slow
    # The flight launched and the fault materialized it.
    assert probe_fast == [1, 0]
    assert probe_slow == [0, 0]
    # A kept the channel: it lands four 66 us hops after launch, and C
    # one 18 us hop after A has left ch_3_0_east.
    (_, a_hops, a_when), (_, c_hops, c_when) = obs_fast[0][4]
    assert (a_hops, a_when) == (4, 4 * 66_000)
    assert (c_hops, c_when) == (5, 4 * 66_000 + SER)
