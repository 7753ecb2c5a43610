"""Golden digests of seeded standalone-mesh traffic: the per-hop oracle, pinned.

Every equivalence suite compares an accelerated path *against* the
scalar (per-hop) NoC, so a bug that moves scalar and express together is
invisible to them.  These cases hash what a standalone mesh produces
under random traffic -- every message's delivery instant and hop count,
every channel's ``sent``/``bits_sent``/busy time/credits and fault
counters, every router's ``forwarded``/``delivered`` and final
round-robin order, the backpressuring endpoint's refusal count and the
kernel event count -- with ``fast_path`` on and off, and hold each to a
sha256 recorded before the scalar data path was rebuilt in place (static
route table, size fixed at injection, direct forward into an idle
router).  One picosecond, one rotation or one kernel event of drift is a
one-line diff here.  The express digests were re-recorded once, when
flights began to launch only onto an otherwise empty mesh and a
materialized first hop began to keep its flight's event sequence number;
the scalar digests did not move.

Re-recording is deliberate, never routine: say in the commit which
behaviour changed and why the old digest was wrong.  Print the new
values with ``python tests/test_noc_golden.py``.
"""

import hashlib
import json
import random

import pytest

from repro.noc import Endpoint, Mesh, MeshConfig
from repro.packet import Packet
from repro.sim import Simulator

SIZES = (64, 64, 128, 200, 512, 1024, 1500)


class Sink(Endpoint):
    def __init__(self, sim):
        self.sim = sim
        self.got = {}

    def receive(self, packet):
        # Keyed by the packet itself: the dict keeps it alive, so no
        # two packets share a key.
        self.got[packet] = (self.sim.now, packet.hops)


class SlowSink(Sink):
    """Bounded lossless input: two slots, one message served per 40 ns.

    Refuses when full and wakes its router through ``notify_space`` each
    time a slot frees, like an engine with a backpressure queue -- so
    routers park messages, credits stall upstream, and the accept's own
    notify re-enters the pump."""

    SLOTS = 2
    SERVICE_PS = 40_000

    def __init__(self, sim):
        super().__init__(sim)
        self.queue = []
        self.refusals = 0

    def try_receive(self, packet):
        if len(self.queue) >= self.SLOTS:
            self.refusals += 1
            return False
        self.queue.append(packet)
        if len(self.queue) == 1:
            self.sim.schedule(self.SERVICE_PS, self._served)
        return True

    def _served(self):
        self.receive(self.queue.pop(0))
        if self.queue:
            self.sim.schedule(self.SERVICE_PS, self._served)
        self.notify_space()


def run_case(width, height, credits, messages, seed, faults, ties, fast_path):
    """Seeded traffic over a fully bound mesh; returns the observables.

    Every NoC delay is a whole number of 2 ns cycles.  With ``ties`` the
    sends sit on that grid too, so same-picosecond arrivals contend at
    routers and arbitration order is part of what is pinned; without,
    each send (and fault) gets its own sub-cycle offset and no two
    events ever share an instant."""
    rng = random.Random(seed)
    sim = Simulator()
    mesh = Mesh(sim, MeshConfig(width=width, height=height, credits=credits,
                                fast_path=fast_path))
    tiles = width * height
    slow = rng.randrange(tiles)
    sinks, ports = [], []
    for address in range(tiles):
        sink = (SlowSink if address == slow else Sink)(sim)
        ports.append(mesh.bind(sink, address % width, address // width))
        sinks.append(sink)

    sent = []

    def send(src, dst, size):
        packet = Packet(bytes([src]) * size)
        ports[src].send(packet, dst)
        sent.append(packet)

    # Bursts keep several messages on the wires at once; a third of the
    # traffic converges on the slow sink (incast -> parked messages).
    offsets = ([0] * (messages + faults) if ties
               else rng.sample(range(1, 2_000), messages + faults))
    at = 0
    for _ in range(messages):
        at += rng.choice((0, 0, 2_000, 10_000, 30_000, 120_000))
        src = rng.randrange(tiles)
        dst = slow if rng.random() < 0.33 else rng.randrange(tiles)
        sim.schedule_at(at + offsets.pop(), send, src, dst,
                        rng.choice(SIZES))
    for index in range(faults):
        channel = rng.choice(mesh.channels)
        when = rng.randrange(0, at + 1, 2_000) + offsets.pop()
        if index % 2:
            sim.schedule_at(when, channel.inject_corruption,
                            random.Random(seed * 131 + index),
                            rng.randint(1, 4), rng.choice((None, 3, 70)))
        else:
            sim.schedule_at(when, channel.inject_drop, rng.random() < 0.5)
    sim.run()

    delivered = {}
    for sink in sinks:
        delivered.update(sink.got)
    return {
        "messages": [delivered.get(m) for m in sent],
        "channels": {
            ch.name: (ch.sent, ch.bits_sent, ch._busy_accum_ps,
                      ch.credits, ch.corrupted, ch.dropped_flits,
                      ch.leaked_credits)
            for ch in mesh.channels},
        "routers": {
            r.name: (r.forwarded, r.delivered,
                     r.buffered_messages, [ch.name for ch in r._rr_order])
            for r in mesh.routers},
        "refusals": sinks[slow].refusals,
        "in_flight": mesh.in_flight,
        "now": sim.now,
        "events": sim.events_fired,
    }


def digest(observables) -> str:
    blob = json.dumps(observables, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


#: name -> ((width, height, credits, messages, seed, faults, ties),
#:          sha256 with fast_path on, sha256 with fast_path off).
#: The two runs agree on everything but the event count.
CASES = {
    "2x2_c1": ((2, 2, 1, 120, 11, 0, False),
        "3d5064429ab38dd5cca4294c823ad60efa6320633241d27efb3eb1d61f202fee",
        "d28e77342fc6b87912f22bbaffacada109c5b43b80f0bbfef16e4f30b6e5a94a"),
    "3x3_c2": ((3, 3, 2, 200, 12, 0, False),
        "3d111d6d07af56cbea80c33213949934b9ceb78b30f4e2827607d50334dfd9f0",
        "7a7c2bd4a41ddf05c63cc71ff86e2956785c561e3324dd295d9807c8e87351e0"),
    "4x4_c8": ((4, 4, 8, 300, 13, 0, False),
        "cb2f0a9ef539ccad922018a0acaf3f55ef269be7c8820b52f91385c60a827354",
        "a220949cf35cc442781c4c99a13dc92de15a128a6dedbd103fe4f6817935e727"),
    "6x6_c8": ((6, 6, 8, 400, 14, 0, False),
        "aace03fa8d236114d5708b687c52694fe2ed3cd409023fad23c65b79c949c63b",
        "aace03fa8d236114d5708b687c52694fe2ed3cd409023fad23c65b79c949c63b"),
    "3x3_c2_faults": ((3, 3, 2, 200, 16, 6, False),
        "2ed75cd71712ab2fc1827c5e26a60f1e331ad3a7b72ccf1a080742bd4ffc23a2",
        "e158f9d39294eb476166b9c3ce3ff79bf5f719b7fa2e2dbad45b3aa33ecf250a"),
    "4x4_c8_faults": ((4, 4, 8, 300, 17, 8, False),
        "ad6733edfcdc9f206ee1f7e494acce6f5e70a351b08cd954e191ac6c24f375ff",
        "b7b4dfe7864c5039ce932b5a8475efc10978f4421f372710bb36a7b6c982f768"),
    "6x6_c1_faults": ((6, 6, 1, 300, 18, 8, False),
        "e81e449c0c6e679a10307e5e9786fb04d67f2eeb463e1a97ccb8aac97eebd16f",
        "e81e449c0c6e679a10307e5e9786fb04d67f2eeb463e1a97ccb8aac97eebd16f"),
    "5x2_c1_ties": ((5, 2, 1, 200, 15, 0, True),
        "adeeb4094e4586ed7c4781273fe11699bb88ccfc1d7ee8a04bf8bd5d9258725c",
        "c047522065f0c0d145a6f59b9dee53d28c4017b73004ba3ef2fce034964a81a4"),
    "4x4_c2_ties": ((4, 4, 2, 300, 19, 0, True),
        "6e17d4978ad220377a038eddd142fb3bc9937212eb3176408b9174cc50c00964",
        "fb7f8d6a0a24be435db9a30a878b1a5a26fd95cf2701bf81854b6f858bd3941b"),
    "6x6_c8_ties_faults": ((6, 6, 8, 400, 20, 8, True),
        "b24d3ce505f653123ffddb0896c799ea5aa959b829879a3b5030f2303fab8aaf",
        "c715d65d4c135fb6205315b77daddfd817ded28e6e666bde753a6dc583bb7226"),
}


@pytest.mark.parametrize("fast_path", [True, False], ids=["express", "scalar"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_mesh_digest_is_pinned(name, fast_path):
    params, express, scalar = CASES[name]
    assert digest(run_case(*params, fast_path)) == (
        express if fast_path else scalar), name


@pytest.mark.parametrize("name", sorted(CASES))
def test_express_against_scalar(name):
    params, _express, _scalar = CASES[name]
    fast, slow = run_case(*params, True), run_case(*params, False)
    # A busy mesh may launch no flight at all: express waits for a
    # message alone on it.
    assert fast.pop("events") <= slow.pop("events")
    assert fast == slow


def test_idle_mesh_flights_launch_and_complete():
    """One message at a time, corner to corner across a 4x4 mesh (the
    shape of the ledger's express hop probe): every message launches a
    flight, and every flight delivers without materializing."""

    def run(fast_path):
        sim = Simulator()
        mesh = Mesh(sim, MeshConfig(fast_path=fast_path))
        port = mesh.bind(Sink(sim), 0, 0)
        far = Sink(sim)
        dest = mesh.bind(far, 3, 3).address
        airborne = []
        for index in range(20):
            at = index * 1_000_000
            sim.schedule_at(at, port.send, Packet(bytes(200)), dest)
            sim.schedule_at(at + 1_000,
                            lambda: airborne.append(mesh.express_in_flight))
        sim.run()
        return list(far.got.values()), sim.events_fired, airborne

    (fast, fast_events, fast_air), (slow, slow_events, slow_air) = \
        run(True), run(False)
    assert fast == slow
    assert all(hops == 7 for _when, hops in fast)
    assert fast_air == [1] * 20 and slow_air == [0] * 20
    # Per message: the send, the probe and one flight event, against
    # seven hop completions per-hop.
    assert (fast_events, slow_events) == (20 * 3, 20 * 9)


def test_cases_exercise_what_they_claim():
    """The digests pin something only if the traffic really contends."""
    plain = run_case(*CASES["4x4_c8"][0], False)
    assert plain["refusals"] > 0                       # parked messages
    assert plain["in_flight"] == 0
    assert all(entry is not None for entry in plain["messages"])
    faulty = run_case(*CASES["4x4_c8_faults"][0], False)
    totals = [sum(ch[i] for ch in faulty["channels"].values())
              for i in (4, 5)]
    assert all(totals)                                 # corrupted, dropped


if __name__ == "__main__":
    for case, (params, *_recorded) in CASES.items():
        shas = [digest(run_case(*params, mode)) for mode in (True, False)]
        print(f'    "{case}": ({params},\n'
              f'        "{shas[0]}",\n        "{shas[1]}"),')
