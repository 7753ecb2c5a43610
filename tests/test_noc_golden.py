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
one-line diff here.

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

    def receive(self, message):
        self.got[message.message_id] = (self.sim.now, message.hops)


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

    def try_receive(self, message):
        if len(self.queue) >= self.SLOTS:
            self.refusals += 1
            return False
        self.queue.append(message)
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
        sent.append(ports[src].send(Packet(bytes([src]) * size), dst))

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
        "messages": [delivered.get(m.message_id) for m in sent],
        "channels": {
            ch.name: (ch.sent.value, ch.bits_sent.value, ch._busy_accum_ps,
                      ch.credits, ch.corrupted.value, ch.dropped_flits.value,
                      ch.leaked_credits.value)
            for ch in mesh.channels},
        "routers": {
            r.name: (r.forwarded.value, r.delivered.value,
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
#:          sha256 with fast_path on, sha256 with fast_path off,
#:          whether the two runs agree on everything but the event count).
#: They need not: a flight that materializes under a same-picosecond
#: arrival resolves the tie conservatively (see ExpressFlight.materialize),
#: and seeded random traffic does hit that.  Which cases do is pinned too.
CASES = {
    "2x2_c1": ((2, 2, 1, 120, 11, 0, False),
        "9a780407b3c667b44c6ffee9779ca483cfd5e8970f6b0bc86ef106473adcc8a7",
        "d28e77342fc6b87912f22bbaffacada109c5b43b80f0bbfef16e4f30b6e5a94a",
        True),
    "3x3_c2": ((3, 3, 2, 200, 12, 0, False),
        "71912f6b9f533e2d9fface437e366d98d5c2f7b23ed129f6732f27b86342ae9e",
        "7a7c2bd4a41ddf05c63cc71ff86e2956785c561e3324dd295d9807c8e87351e0",
        True),
    "4x4_c8": ((4, 4, 8, 300, 13, 0, False),
        "082ee0c4f2771b43c7a8a806148d689d0141a07378772331b186b3eb3f912555",
        "a220949cf35cc442781c4c99a13dc92de15a128a6dedbd103fe4f6817935e727",
        True),
    "6x6_c8": ((6, 6, 8, 400, 14, 0, False),
        "e4a91e35983ef6caea29461a5262ca855b3735091fda560dadd44698a45799b1",
        "aace03fa8d236114d5708b687c52694fe2ed3cd409023fad23c65b79c949c63b",
        True),
    "3x3_c2_faults": ((3, 3, 2, 200, 16, 6, False),
        "304e78f08b99120b3f42962e6b124c47fde28b527c647cccbf023600d9803425",
        "e158f9d39294eb476166b9c3ce3ff79bf5f719b7fa2e2dbad45b3aa33ecf250a",
        True),
    "4x4_c8_faults": ((4, 4, 8, 300, 17, 8, False),
        "2f48e14ea6af71346c60f0def803348a43f82a1bbe0d4a999d7e70683c8720d1",
        "b7b4dfe7864c5039ce932b5a8475efc10978f4421f372710bb36a7b6c982f768",
        True),
    "6x6_c1_faults": ((6, 6, 1, 300, 18, 8, False),
        "849f0786374cdaffea3feb1790977a5c0020bef387b7f0863cecac214d000c3e",
        "e81e449c0c6e679a10307e5e9786fb04d67f2eeb463e1a97ccb8aac97eebd16f",
        True),
    "5x2_c1_ties": ((5, 2, 1, 200, 15, 0, True),
        "627e25a91feaed2abd5849db03a9ed5dd79be78b37c2789025b055a06d65f978",
        "c047522065f0c0d145a6f59b9dee53d28c4017b73004ba3ef2fce034964a81a4",
        False),
    "4x4_c2_ties": ((4, 4, 2, 300, 19, 0, True),
        "c7d26e989e02605c0d5e22e8cbeefe70e4b58d42a95ab268c5a0b42a5ef006cc",
        "fb7f8d6a0a24be435db9a30a878b1a5a26fd95cf2701bf81854b6f858bd3941b",
        True),
    "6x6_c8_ties_faults": ((6, 6, 8, 400, 20, 8, True),
        "bbd6af392b607704ab2fbf6ac13637e1b8c72d195d187d46a355cb0d80b2a259",
        "c715d65d4c135fb6205315b77daddfd817ded28e6e666bde753a6dc583bb7226",
        True),
}


@pytest.mark.parametrize("fast_path", [True, False], ids=["express", "scalar"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_mesh_digest_is_pinned(name, fast_path):
    params, express, scalar, _agree = CASES[name]
    assert digest(run_case(*params, fast_path)) == (
        express if fast_path else scalar), name


@pytest.mark.parametrize("name", sorted(CASES))
def test_express_against_scalar(name):
    params, _express, _scalar, agree = CASES[name]
    fast, slow = run_case(*params, True), run_case(*params, False)
    assert fast.pop("events") < slow.pop("events")
    assert (fast == slow) == agree


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
        runs = [run_case(*params, mode) for mode in (True, False)]
        shas = [digest(run) for run in runs]
        for run in runs:
            del run["events"]
        print(f'    "{case}": ({params},\n'
              f'        "{shas[0]}",\n        "{shas[1]}",\n'
              f'        {runs[0] == runs[1]}),')
