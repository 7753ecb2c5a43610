"""Call budget of one RMT pass: Python calls, counted exactly.

One RX UDP frame goes through ``RmtPipeline.process`` on the default
PANIC program (the one every ``PanicNic`` runs), and cProfile counts
every call into ``repro.rmt`` and every call its code makes out of it
-- parser, stage walk, matcher, actions, memo -- builtins included
(``tests/pins.py``).  ``ncalls`` are deterministic, so the gate needs
no wall clock.  Three cases:

* *memo off*: the plain stage walk, what every pass would cost with no
  flow cache;
* *memo hit*: the flow's recorded trajectory is replayed;
* *memo record*: the flow's first pass walks the stages and records.

Each case is held to the exact count the code reaches today (pinned in
``tests/pins.json``), so a call put on the pass -- or taken off it --
moves a pin, re-recorded with the ledger numbers that justify it.
EXPERIMENTS.md "Known deviations" lists every past move.
"""

from repro.core import PanicConfig, PanicNic
from repro.packet import build_udp_frame
from repro.sim import Simulator
from tests import pins

PASSES = 20

FRAME = build_udp_frame(
    src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
    src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1000, dst_port=9,
    payload=bytes(64))

METADATA = {"direction": b"rx", "kind": b"ethernet", "ingress_port": 0}


def calls_per_pass(memo: bool, record: bool = False) -> int:
    """Calls into and out of ``repro/rmt/`` in one ``process`` of
    ``FRAME`` (the call itself too)."""
    nic = PanicNic(Simulator(), PanicConfig(ports=1, rmt_memo=memo))
    pipeline = nic.rmt.pipeline
    pipeline.process(FRAME, metadata=METADATA)  # warm the memos

    def passes():
        for _ in range(PASSES):
            if record:
                pipeline.memo._cache.clear()
            pipeline.process(FRAME, metadata=METADATA)

    total = pins.calls("repro/rmt/", passes)
    if memo:
        assert (pipeline.memo.misses, pipeline.memo.hits) == (
            (1 + PASSES, 0) if record else (1, PASSES))
    return pins.per(total, PASSES)


def test_memo_off_pass_call_budget():
    pins.budget("calls.rmt.memo_off", calls_per_pass(memo=False))


def test_memo_hit_pass_call_budget():
    pins.budget("calls.rmt.memo_hit", calls_per_pass(memo=True))


def test_memo_record_pass_call_budget():
    pins.budget("calls.rmt.memo_record",
                calls_per_pass(memo=True, record=True))
