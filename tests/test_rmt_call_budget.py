"""Call budget of one RMT pass: Python calls, counted exactly.

One RX UDP frame goes through ``RmtPipeline.process`` on the default
PANIC program (the one every ``PanicNic`` runs), and cProfile counts
every call the pass makes -- parser, stage walk, matcher, actions, memo
-- builtins included.  ``ncalls`` are deterministic, so the gate needs no
wall clock.  Three cases:

* *memo off*: the plain stage walk, what every pass would cost with no
  flow cache;
* *memo hit*: the flow's recorded trajectory is replayed;
* *memo record*: the flow's first pass walks the stages and records.

Each case is held to the exact count the code reaches today, so a call
put on the pass -- or taken off it -- shows up here as a one-line diff,
made with the ledger numbers that justify it.  Each move has a cause
line below.
"""

import cProfile
import gc

from repro.core import PanicConfig, PanicNic
from repro.packet import build_udp_frame
from repro.sim import Simulator

PASSES = 20

FRAME = build_udp_frame(
    src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
    src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1000, dst_port=9,
    payload=bytes(64))

METADATA = {"direction": b"rx", "kind": b"ethernet", "ingress_port": 0}


def calls_per_pass(memo: bool, record: bool = False) -> int:
    """Calls inside one ``process`` of ``FRAME`` (the call itself too)."""
    nic = PanicNic(Simulator(), PanicConfig(ports=1, rmt_memo=memo))
    pipeline = nic.rmt.pipeline
    pipeline.process(FRAME, metadata=METADATA)  # warm the memos
    profile = cProfile.Profile()
    gc.disable()  # no collector callbacks inside the counted passes
    try:
        for _ in range(PASSES):
            if record:
                pipeline.memo._cache.clear()
            profile.runcall(pipeline.process, FRAME, metadata=METADATA)
    finally:
        gc.enable()
    if memo:
        assert (pipeline.memo.misses, pipeline.memo.hits) == (
            (1 + PASSES, 0) if record else (1, PASSES))
    total = sum(entry.callcount for entry in profile.getstats()
                if not (isinstance(entry.code, str)
                        and "_lsprof.Profiler" in entry.code))
    assert total % PASSES == 0, "per-pass call count is not constant"
    return total // PASSES


#: Calls per pass, first pinned when the three stage loops became one
#: walk over one matcher with actions resolved at install (EXPERIMENTS.md
#: E37).  Before it, the same passes cost 138 (memo off), 51 (hit) and
#: 161 (record): every stage's match ran a generator and a ``Phv.get``
#: per key field, the plain loop looked its action up by name and read
#: ``meta.drop`` and ``requires`` through ``Phv`` methods, and every
#: default ``no_op`` was called.  All three were 4 higher (48 / 38 / 73)
#: while ``set_chain_if_empty`` joined the chain's wire bytes from its
#: address list on every pass; the bytes are now made at install
#: (``RmtProgram.encode_chain``) and the action only stores them.  All
#: three rose by 2 (44 / 34 / 69 before) when the parser's fused copy of
#: the UDP spine was deleted: the walk makes three extractor calls and
#: three ``unpack_from`` where the copy made one call, one ``unpack_from``
#: and two ``len``; in 10 in-process pairs ``kvs_isolation`` read a
#: median wall ratio of 1.030 and ``chain_sparse`` 1.014 (E40).
MEMO_OFF = 46
MEMO_HIT = 36
MEMO_RECORD = 71


def test_memo_off_pass_call_budget():
    assert calls_per_pass(memo=False) == MEMO_OFF


def test_memo_hit_pass_call_budget():
    assert calls_per_pass(memo=True) == MEMO_HIT


def test_memo_record_pass_call_budget():
    assert calls_per_pass(memo=True, record=True) == MEMO_RECORD
