"""Tests for the logical scheduler: PIFO queues and the WFQ slack action."""

import pytest

from repro.rmt.action import (
    WFQ_CELLS, WFQ_REGISTER, ActionContext, Register, wfq_increment, wfq_slack,
)
from repro.rmt.phv import Phv
from repro.sched import PifoFullError, PifoQueue


def wfq_context(now_ps=0):
    """An action context holding the ``wfq_slack`` register."""
    return ActionContext(
        registers={WFQ_REGISTER: Register(WFQ_REGISTER, WFQ_CELLS)},
        now_ps=now_ps)


def wfq_deadline(ctx, tenant, weight, cost_ps):
    """Run ``wfq_slack`` once for ``tenant``; return the stamped deadline."""
    phv = Phv()
    phv.set("kv.tenant", tenant)
    wfq_slack(phv, ctx, increment_ps=wfq_increment(cost_ps, weight))
    return phv.get("meta.slack_deadline_ps")


class TestPifoQueue:
    def test_pops_in_rank_order(self):
        q = PifoQueue()
        q.push("late", 300)
        q.push("early", 100)
        q.push("mid", 200)
        assert [q.pop()[0] for _ in range(3)] == ["early", "mid", "late"]

    def test_fifo_within_equal_rank(self):
        q = PifoQueue()
        for label in "abc":
            q.push(label, 5)
        assert [q.pop()[0] for _ in range(3)] == ["a", "b", "c"]

    def test_pop_returns_rank(self):
        q = PifoQueue()
        q.push("x", 42)
        assert q.pop() == ("x", 42)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            PifoQueue().pop()

    def test_capacity_overflow_lossless_raises(self):
        q = PifoQueue(capacity=1)
        q.push("a", 1)
        with pytest.raises(PifoFullError):
            q.push("b", 2)

    def test_overflow_drops_incoming_droppable(self):
        q = PifoQueue(capacity=1)
        q.push("resident", 1)
        assert q.push("junk", 2, droppable=True) is False
        assert q.dropped == 1
        assert q.pop()[0] == "resident"

    def test_overflow_evicts_worse_droppable_resident(self):
        q = PifoQueue(capacity=2)
        q.push("important", 1)
        q.push("junk", 100, droppable=True)
        # Non-droppable newcomer with a better rank than the junk: evict it.
        assert q.push("urgent", 2) is True
        assert q.dropped == 1
        items = [q.pop()[0] for _ in range(2)]
        assert items == ["important", "urgent"]

    def test_overflow_keeps_better_droppable_resident(self):
        q = PifoQueue(capacity=1)
        q.push("good-junk", 1, droppable=True)
        # Incoming droppable with worse rank loses instead.
        assert q.push("bad-junk", 50, droppable=True) is False
        assert q.pop()[0] == "good-junk"

    def test_max_occupancy_tracked(self):
        q = PifoQueue()
        for i in range(5):
            q.push(i, i)
        q.pop()
        q.push(9, 9)
        assert q.max_occupancy == 5

    def test_drain_returns_rank_order(self):
        q = PifoQueue()
        q.push("b", 2)
        q.push("a", 1)
        assert q.drain() == ["a", "b"]
        assert len(q) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PifoQueue(capacity=0)


class TestSlackPolicies:
    """The start-time fair queueing slack action, driven directly."""

    def test_weighted_share_favours_heavy_weight(self):
        ctx = wfq_context()
        # Same arrival, same cost: heavier weight gets earlier deadline
        # once both have consumed service.
        d1 = [wfq_deadline(ctx, 1, 10.0, 1000) for _ in range(5)]
        d2 = [wfq_deadline(ctx, 2, 1.0, 1000) for _ in range(5)]
        assert d1[-1] < d2[-1]
        assert ctx.registers[WFQ_REGISTER].read(1) == d1[-1]

    def test_weighted_share_virtual_time_monotonic(self):
        ctx = wfq_context()
        deadlines = [wfq_deadline(ctx, 1, 1.0, 100) for _ in range(4)]
        assert deadlines == sorted(deadlines)
        assert len(set(deadlines)) == 4

    def test_weighted_share_validates_weights(self):
        with pytest.raises(ValueError):
            wfq_increment(1000, 0)
