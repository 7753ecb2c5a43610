"""A PIFO (push-in, first-out) priority queue with lossless/lossy policy.

The PIFO abstraction (Sivaraman et al., "Programmable packet scheduling at
line rate") admits arbitrary insertion ranks but always dequeues the
minimum rank.  PANIC ranks messages by their slack deadline.

Overflow policy implements the paper's section 4.3 / section 6 discussion:
the on-chip network is lossless, so drops happen *here*, and only to
messages marked droppable (e.g. lossy network traffic); messages that must
not be dropped (DMA descriptor reads) instead exert backpressure via
:class:`PifoFullError`, which callers translate into flow control.

Ties broken by arrival order (FIFO within equal rank), making the queue
work-conserving and starvation-free among equal ranks.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Generic, List, Optional, Tuple, TypeVar


T = TypeVar("T")


class PifoFullError(RuntimeError):
    """Raised when a non-droppable push hits a full queue (backpressure)."""


class PifoQueue(Generic[T]):
    """A rank-ordered queue with bounded capacity.

    Parameters
    ----------
    name:
        For statistics and error messages.
    capacity:
        Maximum queued items; ``None`` means unbounded (useful in tests
        and analytical setups).
    """

    def __init__(self, name: str = "pifo", capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._heap: List[Tuple[int, int, bool, T]] = []
        self._seq = itertools.count()
        self.pushed = 0
        self.dropped = 0
        self.rank_corruptions = 0
        self.max_occupancy = 0
        #: Observer called with the evicted item when drop-worst fires
        #: (set by repro.telemetry; must not mutate the queue).
        self.on_evict: Optional[Callable[[T], None]] = None

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_empty(self) -> bool:
        return not self._heap

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._heap) >= self.capacity

    def push(self, item: T, rank: int, droppable: bool = False) -> bool:
        """Insert ``item`` at ``rank`` (lower dequeues first).

        Returns True if the item was enqueued.  On overflow:

        * if some queued *droppable* item has a worse (higher) rank, it is
          evicted to make room -- drop-worst keeps the queue's service
          guarantees intact for better-ranked traffic;
        * else if ``item`` is droppable, it is dropped (returns False);
        * else raises :class:`PifoFullError` -- lossless messages must not
          vanish, the producer has to stall.
        """
        heap = self._heap
        if self.capacity is not None and len(heap) >= self.capacity:
            if not self._evict_worse_droppable(rank):
                if droppable:
                    self.dropped += 1
                    return False
                raise PifoFullError(
                    f"PIFO {self.name!r} full ({self.capacity}) and no "
                    "droppable item to evict"
                )
        heapq.heappush(heap, (rank, next(self._seq), droppable, item))
        self.pushed += 1
        if len(heap) > self.max_occupancy:
            self.max_occupancy = len(heap)
        return True

    def _evict_worse_droppable(self, incoming_rank: int) -> bool:
        """Evict the worst-ranked droppable item if it is worse than
        ``incoming_rank``.  Returns True when a slot was freed."""
        worst_index = -1
        worst_key: Optional[Tuple[int, int]] = None
        for i, (rank, seq, droppable, _item) in enumerate(self._heap):
            if not droppable:
                continue
            key = (rank, seq)
            if worst_key is None or key > worst_key:
                worst_key = key
                worst_index = i
        if worst_index < 0 or worst_key is None:
            return False
        if worst_key[0] < incoming_rank:
            # The incoming item is worse than every droppable resident.
            return False
        evicted = self._heap[worst_index][3]
        self._heap[worst_index] = self._heap[-1]
        self._heap.pop()
        heapq.heapify(self._heap)
        self.dropped += 1
        if self.on_evict is not None:
            self.on_evict(evicted)
        return True

    def corrupt_ranks(self, rng) -> int:
        """Fault injection: scramble the rank store (simulated SRAM upset).

        Every queued item's rank is replaced with a draw from ``rng`` (a
        :class:`~repro.sim.rng.SeededRng`), so subsequent pops serve in a
        corrupted order.  Items are never lost -- PIFO state corruption
        violates scheduling guarantees, not losslessness.  Returns the
        number of entries corrupted.
        """
        if not self._heap:
            return 0
        corrupted = len(self._heap)
        self._heap = [
            (rng.randint(0, 1 << 62), seq, droppable, item)
            for (_rank, seq, droppable, item) in self._heap
        ]
        heapq.heapify(self._heap)
        self.rank_corruptions += corrupted
        return corrupted

    def pop(self) -> Tuple[T, int]:
        """Remove and return ``(item, rank)`` with the minimum rank."""
        if not self._heap:
            raise IndexError(f"pop from empty PIFO {self.name!r}")
        rank, _seq, _droppable, item = heapq.heappop(self._heap)
        return item, rank

    def drain(self) -> List[T]:
        """Remove everything in rank order (used at teardown)."""
        items = []
        while self._heap:
            items.append(self.pop()[0])
        return items

    def __repr__(self) -> str:
        cap = self.capacity if self.capacity is not None else "inf"
        return f"PifoQueue({self.name!r}, {len(self._heap)}/{cap})"
