"""The ledger's yardstick for host speed.

This host is a few cores of a shared machine, and how fast it runs
pointer-chasing Python moves by 20-30 % over minutes and by 5-10 % from
one second to the next (the neighbours' load; it is the cores and the
memory system that slow down -- process CPU time tracks wall).  A small
arithmetic loop does not see it: it lives in L1 and reads steady to 2 %
while a simulation beside it drifts by 10 %.  So the yardstick is a
miniature of what the simulator does: a heap-driven event loop whose
events hop between ~60 MB of small objects, read a slice of a ``bytes``,
look up a ``dict`` and push the next event.

``run_timed`` asks for one pass (about a quarter of a second) before and
after every timed iteration and divides the iteration's wall by the mean
of the two; ten-seed spreads of that ratio are a half to a quarter of the
raw wall's (README, "Host noise").

The loop runs in a process of its own (:class:`Yardstick` starts it,
``python3 reference.py`` is it), idle whenever the workload runs.  Inside
the measuring process its speed followed the workload's heap: built after
a 32-NIC rack had come and gone, the same loop took 0.38-0.75 s a pass
instead of 0.25, so a change to the simulator's memory use would have
moved the yardstick.

The loop must stay **frozen**: it imports nothing from the simulator, and
a change to it re-bases every host-time number in the ledger.
"""

from __future__ import annotations

import gc
import heapq
import os
import subprocess
import sys
import time

#: Seconds one pass takes on the host that built the ledger when nothing
#: else runs: host-time metrics are reported as (measured / pass wall) x
#: this, so they read in seconds of that host and stay close to raw wall.
NOMINAL_PASS_S = 0.23

NODES = 150_000
SEEDS = 20_000
HOPS = 5


class _Node:
    __slots__ = ("count", "peer", "buf", "table")


def _lcg(state: int) -> int:
    return (state * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)


class Reference:
    def __init__(self) -> None:
        state = 7
        nodes = [_Node() for _ in range(NODES)]
        for node in nodes:
            state = _lcg(state)
            node.count = 0
            node.peer = nodes[(state >> 20) % NODES]
            node.buf = bytes(64)
            node.table = {(state >> shift) & 7: shift for shift in (3, 9, 15)}
        self._nodes = nodes
        self._starts = []
        for _ in range(SEEDS):
            state = _lcg(state)
            self._starts.append(nodes[(state >> 20) % NODES])

    def run(self) -> float:
        """One pass; returns its wall seconds."""
        heap: list = []
        push, pop = heapq.heappush, heapq.heappop
        seq = 0

        def hop(now: int, node: _Node, left: int) -> None:
            nonlocal seq
            node.count += 1
            step = int.from_bytes(node.buf[8:12], "big") \
                + node.table.get(left, 1)
            if left:
                seq += 1
                push(heap, (now + step, seq, node.peer, left - 1))

        start = time.perf_counter()
        for now, node in enumerate(self._starts):
            seq += 1
            push(heap, (now, seq, node, HOPS))
        while heap:
            now, _seq, node, left = pop(heap)
            hop(now, node, left)
        return time.perf_counter() - start


class Yardstick:
    """The loop in a child process: ``run()`` has it make one pass and
    returns the pass's wall seconds.  A context manager, so the child is
    stopped and waited for on every way out."""

    def __init__(self) -> None:
        self.child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self) -> float:
        self.child.stdin.write("pass\n")
        self.child.stdin.flush()
        return float(self.child.stdout.readline())

    def __enter__(self) -> "Yardstick":
        return self

    def __exit__(self, *_exc) -> None:
        self.child.stdin.close()  # the child's loop ends on EOF
        try:
            self.child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.child.kill()
            self.child.wait()
        self.child.stdout.close()


def _serve() -> None:
    reference = Reference()
    gc.disable()  # a pass makes no cycles; a collection would be noise
    for _request in sys.stdin:
        print(repr(reference.run()), flush=True)


if __name__ == "__main__":
    _serve()
