"""Paired wall ratios of two source trees, in one interpreter.

Usage (from anywhere)::

    python3 benchmarks/pairs.py A_TREE B_TREE --workload W [--pairs N]
        [--seed S] [--scale X]

``A_TREE`` and ``B_TREE`` are checkouts of this repository.  Each tree's
``src/repro`` and ``benchmarks/ledger/scenarios.py`` are imported into
this one process, and each tree's ``sys.modules`` entries are stashed
and swapped back in before every call into it, so a lazy import inside
a tree resolves to the same tree.  After one small warm-up iteration per
tree, the script runs ``N`` pairs of full ledger iterations
(``scenarios.BUILDERS[W](S, X)``; set-up untimed, ``Built.run()`` timed)
in alternating order -- A then B, B then A, ... -- and prints:

* every pair's walls and its B/A ratio;
* the median B/A, its quartiles, and in how many pairs B was faster;
* both trees' ``sim_digest``; the exit status is non-zero unless they
  are equal.

Separate interpreters on a shared host differ by more than most edits
move a wall; pairs taken inside one process see the same host state, so
this is how a wall effect is sized before the ledger is asked to show
it.  An A/A run of the method reads its noise floor.  The script writes
nothing: bytecode caching is off, so neither tree gains a
``__pycache__``.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from statistics import median, quantiles
from typing import Dict, List, Optional, Tuple

sys.dont_write_bytecode = True

#: Scale of the one warm-up iteration each tree runs before the pairs.
WARM_SCALE = 0.05


def _owned(name: str) -> bool:
    return name == "repro" or name.startswith("repro.") \
        or name == "scenarios"


class Tree:
    """One checkout's simulator and ledger scenarios, held apart from the
    other tree's in a stash of ``sys.modules`` entries."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        for part in ("src/repro", "benchmarks/ledger/scenarios.py"):
            if not os.path.exists(os.path.join(self.root, part)):
                sys.exit(f"pairs: {self.root} has no {part}")
        paths = [os.path.join(self.root, "src"),
                 os.path.join(self.root, "benchmarks", "ledger")]
        self._evict()
        sys.path[:0] = paths
        try:
            import scenarios
        finally:
            del sys.path[:len(paths)]
        self.scenarios = scenarios
        self.modules: Dict[str, object] = {
            name: module for name, module in sys.modules.items()
            if _owned(name)}
        self._evict()

    @staticmethod
    def _evict() -> None:
        for name in [name for name in sys.modules if _owned(name)]:
            del sys.modules[name]

    def activate(self) -> None:
        """Make this tree's modules the ones ``import`` finds."""
        self._evict()
        sys.modules.update(self.modules)

    def iteration(self, workload: str, seed: int,
                  scale: float) -> Tuple[float, str]:
        """One ledger iteration: (timed run wall in s, sim_digest)."""
        self.activate()
        gc.collect()
        built = self.scenarios.BUILDERS[workload](seed, scale)
        start = time.perf_counter()
        built.run()
        wall = time.perf_counter() - start
        return wall, built.collect().digest()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_tree")
    parser.add_argument("b_tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    trees = {"A": Tree(args.a_tree), "B": Tree(args.b_tree)}
    if args.workload not in trees["A"].scenarios.BUILDERS:
        parser.error(f"unknown workload {args.workload!r}")
    for tree in trees.values():
        tree.iteration(args.workload, args.seed, args.scale * WARM_SCALE)

    digests = {label: set() for label in trees}
    ratios: List[float] = []
    print(f"{args.workload}, seed {args.seed}, scale {args.scale}: "
          f"A = {trees['A'].root}, B = {trees['B'].root}")
    for index in range(args.pairs):
        order = "AB" if index % 2 == 0 else "BA"
        walls = {}
        for label in order:
            walls[label], digest = trees[label].iteration(
                args.workload, args.seed, args.scale)
            digests[label].add(digest)
        ratios.append(walls["B"] / walls["A"])
        print(f"pair {index + 1:>2} ({order}): A {walls['A']:.3f} s  "
              f"B {walls['B']:.3f} s  B/A {ratios[-1]:.3f}", flush=True)

    q1, _, q3 = (quantiles(ratios, n=4) if len(ratios) > 1
                 else (ratios[0],) * 3)
    wins = sum(1 for ratio in ratios if ratio < 1.0)
    print(f"B/A median {median(ratios):.3f}, quartiles {q1:.3f} - {q3:.3f}, "
          f"B faster in {wins} of {len(ratios)} pairs")
    for label in trees:
        print(f"sim_digest {label}: {' '.join(sorted(digests[label]))}")
    same = len(digests["A"]) == 1 and digests["A"] == digests["B"]
    print("digests equal" if same else "DIGESTS DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
