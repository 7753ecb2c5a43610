"""Deterministic random number generation for reproducible experiments.

Every stochastic component takes a :class:`SeededRng` (or a seed) rather
than touching the global ``random`` module, so that two runs with the same
configuration produce bit-identical traces.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple, TypeVar

T = TypeVar("T")


class SeededRng:
    """A thin wrapper over :class:`random.Random` with domain helpers."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        #: Zipf CDFs by (support size, alpha), each built on its first
        #: draw and dropped with this stream.
        self._zipf_cdfs: Dict[Tuple[int, float], List[float]] = {}

    def fork(self, salt: str) -> "SeededRng":
        """Derive an independent stream (e.g. one per traffic source).

        The salt is mixed with a stable digest, never Python's
        ``hash()``: string hashing is randomized per interpreter launch
        (PYTHONHASHSEED), which would give every process its own stream
        -- run-to-run timestamps would drift, and sharded workers on
        spawn-context platforms would diverge from the monolithic run.
        """
        return SeededRng(
            (self.seed << 32) ^ zlib.crc32(salt.encode("utf-8"))
        )

    # -- primitive draws -------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._rng.randint(low, high)

    def random(self) -> float:
        return self._rng.random()

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def bytes(self, n: int) -> bytes:
        return self._rng.randbytes(n)

    # -- distributions used by workloads ---------------------------------

    def exponential(self, mean: float) -> float:
        """Exponential inter-arrival draw with the given mean (> 0)."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return self._rng.expovariate(1.0 / mean)

    def zipf_index(self, n: int, alpha: float = 0.99) -> int:
        """Draw an index in [0, n) with Zipf(alpha) popularity.

        Uses inverse-CDF over the precomputed harmonic weights; the stream
        keeps the CDF per (n, alpha) because KVS workloads draw millions of
        keys.
        """
        if n <= 0:
            raise ValueError(f"zipf support size must be positive, got {n}")
        # The first index whose CDF reaches u; the last (1.0) caps it.
        return bisect_left(self._zipf_cdf(n, alpha), self._rng.random(),
                           0, n - 1)

    def _zipf_cdf(self, n: int, alpha: float) -> List[float]:
        key = (n, alpha)
        cached = self._zipf_cdfs.get(key)
        if cached is not None:
            return cached
        weights = [1.0 / (i + 1) ** alpha for i in range(n)]
        total = sum(weights)
        cdf = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0
        self._zipf_cdfs[key] = cdf
        return cdf

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed})"
