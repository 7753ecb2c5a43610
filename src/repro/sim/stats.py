"""Statistics primitives: a counter, histograms, latency trackers, series.

These are plain accumulators -- they do not interact with the event heap --
so they can also be used outside a simulation (e.g. by the analytical
models and the benchmark reporting code).

NIC-model state counts in plain ``int`` attributes (``engine.processed``,
``channel.sent``): a rack builds tens of thousands of them, and an object
per count would be most of its footprint.  :class:`Counter` is left only
for the workload-side accumulators of the KVS clients and traffic
sources (the benchmark ledger reads a client's ``requests.value``).
"""

from __future__ import annotations

from array import array
from typing import List


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "counter"):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be non-negative: {amount}")
        self.value += amount

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Streaming histogram with exact quantiles.

    Samples are kept (as a list) and sorted lazily on query.  For the scales
    this library runs at (at most a few million samples per experiment) this
    is simpler and more accurate than approximate sketches.

    Empty-histogram semantics: ``mean`` returns ``nan``, so reporting
    code survives zero-delivery runs; ``percentile`` raises -- there is
    no meaningful quantile of nothing, and a silent default would
    corrupt downstream math.
    """

    __slots__ = ("name", "_samples", "_sorted", "_total")

    def __init__(self, name: str = "histogram"):
        self.name = name
        self._samples: List[float] = []
        self._sorted = True
        self._total = 0

    def record(self, value: float) -> None:
        self._samples.append(value)
        self._total += value
        self._sorted = False

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            return float("nan")
        return self._total / len(self._samples)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    def percentile(self, pct: float) -> float:
        """Exact percentile via linear interpolation (pct in [0, 100])."""
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        if not self._samples:
            raise ValueError(f"histogram {self.name!r} is empty")
        self._ensure_sorted()
        if len(self._samples) == 1:
            return self._samples[0]
        rank = (pct / 100) * (len(self._samples) - 1)
        low = int(rank)
        frac = rank - low
        if low + 1 >= len(self._samples):
            return self._samples[-1]
        base = self._samples[low]
        # a + frac*(b-a) is exact when a == b (a*(1-f) + b*f is not).
        return base + frac * (self._samples[low + 1] - base)

    def __repr__(self) -> str:
        if not self._samples:
            return f"Histogram({self.name}, empty)"
        return (
            f"Histogram({self.name}, n={self.count}, mean={self.mean:.3g}, "
            f"p99={self.percentile(99):.3g})"
        )


class LatencyTracker(Histogram):
    """Histogram specialised for picosecond latencies.

    ``observe(start_ps, end_ps)`` records ``end - start`` and validates the
    interval; summary helpers convert to nanoseconds for readability.
    Samples are integer picoseconds held in an ``int64`` array: 8 bytes
    each instead of a list slot plus an int object (36 bytes), and every
    quantile is the same number the list gave.
    """

    __slots__ = ()

    def __init__(self, name: str = "histogram"):
        super().__init__(name)
        self._samples = array("q")

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples = array("q", sorted(self._samples))
            self._sorted = True

    def observe(self, start_ps: int, end_ps: int) -> None:
        if end_ps < start_ps:
            raise ValueError(
                f"latency interval ends before it starts ({start_ps} > {end_ps})"
            )
        self.record(end_ps - start_ps)

    def percentile_ns(self, pct: float) -> float:
        return self.percentile(pct) / 1_000


class TimeSeries:
    """A bounded (time_ps, value) gauge series (the INT collector's
    per-node depth and latency tracks).

    Appends are O(1); once ``max_samples`` points are held, further
    samples are counted in ``dropped`` instead of stored -- a series must
    never grow without bound inside long simulations.  The early samples
    are kept (rather than a sliding window) so the series start always
    aligns across components.
    """

    __slots__ = ("name", "unit", "max_samples", "dropped", "_t", "_v")

    def __init__(self, name: str = "series", unit: str = "",
                 max_samples: int = 4096):
        if max_samples <= 0:
            raise ValueError(f"max_samples must be > 0, got {max_samples}")
        self.name = name
        self.unit = unit
        self.max_samples = max_samples
        self.dropped = 0
        self._t: List[int] = []
        self._v: List[float] = []

    def record(self, t_ps: int, value: float) -> None:
        if len(self._t) >= self.max_samples:
            self.dropped += 1
            return
        self._t.append(t_ps)
        self._v.append(value)

    def items(self) -> List[tuple]:
        """The recorded ``(time_ps, value)`` points, in record order."""
        return list(zip(self._t, self._v))

    def __repr__(self) -> str:
        return (f"TimeSeries({self.name}, n={len(self._t)}"
                + (f", dropped={self.dropped}" if self.dropped else "")
                + ")")
