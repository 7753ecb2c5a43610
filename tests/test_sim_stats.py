"""Tests for the counter, histograms, latency trackers and time series."""

import math

import pytest

from repro.sim import Counter, Histogram, LatencyTracker, TimeSeries
from repro.sim.rng import SeededRng


class TestCounter:
    def test_add_and_value(self):
        c = Counter("x")
        c.add()
        c.add(4)
        assert c.value == 5
        assert int(c) == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter().add(-1)


class TestHistogram:
    def test_mean_min_max(self):
        h = Histogram()
        for value in [1, 2, 3, 4]:
            h.record(value)
        assert h.mean == 2.5
        assert h.percentile(0) == 1
        assert h.percentile(100) == 4
        assert h.count == 4

    def test_percentiles_interpolate(self):
        h = Histogram()
        for value in range(101):  # 0..100
            h.record(value)
        assert h.percentile(0) == 0
        assert h.percentile(50) == 50
        assert h.percentile(99) == 99
        assert h.percentile(100) == 100

    def test_median_of_two(self):
        h = Histogram()
        for value in [10, 20]:
            h.record(value)
        assert h.percentile(50) == 15

    def test_single_sample(self):
        h = Histogram()
        h.record(7)
        assert h.percentile(0) == 7
        assert h.percentile(100) == 7

    def test_empty_statistics_are_nan(self):
        """Zero-delivery runs must survive reporting: the mean reads
        nan."""
        h = Histogram("empty")
        assert math.isnan(h.mean)
        assert h.count == 0

    def test_empty_quantiles_still_raise(self):
        h = Histogram("empty")
        with pytest.raises(ValueError):
            h.percentile(50)

    def test_total_is_cached_and_exact(self):
        h = Histogram()
        h.record(3)
        for value in [1.5, 2.5]:
            h.record(value)
        assert h.mean == 7.0 / 3
        h.record(1)
        assert h.mean == 2.0

    def test_percentile_duplicates(self):
        h = Histogram()
        for value in [5, 5, 5, 5]:
            h.record(value)
        for pct in (0, 25, 50, 99, 100):
            assert h.percentile(pct) == 5

    def test_percentile_extremes_single_sample(self):
        h = Histogram()
        h.record(7)
        assert h.percentile(0) == 7
        assert h.percentile(100) == 7
        assert h.percentile(37) == 7

    def test_percentile_range_validated(self):
        h = Histogram()
        h.record(1)
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_record_after_query_resorts(self):
        h = Histogram()
        for value in [5, 1]:
            h.record(value)
        assert h.percentile(0) == 1
        h.record(0)
        assert h.percentile(0) == 0


class TestLatencyTracker:
    def test_observe_interval(self):
        t = LatencyTracker()
        t.observe(100, 600)
        assert t.mean == 500
        assert t.percentile_ns(50) == 0.5

    def test_backwards_interval_rejected(self):
        t = LatencyTracker()
        with pytest.raises(ValueError):
            t.observe(10, 5)

    def test_zero_latency_allowed(self):
        t = LatencyTracker()
        t.observe(5, 5)
        assert t.mean == 0


class TestTimeSeries:
    def test_record_and_items(self):
        s = TimeSeries("depth", unit="msgs")
        s.record(0, 1)
        s.record(100, 2.5)
        assert s.items() == [(0, 1), (100, 2.5)]
        assert s.unit == "msgs"

    def test_bound_counts_drops(self):
        s = TimeSeries(max_samples=2)
        for t in range(5):
            s.record(t, t)
        assert s.items() == [(0, 0), (1, 1)]
        assert s.dropped == 3

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(max_samples=0)


class TestSeededRng:
    def test_determinism(self):
        a, b = SeededRng(42), SeededRng(42)
        assert [a.randint(0, 100) for _ in range(10)] == [
            b.randint(0, 100) for _ in range(10)
        ]

    def test_fork_streams_differ(self):
        root = SeededRng(1)
        x = root.fork("x")
        y = root.fork("y")
        assert [x.randint(0, 1 << 30) for _ in range(4)] != [
            y.randint(0, 1 << 30) for _ in range(4)
        ]

    def test_fork_is_deterministic(self):
        assert SeededRng(7).fork("a").seed == SeededRng(7).fork("a").seed

    def test_zipf_skew(self):
        rng = SeededRng(3)
        draws = [rng.zipf_index(100, alpha=1.1) for _ in range(2000)]
        # Rank 0 should dominate under a skewed distribution.
        assert draws.count(0) > draws.count(50) * 3
        assert all(0 <= d < 100 for d in draws)

    def test_zipf_invalid_support(self):
        with pytest.raises(ValueError):
            SeededRng(0).zipf_index(0)

    def test_exponential_mean(self):
        rng = SeededRng(9)
        samples = [rng.exponential(1000) for _ in range(5000)]
        mean = sum(samples) / len(samples)
        assert 900 < mean < 1100

    def test_exponential_invalid_mean(self):
        with pytest.raises(ValueError):
            SeededRng(0).exponential(0)

    def test_bytes_length(self):
        assert len(SeededRng(0).bytes(17)) == 17

    def test_fork_is_interpreter_stable(self):
        """Forked streams must not depend on PYTHONHASHSEED: str hashing
        is randomized per interpreter launch, and a hash()-salted fork
        gave every process (and every spawn-context shard worker) its
        own hostmem-jitter stream -- run-to-run timestamps drifted."""
        import subprocess
        import sys

        script = ("from repro.sim.rng import SeededRng; "
                  "print(SeededRng(3).fork('hostmem').seed, "
                  "SeededRng(3).fork('hostmem').randint(0, 10**9))")
        outs = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("0", "1", "31337")
        }
        assert len(outs) == 1

    def test_fork_streams_are_independent(self):
        rng = SeededRng(7)
        assert rng.fork("a").seed != rng.fork("b").seed
        assert rng.fork("a").seed == rng.fork("a").seed
