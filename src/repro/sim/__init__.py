"""Discrete-event simulation kernel used by every PANIC substrate.

The kernel is deliberately small: an event heap keyed by integer picosecond
timestamps, a ``Simulator`` facade, clocked ``Component`` objects, and a set
of statistics helpers (counters, histograms, latency trackers).

Time is always an integer number of picoseconds.  Components that run off a
clock convert between cycles and picoseconds through a :class:`Clock`.
"""

from repro.sim.clock import Clock, GHZ, MHZ, NS, PS, US, MS, SEC
from repro.sim.kernel import Simulator, SimError, Component
from repro.sim.stats import (
    Counter,
    Histogram,
    LatencyTracker,
    TimeSeries,
)
from repro.sim.rng import SeededRng

__all__ = [
    "Clock",
    "Component",
    "Counter",
    "GHZ",
    "Histogram",
    "LatencyTracker",
    "MHZ",
    "MS",
    "NS",
    "PS",
    "SeededRng",
    "SEC",
    "SimError",
    "Simulator",
    "TimeSeries",
    "US",
]
