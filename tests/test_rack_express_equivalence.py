"""Express NoC flights are invisible on a reliable rack.

The ledger's ``rack_lossy`` shape at a quarter of its size: six NICs
cabled all-pairs, selective repeat end to end, and every cable cut once
for 6 us at a seeded instant while all flows are mid-stream.  Run once
with every NIC's ``fast_path`` forced off (the per-hop oracle) and once
forced on, the rack must produce the same reports -- deliveries with
their picosecond arrival instants, per-NIC stats trees -- and the same
per-direction wire stats.

This is the NIC-level workload that found the materialize tie bug: a
flight rebuilt mid-hop used to draw a fresh event sequence number, so
its hop completion lost a same-picosecond tie that the per-hop path
wins, and a frame queued behind it lost its channel for a cycle.
"""

import random

import pytest

from repro.core.config import PanicConfig
from repro.faults.plan import FaultPlan
from repro.faults.rack import wire_target
from repro.reliability.rack import reliable_rack_topology
from repro.sim.clock import US
from repro.sim.shard import run_monolithic
import repro.workloads.rack as rack_module

NICS = 6
FRAMES = 20
GAP_PS = 4 * US
CUT_PS = 6 * US
CUT_WINDOW_PS = (10 * US, 62 * US + US // 2)


def run_lossy_rack(seed: int, fast_path: bool, monkeypatch):
    """One monolithic run with ``fast_path`` forced on every NIC."""
    monkeypatch.setattr(
        rack_module, "PanicConfig",
        lambda **kwargs: PanicConfig(fast_path=fast_path, **kwargs))
    topology = reliable_rack_topology(
        nics=NICS, pattern="symmetric", frames=FRAMES, gap_ps=GAP_PS,
        payload_bytes=256, seed=seed, transport="sr")
    plan = FaultPlan(seed=seed)
    rng = random.Random(seed)
    for a in range(NICS):
        for b in range(a + 1, NICS):
            down = rng.randrange(*CUT_WINDOW_PS)
            plan.flap_wire(down, down + CUT_PS, wire_target(a, b))
    result = run_monolithic(topology, fault_plan=plan)
    monkeypatch.undo()
    return result


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_express_equals_per_hop_on_lossy_rack(seed, monkeypatch):
    slow = run_lossy_rack(seed, False, monkeypatch)
    fast = run_lossy_rack(seed, True, monkeypatch)
    deliveries = [report["deliveries"] for report in fast.reports.values()]
    assert sum(map(len, deliveries)) > 0
    assert deliveries == [report["deliveries"]
                          for report in slow.reports.values()]
    assert fast.reports == slow.reports
    assert fast.wire_stats == slow.wire_stats
    # The cuts really cost frames, so recovery ran in both legs.
    retransmits = sum(report["stats"]["reliability"]["retransmits"]
                      for report in fast.reports.values())
    assert retransmits > 0
