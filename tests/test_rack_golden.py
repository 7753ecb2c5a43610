"""Golden digests of small racks: every role x transport, pinned.

Each case hashes the canonical form of what a rack run produces -- every
NIC's ``report()`` dict plus the per-direction wire stats -- and holds
it to a recorded sha256, monolithic and 2-worker sharded.  The digests
were recorded before the three rack builders and the two transports
were folded onto shared code, so an edit to the shared node constructor,
a role, or the transport core that moves any simulated output by one
picosecond shows up here as a one-line diff.

Re-recording is deliberate, never routine: say in the cause which
behaviour changed and why the old digest was wrong, and record with
``python -m tests.pins --cause "..." rack.`` (``tests/pins.py``);
EXPERIMENTS.md "Known deviations" lists every past move.
"""

import pytest

from repro.faults.plan import FaultPlan
from repro.faults.rack import wire_target
from repro.lb.rack import lb_rack_topology
from repro.reliability.rack import reliable_rack_topology
from repro.sim.clock import US
from repro.sim.shard import run_monolithic, run_sharded
from repro.workloads.rack import rack_topology
from tests import pins


def _lossy_plan() -> FaultPlan:
    """Seeded loss on one cable, a short cut on another: enough to make
    both transports retransmit and fire an RTO."""
    plan = FaultPlan(seed=5)
    plan.wire_loss(0, wire_target(0, 1), drop_p=0.08, corrupt_p=0.02)
    plan.flap_wire(12 * US, 20 * US, wire_target(0, 2))
    return plan


def _reliable(transport: str, failover: bool = False):
    return reliable_rack_topology(
        nics=3, pattern="symmetric", frames=16, seed=3,
        transport=transport, failover=failover)


#: name -> (topology factory, fault-plan factory); each digest is pinned
#: in tests/pins.json as ``rack.<name>``.
CASES = {
    "plain_dscp": (
        lambda: rack_topology(nics=3, frames=5, seed=1, flow_id="dscp"),
        lambda: None),
    "plain_tag_fanin": (
        lambda: rack_topology(nics=4, pattern="fanin", frames=5, seed=1,
                              flow_id="tag"),
        lambda: None),
    "reliable_gbn": (
        lambda: _reliable("gbn"), _lossy_plan),
    "reliable_sr": (
        lambda: _reliable("sr"), _lossy_plan),
    "reliable_sr_failover": (
        lambda: _reliable("sr", failover=True),
        lambda: _lossy_plan().crash_engine(6 * US, "nic1:checksum")),
    "lb_drain": (
        lambda: lb_rack_topology(nics=5, n_backends=2, frames=10, seed=2,
                                 drain=(1, 20 * US)),
        lambda: FaultPlan(seed=2).flap_wire(
            8 * US, 14 * US, wire_target(0, 3))),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_monolithic_digest_is_pinned(name):
    topology, plan = CASES[name]
    result = run_monolithic(topology(), fault_plan=plan())
    pins.golden(f"rack.{name}", [result.reports, result.wire_stats])


@pytest.mark.parametrize("name", sorted(CASES))
def test_sharded_digest_is_pinned(name):
    topology, plan = CASES[name]
    result = run_sharded(topology(), workers=2, fault_plan=plan())
    pins.golden(f"rack.{name}", [result.reports, result.wire_stats])


def test_lossy_cases_exercise_recovery():
    """The pins guard recovery code only if the plans make it run."""
    for name in ("reliable_gbn", "reliable_sr", "lb_drain"):
        topology, plan = CASES[name]
        reports = run_monolithic(topology(), fault_plan=plan()).reports
        retransmits = sum(
            report["stats"].get("reliability", {}).get("retransmits", 0)
            for report in reports.values())
        assert retransmits > 0, name
