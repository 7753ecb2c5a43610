"""Golden digests of small racks: every role x transport, pinned.

Each case hashes the canonical form of what a rack run produces -- every
NIC's ``report()`` dict plus the per-direction wire stats -- and holds
it to a recorded sha256, monolithic and 2-worker sharded.  The digests
were recorded before the three rack builders and the two transports
were folded onto shared code, so an edit to the shared node constructor,
a role, or the transport core that moves any simulated output by one
picosecond shows up here as a one-line diff.

Re-recording is deliberate, never routine: say in the commit which
behaviour changed and why the old digest was wrong.  Print the new
values with ``python tests/test_rack_golden.py``.
"""

import hashlib
import json

import pytest

from repro.faults.plan import FaultPlan
from repro.faults.rack import wire_target
from repro.lb.rack import lb_rack_topology
from repro.reliability.rack import reliable_rack_topology
from repro.sim.clock import US
from repro.sim.shard import run_monolithic, run_sharded
from repro.workloads.rack import rack_topology


def _canonical(obj):
    if isinstance(obj, dict):
        return [[repr(key), _canonical(obj[key])]
                for key in sorted(obj, key=repr)]
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def rack_digest(result) -> str:
    blob = json.dumps(_canonical([result.reports, result.wire_stats]),
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


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


#: name -> (topology factory, fault-plan factory, sha256).
CASES = {
    "plain_dscp": (
        lambda: rack_topology(nics=3, frames=5, seed=1, flow_id="dscp"),
        lambda: None,
        "82132e1133a1008a3fe11d214730361efa7a745be76cd24af0d1765a595e5289"),
    "plain_tag_fanin": (
        lambda: rack_topology(nics=4, pattern="fanin", frames=5, seed=1,
                              flow_id="tag"),
        lambda: None,
        "04c47c31be3a6e6eaedfb7c02850f9dc94ab9fa7466c5bbb1302eed76f6885ba"),
    "reliable_gbn": (
        lambda: _reliable("gbn"), _lossy_plan,
        # Re-recorded once, by the go-back-N RTO-stall fix (parent:
        # e33bde75...): offering new data no longer pushes the
        # retransmission deadline out, so the flows cut at 12 us are
        # repaired earlier.  No other case moved.
        "a0087829cd67c82054ae78df30612d49cc85e7db680b7428d4a6f7b6823fd87c"),
    "reliable_sr": (
        lambda: _reliable("sr"), _lossy_plan,
        "77f5d0b3f375d71564be0313e9a1b763d018df1a04cdfc136207c632b67b586c"),
    "reliable_sr_failover": (
        lambda: _reliable("sr", failover=True),
        lambda: _lossy_plan().crash_engine(6 * US, "nic1:checksum"),
        # Re-recorded once, when the engine watchdog adopted the load
        # balancer's last-echo rule (parent: ef205312...): the monitor's
        # fault counters are renamed (``hb_*``; ``watchdog_fires`` went)
        # and nic1's monitor sends one more probe into the dead checksum
        # tile, which sinks it (blackholed 15 -> 16).  Every delivery,
        # instant and wire count is unchanged.
        "01c26149d0280b082b83180d2cb06cbe2176b1be1cde1d91fc1395783caa4796"),
    "lb_drain": (
        lambda: lb_rack_topology(nics=5, n_backends=2, frames=10, seed=2,
                                 drain=(1, 20 * US)),
        lambda: FaultPlan(seed=2).flap_wire(
            8 * US, 14 * US, wire_target(0, 3)),
        "4013277de7d4e0b32e08efd38e5fb78c66d0dc4bdfec722c4b04d33533da0c01"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_monolithic_digest_is_pinned(name):
    topology, plan, golden = CASES[name]
    assert rack_digest(run_monolithic(topology(), fault_plan=plan())) \
        == golden


@pytest.mark.parametrize("name", sorted(CASES))
def test_sharded_digest_is_pinned(name):
    topology, plan, golden = CASES[name]
    result = run_sharded(topology(), workers=2, fault_plan=plan())
    assert rack_digest(result) == golden


def test_lossy_cases_exercise_recovery():
    """The pins guard recovery code only if the plans make it run."""
    for name in ("reliable_gbn", "reliable_sr", "lb_drain"):
        topology, plan, _golden = CASES[name]
        reports = run_monolithic(topology(), fault_plan=plan()).reports
        retransmits = sum(
            report["stats"].get("reliability", {}).get("retransmits", 0)
            for report in reports.values())
        assert retransmits > 0, name


if __name__ == "__main__":
    for case, (topo, fault_plan, _golden) in sorted(CASES.items()):
        print(case, rack_digest(
            run_monolithic(topo(), fault_plan=fault_plan())))
