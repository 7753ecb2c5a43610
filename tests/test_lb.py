"""The RMT-resident L4 load balancer (DESIGN.md section 17).

Pins the four layers separately, then end to end:

* the consistent-hash ring (determinism, bounded churn on removal),
* the ``flow_key64``/``ring_lookup``/``affinity_steer`` data-plane
  actions,
* the :class:`LbSteering` control plane -- make-before-break epochs,
  drain/fail idempotence, gc of masked entries by identity,
* the heartbeat health monitor, including monitor-driven failover of a
  dark backend inside the full rack workload,

plus the chaos-harness integration (the ``lb`` config) and the
collision-freedom of the shipped rack shapes in the affinity table.
"""

import pytest

from repro.core.config import PanicConfig
from repro.core.panic import PanicNic
from repro.faults.plan import FaultPlan
from repro.lb.monitor import (
    HB_ECHO,
    HB_PROBE,
    BackendHealthMonitor,
    pack_heartbeat,
    parse_heartbeat,
)
from repro.lb.rack import lb_layout, lb_rack_topology
from repro.lb.ring import HashRing, ring_points
from repro.lb.steering import LbSteering
from repro.reliability.chaos import (
    generate_lb_chaos_plan,
    lb_drain_params,
    run_chaos,
    run_chaos_case,
    split_config,
)
from repro.rmt.action import ActionError, flow_key64, ring_lookup
from repro.sim.clock import US
from repro.sim.kernel import Simulator
from repro.sim.shard import run_monolithic


# ----------------------------------------------------------------------
# Hash ring
# ----------------------------------------------------------------------

class TestHashRing:
    def test_points_deterministic_and_order_free(self):
        assert ring_points([3, 1, 2]) == ring_points([1, 2, 3])
        assert ring_points([1, 2, 3]) == ring_points([1, 2, 3])
        assert HashRing([1, 2, 3]).as_param() == ring_points([1, 2, 3])

    def test_points_sorted_and_sized(self):
        points = ring_points([1, 2, 3], vnodes=32)
        assert len(points) == 96
        assert list(points) == sorted(points)
        assert all(0 <= p <= 0xFFFFFFFF for p, _ in points)

    def test_removal_only_moves_the_removed_backends_keys(self):
        # The consistent-hashing property live drain relies on: keys not
        # owned by the removed backend keep their owner.
        ring = HashRing([1, 2, 3, 4])
        # Golden-ratio stride spreads probes across the whole keyspace.
        keys = [(k * 2654435761) & 0xFFFFFFFF for k in range(500)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove(4)
        moved = 0
        for k in keys:
            if before[k] == 4:
                moved += 1
                assert ring.owner(k) in (1, 2, 3)
            else:
                assert ring.owner(k) == before[k]
        assert 0 < moved < len(keys)  # a real share moved, most stayed

    def test_snapshots_are_independent(self):
        # Installed epochs hold a reference to a snapshot; mutating the
        # ring must produce a *new* tuple, not edit the old one.
        ring = HashRing([1, 2])
        old = ring.as_param()
        ring.add(3)
        assert ring.as_param() is not old
        assert old == ring_points([1, 2])

    def test_membership_and_validation(self):
        ring = HashRing([1, 2])
        assert len(ring) == 2 and 1 in ring and 3 not in ring
        with pytest.raises(ValueError):
            ring.add(1)
        with pytest.raises(ValueError):
            ring.remove(9)
        with pytest.raises(ValueError):
            HashRing([1], vnodes=0)


# ----------------------------------------------------------------------
# Data-plane actions
# ----------------------------------------------------------------------

class TestLbActions:
    def test_flow_key64_deterministic_and_nonzero(self):
        seen = set()
        for values in [(0,), (1, 2), (2, 1), (b"abc",), ((10 << 24) | 1,
                                                         40003)]:
            key = flow_key64(values)
            assert key == flow_key64(values)
            assert key != 0  # zero is the empty-slot sentinel
            seen.add(key)
        assert len(seen) == 5  # no collisions in the sample

    def test_ring_lookup_clockwise_and_wraparound(self):
        ring = ((100, 7), (200, 9))
        assert ring_lookup(ring, 50) == 7
        assert ring_lookup(ring, 100) == 7
        assert ring_lookup(ring, 150) == 9
        # Past the last point the ring wraps to its lowest point.
        assert ring_lookup(ring, 0xFFFFFFFF) == 7
        # Only the low 32 bits position the key.
        assert ring_lookup(ring, (1 << 32) + 150) == 9

    def test_empty_ring_is_an_action_error(self):
        with pytest.raises(ActionError):
            ring_lookup((), 1)


# ----------------------------------------------------------------------
# Control plane
# ----------------------------------------------------------------------

def make_steering(n_backends=3, **kwargs):
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=n_backends + 1, seed=0),
                   name="lb0")
    steering = LbSteering(
        nic, "10.0.99.1",
        {b: b - 1 for b in range(1, n_backends + 1)},
        **kwargs,
    )
    return sim, nic, steering


class TestLbSteering:
    def test_initial_epoch(self):
        _, _, steering = make_steering()
        assert steering.epoch == 0
        assert steering.live_backends() == (1, 2, 3)
        assert steering.report()["installed_entries"] == 1

    def test_drain_is_make_before_break(self):
        _, nic, steering = make_steering()
        table = nic.control.program.table("vip_steer")
        assert steering.drain(2)
        # The new epoch is installed and the old entry still present
        # (masked by priority) until gc -- never an instant with no rule.
        assert steering.epoch == 1
        assert table.size == 2
        epochs = [e for e, _ in steering._entries]
        assert epochs == [0, 1]
        new_entry = steering._entries[-1][1]
        assert new_entry.priority == 1
        backends_on_ring = {b for _, b in new_entry.params["ring"]}
        assert backends_on_ring == {1, 3}
        old_entry = steering._entries[0][1]
        assert {b for _, b in old_entry.params["ring"]} == {1, 2, 3}

    def test_gc_removes_only_masked_epochs(self):
        _, nic, steering = make_steering()
        table = nic.control.program.table("vip_steer")
        steering.drain(2)
        assert steering.gc() == 1
        assert table.size == 1
        assert steering.report()["gc_removed"] == 1
        assert steering.gc() == 0  # nothing stale left

    def test_drain_idempotent(self):
        _, _, steering = make_steering()
        assert steering.drain(2)
        epoch = steering.epoch
        assert not steering.drain(2)  # already out of the live set
        assert steering.epoch == epoch

    def test_fail_after_drain_rebooks_without_new_epoch(self):
        _, _, steering = make_steering()
        steering.drain(2)
        epoch = steering.epoch
        # The monitor declaring a draining backend dead must win the
        # bookkeeping race without re-epoching (it is already retired).
        assert steering.fail(2)
        assert steering.epoch == epoch
        assert 2 in steering.failed and 2 not in steering.draining
        assert not steering.fail(2)  # now idempotent

    def test_fail_is_an_epoch_bump_when_live(self):
        _, _, steering = make_steering()
        assert steering.fail(3)
        assert steering.epoch == 1
        assert steering.live_backends() == (1, 2)

    def test_last_backend_is_unremovable(self):
        _, _, steering = make_steering()
        steering.drain(2)
        steering.drain(1)
        with pytest.raises(RuntimeError):
            steering.drain(3)
        with pytest.raises(RuntimeError):
            steering.fail(3)
        assert steering.live_backends() == (3,)

    def test_unknown_backend_rejected(self):
        _, _, steering = make_steering()
        with pytest.raises(KeyError):
            steering.drain(9)

    def test_constructor_validation(self):
        sim = Simulator()
        nic = PanicNic(sim, PanicConfig(ports=2, seed=0), name="lb0")
        with pytest.raises(ValueError):
            LbSteering(nic, "10.0.99.1", {})
        with pytest.raises(ValueError):
            LbSteering(nic, "10.0.99.1", {1: 0}, slots=0)


# ----------------------------------------------------------------------
# Affinity-table sizing: the shipped rack shapes are collision-free
# ----------------------------------------------------------------------

def client_flow_key(index):
    """The affinity-field values ``RackNode.frame`` gives client
    ``index``: (source IP 10.0.<index>.1 as int, UDP source port)."""
    return (10 << 24) | (index << 8) | 1, 40000 + index


class TestAffinitySizing:
    @pytest.mark.parametrize("nics,backends,slots", [
        (7, 3, 256),     # the chaos config's shape at the default size
        (32, 4, 2048),   # the lb-smoke bench shape at its sized table
    ])
    def test_shape_collision_free(self, nics, backends, slots):
        _, clients = lb_layout(nics, backends)
        occupied = {flow_key64(client_flow_key(c)) % slots
                    for c in clients}
        assert len(occupied) == len(clients)

    def test_layout_validation(self):
        assert lb_layout(7, 3) == ((1, 2, 3), (4, 5, 6))
        with pytest.raises(ValueError):
            lb_layout(4, 3)  # no room for a client
        with pytest.raises(ValueError):
            lb_layout(7, 0)


# ----------------------------------------------------------------------
# Heartbeat monitor
# ----------------------------------------------------------------------

class TestHeartbeatWire:
    def test_roundtrip(self):
        for hb_type in (HB_PROBE, HB_ECHO):
            assert parse_heartbeat(pack_heartbeat(hb_type, 5)) == (hb_type,
                                                                   5)

    def test_rejects_non_heartbeats(self):
        assert parse_heartbeat(b"") is None
        assert parse_heartbeat(b"\x00" * 5) is None          # wrong magic
        assert parse_heartbeat(b"LB\x05\x00\x01") is None    # bad type

    def test_monitor_validation(self):
        with pytest.raises(ValueError):
            BackendHealthMonitor(None, 0, None, None,
                                 period_ps=0, timeout_ps=10)
        with pytest.raises(ValueError):
            BackendHealthMonitor(None, 0, None, None,
                                 period_ps=5, timeout_ps=5)


class TestRackFailover:
    def test_quiet_rack_has_no_false_positives(self):
        # Healthy backends ride the PCIe coalescing-timeout path and can
        # legitimately go tens of microseconds between echoes; the
        # declaration threshold must absorb that (monitor.py).
        topo = lb_rack_topology(nics=5, n_backends=2, frames=5)
        mono = run_monolithic(topo)
        lb = mono.reports["nic0"]
        assert lb["monitor"]["detected"] == {}
        assert lb["steering"]["failed"] == {}
        assert lb["steering"]["backends"] == [1, 2]

    def test_dark_backend_is_failed_out(self):
        plan = FaultPlan(seed=0).nic_down(20 * US, "nic1")
        topo = lb_rack_topology(nics=5, n_backends=2, frames=5)
        mono = run_monolithic(topo, fault_plan=plan)
        lb = mono.reports["nic0"]
        assert 1 in lb["monitor"]["detected"]
        assert 1 in lb["steering"]["failed"]
        assert lb["steering"]["backends"] == [2]
        # Detection is heartbeat-quantized but must land after the crash.
        assert lb["monitor"]["detected"][1] > 20 * US


# ----------------------------------------------------------------------
# Chaos integration: the ``lb`` config
# ----------------------------------------------------------------------

class TestLbChaosConfig:
    def test_config_vocabulary(self):
        assert split_config("lb") == ("lb", False)
        assert split_config("sr+ll") == ("sr", True)
        with pytest.raises(ValueError):
            split_config("lb+ll")

    def test_drain_params_deterministic(self):
        for seed in range(10):
            a = lb_drain_params(seed)
            assert a == lb_drain_params(seed)
            if a is not None:
                backend, at_ps = a
                assert 1 <= backend <= 3
                assert (100 * US) // 8 <= at_ps <= (100 * US) // 2

    def test_plan_deterministic(self):
        for seed in range(5):
            a = generate_lb_chaos_plan(seed, 7)
            b = generate_lb_chaos_plan(seed, 7)
            assert repr(a._events) == repr(b._events)

    def test_case_passes_with_drain(self):
        # Seed 0 draws a planned drain; the full invariant set must hold
        # mono vs sharded.
        case = run_chaos_case(0, config="lb", frames=8, workers=2,
                              check_replay=False)
        assert case["passed"], case["violations"]
        assert case["invariants"]["no_affinity_violation"]
        assert case["invariants"]["no_committed_loss"]
        assert case["lb"]["drain"] is not None

    def test_case_passes_speculatively_with_crash(self):
        # Seed 1 crashes a backend dark; failover must replay
        # bit-identically under speculative shard windows.
        case = run_chaos_case(1, config="lb", frames=8, workers=2,
                              check_replay=False, speculative=True)
        assert case["passed"], case["violations"]
        assert case["lb"]["failed"]
        assert case["lb"]["monitor"]["hb_failures_detected"] >= 1

    def test_per_config_floor_dict(self):
        report = run_chaos([0], configs=("gbn",), frames=6,
                           check_replay=False,
                           goodput_floor={"gbn": 1.01})
        assert report["floor_failures"]
        assert report["floor_failures"][0]["floor"] == 1.01
        # A config absent from the mapping is ungated.
        report = run_chaos([0], configs=("gbn",), frames=6,
                           check_replay=False,
                           goodput_floor={"sr+ll": 1.01})
        assert report["floor_failures"] == []
