"""The speculative shard protocol must be invisible in simulated results.

``run_sharded(..., speculative=True)`` lets shards run optimistically
past the conservative lookahead horizon, fork-checkpointing per-shard
state each round and rolling back to deterministic replay whenever a
straggler capsule lands inside the optimistic window.  The contract is
the same bit-identity bar the conservative protocol meets (DESIGN.md
section 10 / section 15): every per-NIC observable -- stats trees,
delivery tuples, wire fault accounting, even the total event count --
must match the monolithic run exactly, on clean traffic and under
seeded wire faults with reliable transports; NICs built with the
batched train lane are refused.  These tests enforce it and pin the
speculation machinery's edges: rollback counters, the window log, the
kernel's fired-timestamp log and ``rewind_clock`` validation.
"""

import os

import pytest

from repro.faults.plan import FaultPlan
from repro.faults.rack import wire_target
from repro.lb.rack import lb_rack_topology
from repro.reliability.rack import reliable_rack_topology
from repro.sim.clock import NS, US
from repro.sim.kernel import SimError, Simulator
from repro.sim.shard import (
    SPEC_HORIZON,
    ShardError,
    run_monolithic,
    run_sharded,
)
from repro.workloads.rack import rack_topology

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="speculation requires os.fork")


def _assert_identical(mono, sharded):
    assert set(sharded.reports) == set(mono.reports)
    for name in mono.reports:
        assert sharded.reports[name] == mono.reports[name], \
            f"{name} diverges"
    assert sharded.wire_stats == mono.wire_stats
    assert sharded.events_fired == mono.events_fired


class TestSpeculativeEquivalence:
    def test_chatty_incast_all_worker_counts(self):
        # Dense all-pairs traffic: stragglers constantly land inside the
        # optimistic window, so this exercises rollback + replay hard.
        topo = rack_topology(nics=4, frames=10, gap_ps=1 * US)
        mono = run_monolithic(topo)
        for workers in (1, 2, 4):
            spec = run_sharded(topo, workers=workers, speculative=True)
            _assert_identical(mono, spec)
            assert spec.speculative

    def test_sparse_traffic_commits_wide_windows(self):
        # Long gaps between frames: speculation should commit multi-
        # lookahead windows and finish in fewer rounds than the
        # conservative protocol needs.
        topo = rack_topology(nics=4, frames=12, gap_ps=40 * US,
                             propagation_ps=500 * NS)
        mono = run_monolithic(topo)
        cons = run_sharded(topo, workers=2, speculative=False)
        spec = run_sharded(topo, workers=2, speculative=True)
        _assert_identical(mono, cons)
        _assert_identical(mono, spec)
        assert spec.rounds < cons.rounds

    def test_fanin_rack(self):
        topo = rack_topology(nics=4, frames=8, pattern="fanin")
        mono = run_monolithic(topo)
        spec = run_sharded(topo, workers=4, speculative=True)
        _assert_identical(mono, spec)

    def test_faulty_wires_with_reliable_transport(self):
        # Seeded drops + corruption under go-back-N: rollback must not
        # double-inject or lose capsules, and the per-wire fault
        # accounting must replay to the exact same counters.
        plan = FaultPlan(seed=3)
        for i in range(4):
            for j in range(i + 1, 4):
                plan.wire_loss(0, wire_target(i, j),
                               drop_p=0.02, corrupt_p=0.01)
        topo = reliable_rack_topology(nics=4, pattern="fanin", frames=12)
        mono = run_monolithic(topo, fault_plan=plan)
        spec = run_sharded(topo, workers=2, speculative=True,
                           fault_plan=plan)
        _assert_identical(mono, spec)

    def test_batched_train_lane(self):
        # The batch_execution lane mutates NIC state at emulated hop
        # times without firing heap events, so a ride never reaches the
        # fired log the speculative dirty check reads: the pair is
        # unsound (EXPERIMENTS.md "Known deviations") and refused when
        # the workers see the built NICs, before any window runs.
        # Conservative windows stay bit-identical; their raw event
        # *count* may differ from the monolithic batched run because a
        # window end splits a train in two.
        topo = rack_topology(nics=4, frames=10, batch=True)
        mono = run_monolithic(topo)
        cons = run_sharded(topo, workers=4, speculative=False)
        for name in mono.reports:
            assert cons.reports[name] == mono.reports[name]
        assert cons.wire_stats == mono.wire_stats
        with pytest.raises(ShardError, match="nic[0-3] was built with "
                                             "batch_execution=True"):
            run_sharded(topo, workers=4, speculative=True)

    def test_tag_rack_past_the_dscp_cap(self):
        topo = rack_topology(nics=9, frames=4, pattern="fanin")
        mono = run_monolithic(topo)
        spec = run_sharded(topo, workers=3, speculative=True)
        _assert_identical(mono, spec)

    def test_lb_failover_races_the_optimistic_window(self):
        # A backend NIC goes dark mid-run; the LB's heartbeat monitor
        # declares it and calls steering.fail() -- an epoch bump that
        # reprograms the vip_steer table -- from inside a speculative
        # window.  If a rollback replayed the declaration twice (or a
        # discarded window leaked the table mutation), the LB report's
        # epoch / failed / detected fields would diverge from the
        # monolithic run.  Full-report bit-identity covers all of them.
        def plan():
            return FaultPlan(seed=7).nic_down(20 * US, "nic1")

        def topo():
            return lb_rack_topology(nics=6, n_backends=2, frames=8)

        mono = run_monolithic(topo(), fault_plan=plan())
        lb = mono.reports["nic0"]
        assert 1 in lb["monitor"]["detected"]  # the race actually happens
        assert lb["steering"]["failed"]
        for workers in (2, 3):
            spec = run_sharded(topo(), workers=workers, speculative=True,
                               fault_plan=plan())
            _assert_identical(mono, spec)
            assert (spec.reports["nic0"]["monitor"]["hb_failures_detected"]
                    == 1)


class TestSpeculationCounters:
    def test_rollbacks_happen_and_are_counted(self):
        topo = rack_topology(nics=4, frames=10, gap_ps=1 * US)
        spec = run_sharded(topo, workers=4, speculative=True)
        assert spec.rollbacks > 0
        assert spec.replayed_events > 0
        assert spec.discarded_events > 0
        # The window log's cumulative counters end at the run totals.
        assert spec.window_log
        assert spec.window_log[-1][2] == spec.rollbacks
        assert spec.window_log[-1][3] == spec.replayed_events
        # Commit points move strictly forward.
        commits = [entry[0] for entry in spec.window_log]
        assert commits == sorted(commits)

    def test_conservative_rounds_log_clean_windows(self):
        topo = rack_topology(nics=4, frames=6)
        cons = run_sharded(topo, workers=2, speculative=False)
        assert not cons.speculative
        assert cons.rollbacks == 0 and cons.replayed_events == 0
        assert len(cons.window_log) == cons.rounds
        assert all(entry[1:] == (0, 0, 0) for entry in cons.window_log)

    def test_conservative_run_never_checkpoints(self, monkeypatch):
        # Conservative mode is the same worker loop with the horizon
        # pinned to 1: it must never fork a checkpoint nor install the
        # kernel's fired log.  Forked workers inherit these patches, so
        # a violation comes back as a ShardError carrying the traceback.
        def forbidden(*_args, **_kwargs):
            raise AssertionError("conservative run used speculation state")

        monkeypatch.setattr("repro.sim.shard._spec_checkpoint", forbidden)
        monkeypatch.setattr(Simulator, "set_fired_log", forbidden)
        topo = rack_topology(nics=4, frames=6, gap_ps=1 * US)
        cons = run_sharded(topo, workers=2, speculative=False)
        assert (cons.rollbacks == cons.replayed_events
                == cons.discarded_events == cons.capsules_replayed == 0)
        assert cons.spec_horizon == 0 and cons.horizon_history == ()
        assert len(cons.window_log) == cons.rounds
        _assert_identical(run_monolithic(topo), cons)

    def test_horizon_reported(self):
        topo = rack_topology(nics=4, frames=6)
        spec = run_sharded(topo, workers=2, speculative=True)
        assert spec.spec_horizon == SPEC_HORIZON
        assert len(spec.horizon_history) == spec.rounds
        assert 1 <= min(spec.horizon_history)
        assert max(spec.horizon_history) <= SPEC_HORIZON

    def test_single_worker_has_no_cross_wires(self):
        # No cross-shard wires -> no lookahead -> the speculative
        # protocol cannot engage; the run still completes and reports
        # horizon 0.
        topo = rack_topology(nics=3, frames=4)
        spec = run_sharded(topo, workers=1, speculative=True)
        assert spec.spec_horizon == 0
        assert spec.rollbacks == 0
        _assert_identical(run_monolithic(topo), spec)


class TestKernelFiredLog:
    def test_step_and_advance_log_distinct_timestamps(self):
        sim = Simulator()
        log = []
        sim.set_fired_log(log)
        for t in (100, 100, 250):
            sim.schedule_at(t, lambda: None)
        sim.run()
        assert log == [100, 250]

    def test_rewind_validates_quiescence(self):
        sim = Simulator()
        sim.set_fired_log([])
        sim.schedule_at(100, lambda: None)
        sim.run()
        with pytest.raises(SimError):
            sim.rewind_clock(200)  # forwards is not a rewind
        sim.schedule_at(500, lambda: None)
        sim.rewind_clock(50)       # pending work is all beyond target
        assert sim.now == 50
