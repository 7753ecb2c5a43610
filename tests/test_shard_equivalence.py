"""The sharded runner must be invisible in simulated results.

``repro.sim.shard`` partitions a rack topology across worker processes
synchronized with conservative time windows.  The contract (DESIGN.md
section 10) mirrors the fast-path one: every simulated observable --
per-NIC ``stats()`` trees, delivery tuples with picosecond timestamps --
is bit-identical between the monolithic single-process run and the
sharded run at any worker count.  These tests enforce it on the
symmetric and fan-in rack workloads, and cover the protocol's edges:
topology partitioning, the lookahead floor, deadlock detection across
the barrier, and the wall-clock speedup the sharding exists for.
"""

import os

import pytest

from repro.core.topology import (
    LinkSpec,
    MIN_LOOKAHEAD_PS,
    NicSpec,
    RackTopology,
    TopologyError,
)
from repro.sim.clock import NS, US
from repro.sim.shard import (
    ShardDeadlockError,
    ShardError,
    run_monolithic,
    run_sharded,
)
from repro.workloads.rack import build_rack_nic, rack_port, rack_topology

#: Both settings of ``speculative`` drive the same worker and coordinator
#: loops (horizon pinned to 1 vs adaptive), so every protocol edge is
#: checked under each -- looped inside the test, which keeps its id stable.
PROTOCOLS = (False, True)


def _assert_identical(mono, sharded):
    assert set(sharded.reports) == set(mono.reports)
    for name in mono.reports:
        assert sharded.reports[name]["deliveries"] == \
            mono.reports[name]["deliveries"], f"{name} deliveries diverge"
        assert sharded.reports[name]["stats"] == \
            mono.reports[name]["stats"], f"{name} stats diverge"


class TestEquivalence:
    def test_symmetric_rack_all_worker_counts(self):
        topo = rack_topology(nics=4, frames=8)
        mono = run_monolithic(topo)
        # Every NIC hears every frame from its 3 peers.
        for name in mono.reports:
            assert len(mono.reports[name]["deliveries"]) == 3 * 8
        for workers in (1, 2, 3, 4):
            sharded = run_sharded(topo, workers=workers)
            _assert_identical(mono, sharded)
            assert sharded.events_fired == mono.events_fired

    def test_fanin_rack(self):
        topo = rack_topology(nics=4, frames=6, pattern="fanin")
        mono = run_monolithic(topo)
        assert len(mono.reports["nic0"]["deliveries"]) == 3 * 6
        for name in ("nic1", "nic2", "nic3"):
            assert mono.reports[name]["deliveries"] == []
        sharded = run_sharded(topo, workers=4)
        _assert_identical(mono, sharded)

    def test_two_nics_long_wire(self):
        # WAN-ish propagation: windows are huge, rounds few.
        topo = rack_topology(nics=2, frames=10, propagation_ps=50 * US)
        mono = run_monolithic(topo)
        sharded = run_sharded(topo, workers=2)
        _assert_identical(mono, sharded)
        assert sharded.rounds > 0
        assert sharded.lookahead_ps == 50 * US

    def test_deliveries_are_timestamped(self):
        topo = rack_topology(nics=2, frames=3)
        mono = run_monolithic(topo)
        deliveries = mono.reports["nic1"]["deliveries"]
        assert deliveries, "nic1 saw no traffic"
        for src, seq, t_ps, queue in deliveries:
            assert src == 0
            assert t_ps > 0


class TestSpeedup:
    def test_four_workers_speed_up_the_incast(self):
        """The acceptance bar: >=2x on the 4-NIC incast with 4 workers.

        Wall-clock speedup needs 4 real cores; on smaller machines the
        run still executes (equivalence is asserted) but the timing
        assertion is skipped.
        """
        topo = rack_topology(nics=4, frames=240, gap_ps=1 * US,
                             propagation_ps=8 * US)
        mono = run_monolithic(topo)
        sharded = run_sharded(topo, workers=4)
        _assert_identical(mono, sharded)
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            cores = os.cpu_count() or 1
        if cores < 4:
            pytest.skip(f"speedup needs 4 cores, machine has {cores}")
        speedup = mono.wall_seconds / sharded.wall_seconds
        assert speedup >= 2.0, (
            f"4-worker incast speedup {speedup:.2f}x < 2x "
            f"(mono {mono.wall_seconds:.2f}s, "
            f"sharded {sharded.wall_seconds:.2f}s, "
            f"{sharded.rounds} rounds)"
        )


class TestProtocolEdges:
    def test_deadlock_detected_across_barrier(self):
        # A tiny window budget turns the first busy window into a
        # deadlock report instead of a hung barrier.
        topo = rack_topology(nics=2, frames=50, gap_ps=100 * NS)
        for speculative in PROTOCOLS:
            with pytest.raises(ShardDeadlockError) as excinfo:
                run_sharded(topo, workers=2, window_event_budget=10,
                            speculative=speculative)
            assert "pending" in str(excinfo.value)
            assert excinfo.value.shard in (0, 1)

    def test_deadlock_report_names_shard_nics_and_starved_engines(self):
        # The report must say *where* to look: which NICs live on the
        # wedged shard, and which engines still hold work (or an explicit
        # statement that none do, pointing at wires/host timers instead).
        topo = rack_topology(nics=2, frames=50, gap_ps=100 * NS)
        for speculative in PROTOCOLS:
            with pytest.raises(ShardDeadlockError) as excinfo:
                run_sharded(topo, workers=2, window_event_budget=10,
                            speculative=speculative)
            message = str(excinfo.value)
            assert "shard NICs:" in message
            named = [n for n in ("nic0", "nic1") if n in message]
            assert named, message
            assert ("starved engines:" in message
                    or "no engine holds work" in message), message

    def test_single_worker_runs_one_window(self):
        topo = rack_topology(nics=3, frames=4)
        for speculative in PROTOCOLS:
            result = run_sharded(topo, workers=1, speculative=speculative)
            assert result.rounds == 1
            assert result.lookahead_ps == 0
            assert result.window_log == []

    def test_worker_death_names_the_shard(self):
        # A worker that dies without replying must surface as a
        # ShardError naming the shard, not a bare EOFError from the pipe.
        specs = [NicSpec(f"nic{i}", _build_or_die,
                         {"index": i, "n_nics": 2, "frames": 2})
                 for i in range(2)]
        topo = RackTopology(specs, [LinkSpec("nic0", "nic1")])
        for speculative in PROTOCOLS:
            with pytest.raises(ShardError, match="shard 1 .*died") as excinfo:
                run_sharded(topo, workers=2, speculative=speculative)
            assert "exit code 3" in str(excinfo.value)


def _build_or_die(sim, name, **params):
    if name == "nic1":
        os._exit(3)
    return build_rack_nic(sim, name, **params)


class TestTopology:
    def _topo(self, n=4):
        return rack_topology(nics=n, frames=1)

    def test_assignment_is_contiguous_and_balanced(self):
        topo = self._topo(5)
        assignment = topo.assign_shards(2)
        assert assignment == {"nic0": 0, "nic1": 0, "nic2": 0,
                              "nic3": 1, "nic4": 1}
        sizes = [list(assignment.values()).count(s) for s in (0, 1)]
        assert max(sizes) - min(sizes) <= 1

    def test_too_many_workers_rejected(self):
        with pytest.raises(TopologyError):
            self._topo(2).assign_shards(3)
        with pytest.raises(TopologyError):
            self._topo(2).assign_shards(0)

    def test_lookahead_is_min_cross_propagation(self):
        specs = [NicSpec(f"n{i}", build_rack_nic,
                         {"index": i, "n_nics": 3, "frames": 0})
                 for i in range(3)]
        links = [
            LinkSpec("n0", "n1", port_a=rack_port(0, 1),
                     port_b=rack_port(1, 0), propagation_ps=2 * US),
            LinkSpec("n1", "n2", port_a=rack_port(1, 2),
                     port_b=rack_port(2, 1), propagation_ps=5 * US),
        ]
        topo = RackTopology(specs, links)
        assignment = {"n0": 0, "n1": 1, "n2": 1}
        assert topo.lookahead_ps(assignment) == 2 * US
        # All NICs in one shard: no cross links, unbounded window.
        assert topo.lookahead_ps({"n0": 0, "n1": 0, "n2": 0}) == 0

    def test_lookahead_floor_enforced(self):
        specs = [NicSpec(f"n{i}", build_rack_nic,
                         {"index": i, "n_nics": 2, "frames": 0})
                 for i in range(2)]
        links = [LinkSpec("n0", "n1", propagation_ps=MIN_LOOKAHEAD_PS - 1)]
        topo = RackTopology(specs, links)
        with pytest.raises(TopologyError, match="minimum lookahead"):
            topo.lookahead_ps({"n0": 0, "n1": 1})
        # Same wire is fine when both ends share a shard.
        assert topo.lookahead_ps({"n0": 0, "n1": 0}) == 0

    def test_zero_weight_nics_still_assigned(self):
        # Every NIC lands in exactly one shard and no shard comes up
        # empty.
        specs = [NicSpec(f"n{i}", build_rack_nic,
                         {"index": i, "n_nics": 4, "frames": 0})
                 for i in range(4)]
        topo = RackTopology(specs, [LinkSpec("n0", "n1"),
                                    LinkSpec("n2", "n3", port_a=1,
                                             port_b=1)])
        assignment = topo.assign_shards(3)
        assert sorted(assignment) == [f"n{i}" for i in range(4)]
        assert set(assignment.values()) == {0, 1, 2}

    def test_equal_weights_keep_historical_split(self):
        # The split must reproduce the old equal-size contiguous split
        # exactly (larger early shards on ties) -- pinned so old sharded
        # runs replay bit-identically.
        for n, workers, expected in (
            (5, 2, [0, 0, 0, 1, 1]),
            (6, 3, [0, 0, 1, 1, 2, 2]),
            (4, 4, [0, 1, 2, 3]),
        ):
            topo = rack_topology(nics=n, frames=7)
            assignment = topo.assign_shards(workers)
            assert [assignment[f"nic{i}"] for i in range(n)] == expected

    def test_malformed_topologies_rejected(self):
        spec = NicSpec("n0", build_rack_nic,
                       {"index": 0, "n_nics": 2, "frames": 0})
        with pytest.raises(TopologyError, match="duplicate"):
            RackTopology([spec, spec], [])
        with pytest.raises(TopologyError, match="unknown NIC"):
            RackTopology([spec], [LinkSpec("n0", "ghost")])
        with pytest.raises(TopologyError, match="itself"):
            LinkSpec("n0", "n0")
        with pytest.raises(TopologyError, match="cabled twice"):
            specs = [NicSpec(f"n{i}", build_rack_nic,
                             {"index": i, "n_nics": 3, "frames": 0})
                     for i in range(3)]
            RackTopology(specs, [
                LinkSpec("n0", "n1", port_a=0, port_b=0),
                LinkSpec("n0", "n2", port_a=0, port_b=0),
            ])
