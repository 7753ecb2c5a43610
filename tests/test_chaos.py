"""The seeded chaos harness and its delivery invariants.

``repro.reliability.chaos`` turns one integer seed into a random fault
plan, runs the reliable rack incast monolithically and sharded under it,
and checks the invariants of DESIGN.md section 12.  These tests pin the
harness itself: plan generation is a pure function of the seed, the
invariants hold across a handful of seeds (kept small -- CI runs the
bigger batch through ``python -m repro chaos``), and the checker
actually catches the violations it claims to, so a green batch means
something.
"""

from types import SimpleNamespace

import pytest

from repro.reliability.chaos import (
    _check_case,
    _check_lb_case,
    generate_chaos_plan,
    run_chaos,
    run_chaos_case,
    split_config,
    write_chaos_trace,
)


class TestPlanGeneration:
    def test_same_seed_same_plan(self):
        assert generate_chaos_plan(11, 4).describe() == \
            generate_chaos_plan(11, 4).describe()

    def test_different_seeds_differ(self):
        plans = {generate_chaos_plan(s, 4).describe() for s in range(8)}
        assert len(plans) > 1

    def test_plans_carry_their_seed(self):
        assert generate_chaos_plan(5, 4).seed == 5

    def test_crashes_spare_the_incast_receiver(self):
        # nic0 is every fanin flow's receiver; a plan that crashes its
        # checksum lane would fail all flows at once and tell us nothing.
        for seed in range(40):
            plan = generate_chaos_plan(seed, 4)
            crash_lines = [line for line in plan.describe().splitlines()
                           if " crash " in line]
            assert not any("nic0" in line for line in crash_lines)


class TestInvariants:
    def test_invariants_hold_on_a_seed_batch(self):
        report = run_chaos([0, 1, 2], frames=15, workers=2)
        assert report["passed"], report["failed_seeds"]
        assert report["goodput_min"] > 0.0
        for case in report["cases"]:
            assert all(case["invariants"].values()), case["violations"]

    def test_case_report_shape(self):
        case = run_chaos_case(4, frames=10, check_replay=False)
        assert case["seed"] == 4
        assert case["config"] == "gbn"
        assert set(case["invariants"]) == {
            "no_committed_loss", "no_duplicates", "accounting",
            "mono_eq_sharded", "replay_deterministic",
        }
        assert 0.0 <= case["goodput"] <= 1.0
        assert case["sent"] == 3 * 10  # three fanin senders
        assert set(case["linklayer"]) == {
            "protected", "nacks", "retransmits", "repaired",
            "gave_up", "bypassed",
        }
        assert case["fct_mean_ps"] <= case["fct_max_ps"]


class TestTransportConfigs:
    def test_split_config_vocabulary(self):
        assert split_config("gbn") == ("gbn", False)
        assert split_config("sr") == ("sr", False)
        assert split_config("gbn+ll") == ("gbn", True)
        with pytest.raises(ValueError, match="config"):
            split_config("tcp")
        with pytest.raises(ValueError, match="config"):
            split_config("gbn+turbo")

    def test_each_seed_runs_under_every_config(self):
        report = run_chaos([3], frames=10, check_replay=False,
                           configs=("gbn", "sr", "gbn+ll"))
        assert [c["config"] for c in report["cases"]] == \
            ["gbn", "sr", "gbn+ll"]
        assert set(report["by_config"]) == {"gbn", "sr", "gbn+ll"}
        for summary in report["by_config"].values():
            assert summary["passed"]
        assert report["params"]["configs"] == ["gbn", "sr", "gbn+ll"]

    @pytest.mark.parametrize("config", ["gbn", "lb"])
    def test_every_config_writes_a_trace_of_every_node(self, config,
                                                       tmp_path):
        # The traced rerun builds the case the gated run built, the lb
        # config's own rack shape included, with telemetry on every node.
        import json
        path = tmp_path / f"chaos_trace_{config}.json"
        count = write_chaos_trace(str(path), 0, frames=4, config=config)
        events = json.loads(path.read_text())["traceEvents"]
        assert count == len(events) > 0
        nodes = {ev["pid"] for ev in events if ev.get("ph") == "X"}
        assert len(nodes) == (7 if config == "lb" else 4)

    def test_link_local_config_arms_every_wire(self):
        plan = generate_chaos_plan(3, 4, link_local=True)
        armed = [line for line in plan.describe().splitlines()
                 if "wire_linklayer" in line]
        assert len(armed) == 6  # all-pairs cabling of a 4-NIC rack
        # The fault mix itself is untouched: same weather, new armour.
        base = generate_chaos_plan(3, 4).describe()
        stripped = "\n".join(
            line for line in plan.describe().splitlines()
            if "wire_linklayer" not in line and "fault plan" not in line
        )
        assert stripped == "\n".join(base.splitlines()[1:])

    def test_goodput_floor_breach_is_surfaced_not_passed_over(self):
        # An impossible floor (1.01) must flag every gated case
        # without flipping the invariant verdict.
        report = run_chaos([0], frames=10, check_replay=False,
                           configs=("gbn+ll",),
                           goodput_floor={"gbn+ll": 1.01})
        assert report["passed"]  # invariants are independent of floors
        assert not report["floor_ok"]
        assert report["floor_failures"][0]["config"] == "gbn+ll"
        # And a config absent from the mapping is ungated.
        report = run_chaos([0], frames=10, check_replay=False,
                           configs=("gbn",),
                           goodput_floor={"gbn+ll": 1.01})
        assert report["floor_ok"]


def _result(reports):
    return SimpleNamespace(reports=reports, wire_stats={})


def _nic_report(deliveries=(), tx_flows=None, failures=()):
    return {
        "deliveries": list(deliveries),
        "tx_flows": tx_flows or {},
        "failures": list(failures),
    }


class TestCheckerTeeth:
    """A checker that can't fail is worse than none: feed ``_check_case``
    hand-built violating runs and make sure each invariant bites."""

    def test_clean_run_passes(self):
        mono = _result({
            "nic0": _nic_report(deliveries=[(1, 0, 100, 0)]),
            "nic1": _nic_report(tx_flows={
                0: {"sent": 1, "acked": 1, "failed": 0, "aborted": 0},
            }),
        })
        assert _check_case(mono, None, None) == []

    def test_duplicate_delivery_flagged(self):
        mono = _result({
            "nic0": _nic_report(
                deliveries=[(1, 0, 100, 0), (1, 0, 200, 0)]),
        })
        assert any("duplicate delivery" in v
                   for v in _check_case(mono, None, None))

    def test_committed_loss_flagged(self):
        # nic1 believes seqs 0 and 1 were acked; the receiver only ever
        # saw seq 0 -- an ACK was forged somewhere.
        mono = _result({
            "nic0": _nic_report(deliveries=[(1, 0, 100, 0)]),
            "nic1": _nic_report(tx_flows={
                0: {"sent": 2, "acked": 2, "failed": 0, "aborted": 0},
            }),
        })
        assert any("committed loss" in v
                   for v in _check_case(mono, None, None))

    def test_accounting_leak_flagged(self):
        mono = _result({
            "nic0": _nic_report(),
            "nic1": _nic_report(tx_flows={
                0: {"sent": 3, "acked": 1, "failed": 1, "aborted": 1},
            }, failures=[(0, 1, 999, 9)]),
        })
        assert any("accounting leak" in v
                   for v in _check_case(mono, None, None))

    def test_unacked_without_abort_flagged(self):
        mono = _result({
            "nic0": _nic_report(),
            "nic1": _nic_report(tx_flows={
                0: {"sent": 2, "acked": 1, "failed": 1, "aborted": 0},
            }),
        })
        assert any("DeliveryFailed" in v
                   for v in _check_case(mono, None, None))

    def test_mono_shard_divergence_flagged(self):
        mono = _result({"nic0": _nic_report(deliveries=[(1, 0, 100, 0)])})
        shard = _result({"nic0": _nic_report(deliveries=[(1, 0, 101, 0)])})
        violations = _check_case(mono, shard, None)
        assert any("mono != sharded" in v and "nic0" in v
                   for v in violations)

    def test_replay_divergence_flagged(self):
        mono = _result({"nic0": _nic_report()})
        replay = _result({"nic0": _nic_report(deliveries=[(1, 0, 1, 0)])})
        assert any("replay" in v for v in _check_case(mono, None, replay))


def _lb_result(stats=None, backends=None, clients=None):
    """A hand-built lb-rack run: nic0 the balancer, nic1..nic2 backends,
    higher indices clients."""
    clean = {"steered": 0, "inserts": 0, "hits": 0,
             "evictions": 0, "bypass": 0}
    reports = {"nic0": {"steering": {"stats": {**clean, **(stats or {})}}}}
    for b, deliveries in (backends or {1: (), 2: ()}).items():
        reports[f"nic{b}"] = _nic_report(deliveries=deliveries)
    for c, kwargs in (clients or {}).items():
        reports[f"nic{c}"] = _nic_report(**kwargs)
    return _result(reports)


class TestLbCheckerTeeth:
    """Same bar for the lb config's checker: every invariant the chaos
    ``lb`` cases gate on must bite on a hand-built violating run."""

    def test_clean_run_passes(self):
        mono = _lb_result(
            stats={"steered": 2, "inserts": 1, "hits": 1},
            backends={1: [(3, 0, 100, 0), (3, 1, 110, 0)], 2: ()},
            clients={3: {"tx_flows": {
                0: {"sent": 2, "acked": 2, "failed": 0, "aborted": 0},
            }}},
        )
        assert _check_lb_case(mono, None, None, 2) == []

    def test_affinity_bypass_flagged(self):
        mono = _lb_result(stats={"bypass": 3})
        assert any("affinity violation" in v and "ring-only" in v
                   for v in _check_lb_case(mono, None, None, 2))

    def test_affinity_eviction_flagged(self):
        mono = _lb_result(stats={"evictions": 1})
        assert any("affinity violation" in v and "evicted" in v
                   for v in _check_lb_case(mono, None, None, 2))

    def test_flow_split_across_backends_flagged(self):
        # Client 3's sequence numbers land on both backends: the flow
        # changed backend mid-connection.
        mono = _lb_result(
            backends={1: [(3, 0, 100, 0)], 2: [(3, 1, 110, 0)]},
            clients={3: {"tx_flows": {
                0: {"sent": 2, "acked": 2, "failed": 0, "aborted": 0},
            }}},
        )
        violations = _check_lb_case(mono, None, None, 2)
        assert any("affinity violation" in v and "backends [1, 2]" in v
                   for v in violations)

    def test_committed_loss_checked_against_backend_union(self):
        # The client saw an ACK for seq 0 but no backend host ever
        # received it -- committed loss, whatever epoch was live.
        mono = _lb_result(clients={3: {"tx_flows": {
            0: {"sent": 1, "acked": 1, "failed": 0, "aborted": 0},
        }}})
        assert any("committed loss" in v
                   for v in _check_lb_case(mono, None, None, 2))

    def test_duplicate_to_backend_host_flagged(self):
        mono = _lb_result(backends={1: [(3, 0, 100, 0), (3, 0, 200, 0)],
                                    2: ()})
        assert any("duplicate delivery" in v
                   for v in _check_lb_case(mono, None, None, 2))

    def test_mode_divergence_flagged(self):
        mono = _lb_result()
        shard = _lb_result(stats={"steered": 9})
        assert any("mono != sharded" in v
                   for v in _check_lb_case(mono, shard, None, 2))
