"""Seeded chaos testing for the reliable rack.

One chaos **case** is fully determined by an integer seed: the seed
generates a random :class:`~repro.faults.plan.FaultPlan` (lossy wires,
corruption, flaps, engine slowdowns and crashes), the reliable rack
incast runs under it monolithically and sharded, and the results are
held to the invariants reliable delivery promises *whatever the faults
did*:

1. **No committed frame lost** -- every sequence number a sender counts
   as cumulatively acknowledged was in fact delivered to the receiving
   host.
2. **No duplicate to the host** -- each receiver saw every ``(src,
   seq)`` at most once.
3. **Accounting closes** -- per flow, ``sent == acked + failed``, and
   unfinished business only exists on flows that surfaced a
   ``DeliveryFailed``.
4. **mono == sharded** -- per-NIC reports and per-direction wire stats
   are bit-identical between execution modes.
5. **Replay determinism** -- regenerating the plan from the seed and
   rerunning reproduces the run bit-for-bit.

Goodput retained (delivered frames over offered frames) is reported per
case; it is a *measurement*, not an invariant -- a chaos plan that cuts
a wire forever legitimately sinks goodput, while the invariants above
must survive anything.

A case runs under one **config** -- ``"gbn"`` (go-back-N), ``"sr"``
(selective repeat with SACK + adaptive RTO), ``"gbn+ll"``/``"sr+ll"``
(either transport with LinkGuardian-style link-local repair armed on
every wire), or ``"lb"`` (the load-balanced rack: clients drive one
reliable flow each at a VIP while seeded weather drains and crashes
backends underneath them) -- and :func:`run_chaos` runs each seed under
every requested config, so one batch yields the recovery-strategy
comparison (retransmit counts, goodput, flow completion times) the
experiment log tracks.

The ``lb`` config swaps the incast for :func:`lb_rack_topology` and adds
two invariants of its own, gated bit-identically mono vs. sharded at any
worker count, conservative and speculative:

6. **No affinity violation** -- an established flow never changes
   backend mid-connection.  Checked two ways: the data plane's own
   evidence (``lb_stats``: zero live-collision bypasses and zero
   evictions means every steered packet after the first was a register
   hit on its pinned backend), and the delivery record (no client's
   sequence numbers ever reached more than one backend host).
7. **Zero committed loss during migration** -- the committed-loss check
   above, but against the *union* of backend delivery sets: whatever
   epoch churn the drain/fail verbs caused mid-flight, every
   cumulatively-acknowledged sequence number landed on some backend.

Goodput floors are per-config: ``goodput_floor`` is a mapping
``{config: floor}`` (default :data:`GOODPUT_FLOORS`) and each config is
gated against its own entry; a config absent from it is ungated.  Floor
breaches land in ``floor_failures`` without flipping ``passed`` --
invariants and floors fail independently.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.faults.plan import FaultPlan
from repro.faults.rack import wire_target
from repro.lb.rack import lb_layout, lb_rack_topology
from repro.reliability.rack import reliable_rack_topology
from repro.sim.clock import US
from repro.sim.rng import SeededRng

#: Configs a chaos case can run under (four transport flavours plus the
#: load-balanced rack).
TRANSPORT_CONFIGS = ("gbn", "sr", "gbn+ll", "sr+ll", "lb")

#: Per-seed goodput floors, by config; ``gbn`` and ``sr`` are ungated
#: (a plan that cuts a wire for good legitimately sinks their goodput).
GOODPUT_FLOORS: Mapping[str, float] = {
    # Sub-RTT wire repair on every cable plus checksum-lane failover on
    # every NIC: the chaos mix (1-3% wire loss, corruption, flaps,
    # engine slowdowns and crashes) must not sink any seed below this.
    # The unhardened rack bottomed at 0.822 over 15 seeds (EXPERIMENTS
    # E12); the hardened one holds 1.0 on the same seeds (E13).
    "gbn+ll": 0.95,
    # Link repair hides the loss before SACK ever sees it, so selective
    # repeat behind armed wires carries the go-back-N bar.
    "sr+ll": 0.95,
    # Backends crash dark on purpose (BACKEND_DOWN_P) and their pinned
    # flows abort after bounded retries: correct, and gated by the
    # committed-loss and affinity invariants.  This floor only catches
    # collapse.  Worst observed: 0.667 over 15 seeds at frames=20,
    # 0.556 at frames=30, 0.500 at frames=40, where seed 1 crashes the
    # backend serving half the offered frames (E17).
    "lb": 0.45,
}


def split_config(config: str):
    """``"gbn+ll"`` -> ``("gbn", True)``; validates the vocabulary.
    ``"lb"`` is a rack choice, not a transport: ``("lb", False)``."""
    if config == "lb":
        return "lb", False
    transport, _sep, suffix = config.partition("+")
    if transport not in ("gbn", "sr") or _sep and suffix != "ll":
        raise ValueError(
            f"unknown transport config {config!r}; have {TRANSPORT_CONFIGS}")
    return transport, bool(_sep)

#: Engines a chaos plan may wound: present on every rack NIC and on the
#: data path, so faults bite without invalidating the plan.
CHAOS_ENGINES = ("checksum", "rmt")

#: Fault-mix probabilities and ranges (drawn per case from its seed).
LOSS_WIRE_P = 0.6          # chance each wire gets a Bernoulli loss model
DROP_RANGE = (0.005, 0.03)
CORRUPT_P = 0.3            # chance a lossy wire also corrupts
CORRUPT_RANGE = (0.002, 0.01)
FLAP_P = 0.4               # chance of one link-down interval
SLOW_P = 0.4               # chance one engine is slowed (then recovered)
CRASH_P = 0.15             # chance one engine is crashed outright
#: Bound on fault timing: roughly the active traffic window of the incast.
HORIZON_PS = 100 * US


def _all_wires(nics: int):
    return [(i, j) for i in range(nics) for j in range(i + 1, nics)]


def _seed_wire_loss(plan: FaultPlan, rng, wires) -> None:
    """Each wire may get a Bernoulli loss (and corruption) model."""
    for i, j in wires:
        if rng.random() < LOSS_WIRE_P:
            drop_p = rng.uniform(*DROP_RANGE)
            corrupt_p = (rng.uniform(*CORRUPT_RANGE)
                         if rng.random() < CORRUPT_P else 0.0)
            plan.wire_loss(rng.randint(0, HORIZON_PS // 4),
                           wire_target(i, j),
                           drop_p=drop_p, corrupt_p=corrupt_p)


def _seed_slowdown(plan: FaultPlan, rng, nics: int) -> None:
    """One engine somewhere may be slowed, then recovered."""
    if rng.random() < SLOW_P:
        nic = rng.randint(0, nics - 1)
        engine = rng.choice(CHAOS_ENGINES)
        at = rng.randint(0, HORIZON_PS // 2)
        plan.slow_engine(at, f"nic{nic}:{engine}",
                         factor=rng.uniform(2.0, 6.0))
        plan.recover_engine(at + rng.randint(10 * US, HORIZON_PS // 2),
                            f"nic{nic}:{engine}")


def generate_chaos_plan(seed: int, nics: int,
                        link_local: bool = False) -> FaultPlan:
    """A random-but-reproducible fault mix for an ``nics``-NIC rack.

    Every stochastic choice comes from forks of ``seed``, so equal seeds
    build equal plans (the replay-determinism invariant leans on this).
    Faults fall inside ``HORIZON_PS``.  With ``link_local`` every wire
    additionally arms sub-RTT repair from t=0 (the fault mix itself is
    unchanged, so a ``gbn`` vs ``gbn+ll`` pair of cases faces identical
    weather).
    """
    plan = FaultPlan(seed=seed)
    wires = _all_wires(nics)
    if link_local:
        for i, j in wires:
            plan.link_local(0, wire_target(i, j))
    rng = SeededRng(seed).fork("chaosplan")
    _seed_wire_loss(plan, rng, wires)
    if rng.random() < FLAP_P:
        i, j = rng.choice(wires)
        down = rng.randint(HORIZON_PS // 10, HORIZON_PS // 2)
        plan.flap_wire(down, down + rng.randint(10 * US, HORIZON_PS // 2),
                       wire_target(i, j))
    _seed_slowdown(plan, rng, nics)
    if rng.random() < CRASH_P:
        # Crash the checksum lane of one *sender* (never the shared
        # incast receiver nic0): its flows abort with DeliveryFailed
        # while the rest of the rack keeps its goodput.
        nic = rng.randint(1, nics - 1)
        plan.crash_engine(rng.randint(0, HORIZON_PS),
                          f"nic{nic}:checksum")
    return plan


# ----------------------------------------------------------------------
# The lb config: seeded weather for the load-balanced rack
# ----------------------------------------------------------------------

#: Rack shape the ``lb`` chaos config runs with: one LB, three
#: backends, three clients.  Independent of the incast's ``nics`` knob
#: (a 4-NIC incast batch can still include ``lb`` cases).
LB_NICS = 7
LB_BACKENDS = 3

#: Chance the seed crashes one backend NIC dark mid-run (both MACs off;
#: the health monitor must detect it and fail the backend out).
BACKEND_DOWN_P = 0.35

#: Chance the seed schedules a planned live drain of one backend.
DRAIN_P = 0.6


def lb_drain_params(seed: int, n_backends: int = LB_BACKENDS):
    """``(backend, at_ps)`` for the seed's planned drain, or None.

    Drawn from its own fork of the seed so the drain schedule -- which
    lives in the *topology* (a control-plane verb on the LB node), not
    the fault plan -- replays identically alongside the plan."""
    rng = SeededRng(seed).fork("lbdrain")
    if rng.random() >= DRAIN_P:
        return None
    backend = rng.randint(1, n_backends)
    return backend, rng.randint(HORIZON_PS // 8, HORIZON_PS // 2)


def generate_lb_chaos_plan(seed: int, nics: int,
                           n_backends: int = LB_BACKENDS) -> FaultPlan:
    """Seeded weather for the load-balanced rack.

    The same wire-loss and engine-slowdown mix as the incast plan, plus
    the failure this config exists for: one backend NIC may go *dark*
    (``nic_down`` -- MACs off in both directions, engines still
    running), which the LB's heartbeat monitor must detect and fail out
    of the ring.  At most one backend crashes and at most one drains
    per case, so with three backends the VIP always keeps a live one.
    """
    plan = FaultPlan(seed=seed)
    rng = SeededRng(seed).fork("lbchaos")
    _seed_wire_loss(plan, rng, _all_wires(nics))
    _seed_slowdown(plan, rng, nics)
    if rng.random() < BACKEND_DOWN_P:
        backend = rng.randint(1, n_backends)
        plan.nic_down(rng.randint(HORIZON_PS // 4, (3 * HORIZON_PS) // 5),
                      f"nic{backend}")
    return plan


def _check_modes(mono, shard, replay) -> List[str]:
    """Execution-mode invariants shared by every config: sharded and
    replayed runs must be bit-identical to the monolithic one."""
    violations: List[str] = []
    if shard is not None:
        if mono.reports != shard.reports:
            diverged = sorted(
                n for n in mono.reports
                if mono.reports[n] != shard.reports.get(n)
            )
            violations.append(f"mono != sharded reports (nics {diverged})")
        if mono.wire_stats != shard.wire_stats:
            violations.append("mono != sharded wire stats")
    if replay is not None and (mono.reports != replay.reports
                               or mono.wire_stats != replay.wire_stats):
        violations.append("replay from seed diverged")
    return violations


def _delivered_pairs(name: str, report: dict,
                     violations: List[str]) -> set:
    """Receiver-side view of one NIC: its delivered ``(src, seq)``
    pairs, flagging any pair the host saw twice."""
    pairs = [(src, seq) for src, seq, _t, _q in report["deliveries"]]
    if len(pairs) != len(set(pairs)):
        violations.append(f"duplicate delivery to host on {name}")
    return set(pairs)


def _check_senders(reports: Dict[str, dict], delivered_to, peer, sink: str,
                   violations: List[str]) -> None:
    """Sender-side view vs receiver truth, for every flow of every NIC:
    ``delivered_to(dst)`` is the set of ``(src, seq)`` pairs that
    reached flow destination ``dst`` (named ``peer(dst)`` in messages,
    its receiving end described by ``sink``)."""
    for name, report in reports.items():
        src = int(name[3:])
        aborted_flows = {f[0] for f in report.get("failures", ())}
        for dst, flow in report.get("tx_flows", {}).items():
            where = f"{name}->{peer(dst)}"
            missing = [seq for seq in range(flow["acked"])
                       if (src, seq) not in delivered_to(dst)]
            if missing:
                violations.append(
                    f"committed loss {where}: acked seqs "
                    f"{missing[:5]} never reached {sink}"
                )
            if flow["sent"] != flow["acked"] + flow["failed"]:
                violations.append(
                    f"accounting leak {where}: "
                    f"sent={flow['sent']} acked={flow['acked']} "
                    f"failed={flow['failed']}"
                )
            if flow["failed"] and not flow["aborted"]:
                violations.append(
                    f"unacked data without DeliveryFailed {where}"
                )
            if flow["aborted"] and dst not in aborted_flows:
                violations.append(
                    f"aborted flow {where} missing its "
                    f"DeliveryFailed record"
                )


def _check_case(mono, shard, replay) -> List[str]:
    """All invariant violations of one chaos case (empty = pass)."""
    violations = _check_modes(mono, shard, replay)
    delivered = {
        int(name[3:]): _delivered_pairs(name, report, violations)
        for name, report in mono.reports.items()
    }
    _check_senders(mono.reports,
                   lambda dst: delivered.get(dst, ()),
                   lambda dst: f"nic{dst}", "the host", violations)
    return violations


def _check_lb_case(mono, shard, replay, n_backends: int) -> List[str]:
    """Invariant violations of one ``lb`` chaos case (empty = pass).

    On top of the mode checks, the two invariants this config gates:
    *no affinity violation* (a flow never changes backend
    mid-connection, witnessed both by the LB's own ``lb_stats``
    evidence and by no client's sequence numbers landing on two
    backends) and *zero committed loss during migration* (the
    committed-loss check run against the union of backend delivery
    sets, so epoch churn mid-flight cannot hide a forged ACK).
    """
    violations = _check_modes(mono, shard, replay)
    # Backend-side truth: which (client, seq) pairs each backend's host
    # actually received.
    delivered_by = {
        b: _delivered_pairs(f"nic{b}", mono.reports[f"nic{b}"], violations)
        for b in range(1, n_backends + 1)
    }
    union = set().union(*delivered_by.values())

    # Data-plane evidence from the balancer itself: with zero bypasses
    # and zero evictions, every steered packet after a flow's first was
    # a register hit on its pinned backend -- pinning is structural.
    lb_stats = mono.reports["nic0"]["steering"]["stats"]
    if lb_stats["bypass"]:
        violations.append(
            f"affinity violation: {lb_stats['bypass']} packets steered "
            f"ring-only past a live affinity-slot collision"
        )
    if lb_stats["evictions"]:
        violations.append(
            f"affinity violation: {lb_stats['evictions']} affinity "
            f"slots evicted while flows were live"
        )
    for name in mono.reports:
        src = int(name[3:])
        servers = sorted(b for b, pairs in delivered_by.items()
                         if any(s == src for s, _seq in pairs))
        if len(servers) > 1:
            violations.append(
                f"affinity violation: flow from {name} delivered by "
                f"backends {servers}"
            )
    _check_senders(mono.reports, lambda _dst: union, lambda _dst: "vip",
                   "any backend host", violations)
    return violations


def run_triad(topology, plan, *, workers: int, speculative: bool = False,
              replay: bool = True):
    """Run one rack the three ways every gate compares: monolithic
    (the reference), sharded over ``workers`` (None when 0), and a
    monolithic re-run (None unless ``replay``).  ``topology`` and
    ``plan`` are zero-argument factories, called afresh per leg so no
    leg can inherit another's state."""
    from repro.sim.shard import run_monolithic, run_sharded

    mono = run_monolithic(topology(), fault_plan=plan())
    shard = (run_sharded(topology(), workers=workers, fault_plan=plan(),
                         speculative=speculative)
             if workers else None)
    again = (run_monolithic(topology(), fault_plan=plan())
             if replay else None)
    return mono, shard, again


#: Invariant -> the violation-message fragments that falsify it.
INVARIANTS = {
    "no_committed_loss": ("committed loss",),
    "no_affinity_violation": ("affinity violation",),
    "no_duplicates": ("duplicate delivery",),
    "accounting": ("accounting", "DeliveryFailed"),
    "mono_eq_sharded": ("mono != sharded",),
    "replay_deterministic": ("replay",),
}
_LL_KEYS = ("protected", "nacks", "retransmits", "repaired", "gave_up",
            "bypassed")


def summarize_case(mono, violations: List[str], *,
                   affinity: bool = False) -> dict:
    """The measured half of a case report: invariant verdicts, rack-wide
    delivery and recovery counts, FCTs, and which wires hurt.
    ``affinity`` includes the lb-only ``no_affinity_violation``."""
    reports = mono.reports.values()
    rel = [r["stats"].get("reliability", {}) for r in reports]
    sent = sum(r.get("sent", 0) for r in reports)
    delivered = sum(len(r.get("deliveries", ())) for r in reports)
    fcts = [t for r in reports for t in r.get("fct", {}).values()]
    return {
        "invariants": {
            name: not any(mark in v for v in violations for mark in marks)
            for name, marks in INVARIANTS.items()
            if affinity or name != "no_affinity_violation"
        },
        "violations": violations,
        "passed": not violations,
        "sent": sent,
        "delivered": delivered,
        "goodput": delivered / sent if sent else 1.0,
        "retransmits": sum(r.get("retransmits", 0) for r in rel),
        "rto_fired": sum(r.get("rto_fired", 0) for r in rel),
        "delivery_failures": sum(len(r.get("failures", ()))
                                 for r in reports),
        "fct_mean_ps": int(sum(fcts) / len(fcts)) if fcts else 0,
        "fct_max_ps": max(fcts) if fcts else 0,
        # Zeros on racks that never arm link-local repair keep the
        # per-config summary shape uniform.
        "linklayer": {
            key: sum(stats.get("linklayer", {}).get(key, 0)
                     for stats in mono.wire_stats.values())
            for key in _LL_KEYS
        },
        "wire_faults": {
            label: stats
            for label, stats in sorted(mono.wire_stats.items())
            if stats["loss_drops"] or stats["corruptions"]
            or stats["down_drops"]
        },
    }


def chaos_case(seed: int, config: str, *, nics: int = 4,
               pattern: str = "fanin", frames: int = 30,
               lb_nics: int = LB_NICS, telemetry=None):
    """``(topology, plan)`` factories of one seeded case under ``config``
    (the ``lb`` config builds its own ``lb_nics``-node rack, where
    ``nics``/``pattern`` do not apply); ``telemetry`` arms every node."""
    transport, link_local = split_config(config)
    if config == "lb":
        lb_layout(lb_nics, LB_BACKENDS)  # fail fast: no clients
        drain = lb_drain_params(seed, LB_BACKENDS)

        def topology():
            return lb_rack_topology(
                nics=lb_nics, n_backends=LB_BACKENDS, frames=frames,
                seed=seed, drain=drain, telemetry=telemetry,
            )

        def plan():
            return generate_lb_chaos_plan(seed, lb_nics, LB_BACKENDS)
    else:
        def topology():
            return reliable_rack_topology(
                nics=nics, pattern=pattern, frames=frames, seed=seed,
                transport=transport, failover=True, telemetry=telemetry,
            )

        def plan():
            return generate_chaos_plan(seed, nics, link_local=link_local)

    return topology, plan


def run_chaos_case(
    seed: int,
    *,
    nics: int = 4,
    pattern: str = "fanin",
    frames: int = 30,
    workers: int = 2,
    check_replay: bool = True,
    config: str = "gbn",
    speculative: bool = False,
    lb_nics: int = LB_NICS,
) -> dict:
    """Run one seeded chaos case end to end; returns a picklable report.

    ``config`` picks the recovery strategy (see
    :data:`TRANSPORT_CONFIGS`); the fault mix depends only on the seed,
    so cases differing only in ``config`` are directly comparable.
    Every incast NIC carries the spare checksum lane + health monitor.
    ``speculative`` runs the sharded leg with speculative shard windows
    -- the mono-vs-sharded invariant must hold either way.  The ``lb``
    config (its rack: :func:`chaos_case`) adds an ``lb`` block (drain,
    epochs, affinity counters, monitor) to the report.

    ``invariants`` maps each invariant to a bool; ``violations`` lists
    the specifics when something broke.  ``goodput`` is delivered over
    offered across the rack.
    """
    topology, plan = chaos_case(seed, config, nics=nics, pattern=pattern,
                                frames=frames, lb_nics=lb_nics)
    mono, shard, replay = run_triad(
        topology, plan, workers=workers, speculative=speculative,
        replay=check_replay)
    violations = (_check_lb_case(mono, shard, replay, LB_BACKENDS)
                  if config == "lb" else _check_case(mono, shard, replay))
    described = plan()
    case = {
        "seed": seed,
        "config": config,
        "plan": described.describe(),
        "events": len(described),
        **summarize_case(mono, violations, affinity=config == "lb"),
    }
    if config == "lb":
        steering = mono.reports["nic0"]["steering"]
        drain = lb_drain_params(seed, LB_BACKENDS)
        case["lb"] = {
            "drain": list(drain) if drain else None,
            "epoch": steering["epoch"],
            "live_backends": steering["backends"],
            "draining": steering["draining"],
            "failed": steering["failed"],
            "gc_removed": steering["gc_removed"],
            "affinity": steering["stats"],
            "monitor": mono.reports["nic0"]["monitor"],
        }
    return case


def run_chaos(
    seeds,
    *,
    nics: int = 4,
    pattern: str = "fanin",
    frames: int = 30,
    workers: int = 2,
    check_replay: bool = True,
    progress: Optional[callable] = None,
    configs=("gbn",),
    goodput_floor: Mapping[str, float] = GOODPUT_FLOORS,
    speculative: bool = False,
    lb_nics: int = LB_NICS,
) -> dict:
    """Run a batch of chaos cases; the harness/CLI entry point.

    Each seed runs once per entry of ``configs`` (same fault weather,
    different recovery strategy); ``by_config`` summarises each
    strategy so the comparison reads off directly.  ``goodput_floor``
    maps ``{config: floor}``; configs absent from it are ungated.
    Floor breaches land in ``floor_failures`` without flipping
    ``passed`` (invariants and floors fail independently; ``python -m
    repro chaos`` exits nonzero on either).
    """
    for config in configs:
        split_config(config)  # fail fast on vocabulary typos
    cases = []
    for seed in seeds:
        for config in configs:
            case = run_chaos_case(
                seed, nics=nics, pattern=pattern, frames=frames,
                workers=workers, check_replay=check_replay,
                config=config, speculative=speculative, lb_nics=lb_nics,
            )
            cases.append(case)
            if progress is not None:
                progress(case)

    by_config = {}
    for config in configs:
        rows = [c for c in cases if c["config"] == config]
        goodputs = [c["goodput"] for c in rows]
        fcts = [c["fct_mean_ps"] for c in rows if c["fct_mean_ps"]]
        by_config[config] = {
            "passed": all(c["passed"] for c in rows),
            "goodput_min": min(goodputs) if goodputs else 1.0,
            "goodput_mean": (sum(goodputs) / len(goodputs)
                             if goodputs else 1.0),
            "retransmits": sum(c["retransmits"] for c in rows),
            "rto_fired": sum(c["rto_fired"] for c in rows),
            "delivery_failures": sum(c["delivery_failures"] for c in rows),
            "fct_mean_ps": int(sum(fcts) / len(fcts)) if fcts else 0,
            "ll_repaired": sum(c["linklayer"]["repaired"] for c in rows),
            "ll_gave_up": sum(c["linklayer"]["gave_up"] for c in rows),
        }

    floor_failures = [
        {"seed": c["seed"], "config": c["config"],
         "goodput": c["goodput"], "floor": goodput_floor[c["config"]]}
        for c in cases
        if c["goodput"] < goodput_floor.get(c["config"], 0.0)
    ]

    goodputs = [case["goodput"] for case in cases]
    return {
        "params": {
            "nics": nics, "pattern": pattern, "frames": frames,
            "workers": workers, "seeds": list(seeds),
            "configs": list(configs),
            "goodput_floor": dict(goodput_floor),
            "speculative": speculative, "lb_nics": lb_nics,
        },
        "cases": cases,
        "by_config": by_config,
        "passed": all(case["passed"] for case in cases),
        "failed_seeds": sorted({c["seed"] for c in cases if not c["passed"]}),
        "floor_failures": floor_failures,
        "floor_ok": not floor_failures,
        "goodput_min": min(goodputs) if goodputs else 1.0,
        "goodput_mean": (sum(goodputs) / len(goodputs)) if goodputs else 1.0,
    }


def write_chaos_trace(
    path: str,
    seed: int,
    *,
    nics: int = 4,
    pattern: str = "fanin",
    frames: int = 30,
    workers: int = 2,
    config: str = "gbn",
) -> int:
    """Re-run one chaos case sharded with telemetry enabled and write
    the coordinator-merged Perfetto trace to ``path``; returns the
    trace-event count.

    The gated invariant runs stay telemetry-free on purpose (the gate
    measures the product, not the instrumentation); this separate
    observability pass regenerates the *same* seeded fault weather, so
    the trace shows exactly what the gated run survived: per-packet
    spans across every NIC plus the shard-coordinator window-churn
    counter track (:func:`repro.telemetry.export.shard_window_counters`).
    """
    from repro.sim.shard import run_sharded
    from repro.telemetry import TelemetryConfig
    from repro.telemetry.export import (
        shard_window_counters,
        write_chrome_trace,
    )

    topology, plan = chaos_case(seed, config, nics=nics, pattern=pattern,
                                frames=frames, telemetry=TelemetryConfig())
    result = run_sharded(topology(), workers=workers, fault_plan=plan())
    return write_chrome_trace(
        path, result.trace or {},
        extra_events=shard_window_counters(result))
