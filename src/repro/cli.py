"""Command-line interface: regenerate the paper's tables from a shell.

Usage::

    python -m repro table1      # offload taxonomy
    python -m repro table2      # line-rate PPS model
    python -m repro table3      # mesh bisection BW / chain length
    python -m repro demo        # the quickstart KV GET, end to end
    python -m repro faults      # crash-and-failover fault-tolerance demo
    python -m repro rack        # sharded rack-scale run vs monolithic
    python -m repro trace       # per-packet telemetry -> trace.json + timeline
    python -m repro chaos       # seeded chaos: lossy rack + invariant gate
    python -m repro lb          # RMT-resident L4 LB: live drain/failover
    python -m repro int-report  # in-band telemetry rack flight record
    python -m repro bench-report  # BENCH_*.json vs floor.json summary
    python -m repro all         # everything above (except rack/trace/chaos)

The heavier experiments (HOL blocking, isolation, ablations) live in
``benchmarks/`` where pytest-benchmark records their runtimes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import format_table, table2_rows
from repro.engines import coverage, table1_rows
from repro.noc import table3_rows
from repro.noc.analysis import TABLE3_PAPER


def cmd_table1() -> None:
    print(format_table(
        ["Project", "Offload Type"],
        table1_rows(),
        title="Table 1: offload types used by prior work",
    ))
    print()
    print(format_table(
        ["Engine", "Offload Type"],
        coverage(),
        title="Engine coverage of the taxonomy (this library)",
    ))


def cmd_table2() -> None:
    rows = [
        [f"{r.line_rate_gbps}Gbps", r.ports,
         f"{r.pps_mpps:.1f}Mpps", f"{r.paper_mpps}Mpps"]
        for r in table2_rows()
    ]
    print(format_table(
        ["Line-rate", "# Eth Ports", "PPS (model)", "PPS (paper)"],
        rows,
        title="Table 2: PPS for line-rate forwarding of minimal packets",
    ))


def cmd_table3() -> None:
    rows = []
    for r, (paper_bw, paper_chain) in zip(table3_rows(), TABLE3_PAPER):
        rows.append([
            f"{r.line_rate_gbps}Gbps x{r.ports}", f"{r.freq_mhz}MHz",
            r.channel_bits, r.topo,
            f"{r.bisection_gbps:.0f} / {paper_bw:.0f}",
            f"{r.chain_length:.2f} / {paper_chain:.2f}",
        ])
    print(format_table(
        ["Line-rate", "Freq", "Bits", "Topo",
         "Bisec Gbps (model/paper)", "Chain Len (model/paper)"],
        rows,
        title="Table 3: on-NIC topology throughput and chain length",
    ))


def cmd_demo() -> None:
    from repro import PanicConfig, PanicNic, Simulator
    from repro.packet import (
        KvOpcode,
        KvRequest,
        build_kv_request_frame,
        parse_frame,
    )
    from repro.sim.clock import format_time

    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1))
    nic.control.enable_kv_cache()
    nic.offload("kvcache").cache_put(b"hot", b"served-on-nic")
    request = build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 1, b"hot"))
    nic.inject(request)
    sim.run()
    response = parse_frame(nic.transmitted[0].data).kv_response()
    print("response value :", response.value.decode())
    print("request path   :", " -> ".join(request.trail))
    print("finished at    :", format_time(sim.now))
    print("host CPU ran   :", nic.host.interrupts_taken.value, "times")


def cmd_faults() -> None:
    """A compressed fault-tolerance demo: crash one IPSec lane mid-run
    and show the watchdog re-steering traffic onto its backup."""
    from repro import PanicConfig, PanicNic, Simulator
    from repro.faults import FaultInjector, FaultPlan, attach_health_monitor
    from repro.packet import build_udp_frame
    from repro.packet.packet import MessageKind, Packet
    from repro.sim.clock import NS, US, format_time

    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("ipsec", "ipsec1", "compression", "kvcache"),
    ))
    nic.set_backup("ipsec", "ipsec1")
    nic.control.route_dscp(10, ["ipsec"])
    monitor = attach_health_monitor(nic, period_ps=2 * US, timeout_ps=4 * US)
    monitor.start()
    plan = FaultPlan(seed=1).crash_engine(20 * US, "ipsec")
    FaultInjector(nic, plan).arm()
    print(plan.describe())

    def spray(i: int = 0) -> None:
        if i >= 200:
            return
        frame = build_udp_frame(
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1", dst_ip="10.0.0.2",
            src_port=1000 + i, dst_port=9, dscp=10,
            payload=bytes(64),
        )
        nic.inject(Packet(frame, MessageKind.ETHERNET))
        sim.schedule(300 * NS, spray, i + 1)

    spray()
    sim.run(until_ps=120 * US)
    monitor.stop()
    sim.run()
    stats = nic.stats()
    print("failure detected at :", {
        k: format_time(v) for k, v in monitor.failed_at.items()
    })
    print("primary processed   :", stats["ipsec"]["processed"])
    print("backup processed    :", stats["ipsec1"]["processed"])
    print("delivered to host   :", stats["host"]["rx_delivered"])
    print("fault counters      :", stats["faults"])
    nic.mesh.assert_drained()
    print("mesh drained        : yes (0 messages in flight)")


def cmd_rack(nics: int = 4, workers: int = 0, frames: int = 40,
             gap_ns: int = 2000, prop_ns: int = 500,
             pattern: str = "symmetric", speculative: bool = False,
             flow_id: str = "auto") -> None:
    """Run one rack topology both monolithically and sharded across
    worker processes, then print the equivalence verdict and speedup
    (DESIGN.md sections 10 and 15)."""
    from repro.sim.clock import NS
    from repro.sim.shard import run_monolithic, run_sharded
    from repro.workloads.rack import rack_topology, resolve_flow_id

    workers = workers or min(4, nics)
    topo = rack_topology(
        nics=nics, frames=frames, gap_ps=gap_ns * NS,
        propagation_ps=prop_ns * NS, pattern=pattern, flow_id=flow_id,
    )
    protocol = "speculative" if speculative else "conservative"
    print(f"rack: {nics} NICs, all-pairs {pattern}, {frames} frames/flow, "
          f"{prop_ns}ns wires, {resolve_flow_id(flow_id, nics)} flow ids, "
          f"{protocol} windows")
    mono = run_monolithic(topo)
    sharded = run_sharded(topo, workers=workers, speculative=speculative)
    rows = []
    for result in (mono, sharded):
        rate = result.events_fired / result.wall_seconds \
            if result.wall_seconds else 0.0
        rows.append([
            result.mode, result.workers, result.events_fired,
            f"{result.wall_seconds:.3f}s", f"{rate / 1e3:.0f}k ev/s",
            result.rounds or "-",
        ])
    print(format_table(
        ["Mode", "Workers", "Events", "Wall", "Rate", "Sync rounds"],
        rows,
        title=f"Monolithic vs sharded ({workers} workers, "
              f"lookahead {sharded.lookahead_ps / 1000:.0f}ns)",
    ))
    delivered = sum(
        len(report["deliveries"]) for report in mono.reports.values())
    identical = all(
        sharded.reports[name] == mono.reports[name] for name in mono.reports)
    speedup = mono.wall_seconds / sharded.wall_seconds \
        if sharded.wall_seconds else 0.0
    print("frames delivered      :", delivered)
    print("speedup               :", f"{speedup:.2f}x")
    if sharded.speculative:
        print("rollbacks             :", sharded.rollbacks)
        print("replayed events       :", sharded.replayed_events)
    print("bit-identical reports :", "yes" if identical else "NO (DIVERGENCE)")
    if not identical:
        raise SystemExit("sharded run diverged from the monolithic run")


def cmd_trace(frames: int = 32, sample_every: int = 1,
              timeline: int = 3, out: str = "trace.json") -> None:
    """Trace an offload-chain run: write a Perfetto-loadable trace.json
    and print the first few packets' timelines (DESIGN.md section 11)."""
    from repro import PanicConfig, PanicNic, Simulator
    from repro.packet import build_udp_frame
    from repro.packet.packet import MessageKind, Packet
    from repro.sim.clock import NS, US, format_time
    from repro.telemetry import TelemetryConfig
    from repro.telemetry.export import format_timeline, write_chrome_trace

    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1,
        offloads=("ipsec", "compression", "checksum"),
        telemetry=TelemetryConfig(
            sample_every=sample_every, probe_period_ps=1 * US,
        ),
    ))
    nic.control.route_dscp(1, ["ipsec", "compression", "checksum"])
    frame = build_udp_frame(
        src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
        src_ip="10.0.0.1", dst_ip="10.0.0.2",
        src_port=1000, dst_port=9, dscp=1, payload=bytes(256),
    )
    for i in range(frames):
        sim.schedule_at(
            i * 700 * NS, nic.inject, Packet(frame, MessageKind.ETHERNET))
    sim.run()
    tel = nic.telemetry
    events = write_chrome_trace(
        out, {nic.name: tel.tracer.sorted_spans()},
        {nic.name: tel.probes.series()},
    )
    summary = tel.summary()
    print(f"traced {summary['sampled']}/{summary['seen']} frames "
          f"({summary['spans']} spans, {summary['dropped_spans']} dropped) "
          f"through the {len(nic.engines)}-engine chain")
    print(f"finished at {format_time(sim.now)}; "
          f"delivered {nic.stats()['host']['rx_delivered']} to the host")
    print(f"wrote {events} trace events to {out} "
          "(load it at https://ui.perfetto.dev)")
    print()
    print(format_timeline(tel.tracer.sorted_spans(), limit=timeline))


def cmd_chaos(seeds: int = 5, first_seed: int = 0, nics: int = 4,
              workers: int = 2, frames: int = 30, pattern: str = "fanin",
              transport: str = "gbn", out: str = "",
              trace_out: str = "", speculative: bool = False,
              floor_file: str = "benchmarks/chaos/floor.json") -> None:
    """Break the rack on purpose: run seeded chaos cases on the reliable
    incast and gate on the delivery invariants (DESIGN.md section 12).

    ``transport`` picks the config: ``gbn`` (go-back-N), ``sr``
    (selective repeat + adaptive RTO), ``gbn+ll``/``sr+ll`` (either
    transport with link-local repair armed on every wire), or ``lb``
    (the load-balanced rack with live drains and backend crashes,
    DESIGN.md section 17).  Goodput floors are per config, read from
    ``floor_file`` (configs absent from its ``floors`` map are
    ungated).  Exits non-zero if any invariant -- or a floor -- is
    violated, the same gate the CI ``chaos-smoke`` job runs via
    ``benchmarks/chaos/run_chaos.py``.

    ``trace_out`` (``--trace-out``) additionally reruns the first seed
    with telemetry enabled -- same fault weather, the plan regenerates
    from the seed -- and writes the merged Perfetto trace there; the
    gated runs themselves stay untraced.
    """
    import json

    from repro.reliability.chaos import DEFAULT_GOODPUT_FLOOR, run_chaos

    try:
        with open(floor_file) as fh:
            floors = {config: float(floor)
                      for config, floor in json.load(fh)["floors"].items()}
    except (FileNotFoundError, KeyError, ValueError):
        floors = DEFAULT_GOODPUT_FLOOR
        print(f"note: no per-config floors at {floor_file}; gating "
              f"link-local configs at {floors:.2f}")

    def progress(case: dict) -> None:
        verdict = "pass" if case["passed"] else "FAIL"
        print(f"  seed {case['seed']:>3} [{case['config']:>6}]: {verdict}  "
              f"goodput={case['goodput']:.3f}  "
              f"faults={case['events']}  retx={case['retransmits']}  "
              f"ll_repair={case['linklayer']['repaired']}  "
              f"aborts={case['delivery_failures']}")

    seed_list = list(range(first_seed, first_seed + seeds))
    protocol = "speculative" if speculative else "conservative"
    print(f"chaos: {len(seed_list)} seeds on a {nics}-NIC {pattern} rack, "
          f"{frames} frames/flow, config {transport}, "
          f"mono + {workers}-worker sharded ({protocol})")
    report = run_chaos(seed_list, nics=nics, pattern=pattern, frames=frames,
                       workers=workers, progress=progress,
                       configs=(transport,), goodput_floor=floors,
                       speculative=speculative)
    print(f"goodput min/mean      : {report['goodput_min']:.3f} / "
          f"{report['goodput_mean']:.3f}")
    print("invariants            :",
          "all hold" if report["passed"]
          else f"VIOLATED on seeds {report['failed_seeds']}")
    gate = (floors.get(transport) if isinstance(floors, dict)
            else (floors if "+" in transport else None))
    if gate is not None:
        print("goodput floor         :",
              f"{gate:.2f} "
              + ("held" if report["floor_ok"] else "BREACHED"))
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote report to {out}")
    if trace_out:
        from repro.reliability.chaos import write_chaos_trace
        count = write_chaos_trace(
            trace_out, seed_list[0], nics=nics, pattern=pattern,
            frames=frames, workers=workers, config=transport)
        print(f"wrote {count} trace events from seed {seed_list[0]} "
              f"[{transport}] to {trace_out} "
              "(load it at https://ui.perfetto.dev)")
    if not report["passed"]:
        for case in report["cases"]:
            for violation in case["violations"]:
                print(f"  seed {case['seed']}: {violation}")
        raise SystemExit("chaos invariants violated")
    if not report["floor_ok"]:
        for breach in report["floor_failures"]:
            print(f"  seed {breach['seed']} [{breach['config']}]: "
                  f"goodput {breach['goodput']:.3f} below floor "
                  f"{breach['floor']:.2f}")
        raise SystemExit("chaos goodput floor breached")


def cmd_lb(nics: int = 7, backends: int = 3, frames: int = 30,
           workers: int = 2, speculative: bool = False,
           drain: str = "2@25", crash: str = "", out: str = "") -> None:
    """Serve a VIP from the RMT pipeline and migrate it live.

    Builds the load-balanced rack (LB at index 0, ``backends`` backends,
    the rest clients; DESIGN.md section 17), then exercises the two
    control-plane verbs mid-traffic: ``drain`` (``"B@US"``: planned
    make-before-break removal of backend B at that many microseconds --
    pinned flows complete, new flows re-hash) and ``crash`` (``"B@US"``:
    the backend's NIC goes dark and the heartbeat monitor must fail it
    out).  Runs monolithically and, with ``workers``, sharded too; gates
    the affinity and zero-committed-loss invariants and exits non-zero
    on any violation.
    """
    import json

    from repro.faults.plan import FaultPlan
    from repro.lb.rack import lb_rack_topology
    from repro.reliability.chaos import (
        _check_lb_case,
        run_triad,
        summarize_case,
    )
    from repro.sim.clock import US, format_time

    def parse_at(text: str, what: str):
        try:
            backend, at_us = text.split("@", 1)
            return int(backend), int(float(at_us) * US)
        except ValueError:
            raise SystemExit(f"--{what} wants BACKEND@MICROSECONDS, "
                             f"got {text!r}")

    drain_spec = parse_at(drain, "drain") if drain else None
    crash_spec = parse_at(crash, "crash") if crash else None

    def topology():
        return lb_rack_topology(nics=nics, n_backends=backends,
                                frames=frames, drain=drain_spec)

    def plan():
        fault_plan = FaultPlan(seed=0)
        if crash_spec is not None:
            fault_plan.nic_down(crash_spec[1], f"nic{crash_spec[0]}")
        return fault_plan

    verbs = []
    if drain_spec:
        verbs.append(f"drain nic{drain_spec[0]} @ "
                     f"{format_time(drain_spec[1])}")
    if crash_spec:
        verbs.append(f"crash nic{crash_spec[0]} @ "
                     f"{format_time(crash_spec[1])}")
    print(f"lb: {nics}-NIC rack, VIP on nic0, {backends} backends, "
          f"{nics - backends - 1} clients x {frames} frames; "
          + ("; ".join(verbs) if verbs else "no churn"))
    mono, shard, _ = run_triad(topology, plan, workers=workers,
                               speculative=speculative, replay=False)
    violations = _check_lb_case(mono, shard, None, backends)
    summary = summarize_case(mono, violations, affinity=True)

    steering = mono.reports["nic0"]["steering"]
    monitor = mono.reports["nic0"]["monitor"]
    rows = []
    for b in range(1, backends + 1):
        state = ("drained" if b in steering["draining"]
                 else "FAILED" if b in steering["failed"] else "live")
        rows.append([f"nic{b}", state,
                     len(mono.reports[f"nic{b}"]["deliveries"])])
    print(format_table(["Backend", "State", "Frames served"], rows,
                       title="Backend delivery split"))
    print("epochs installed      :", steering["epoch"] + 1,
          f"(gc removed {steering['gc_removed']} stale)")
    print("affinity table        :", steering["stats"])
    print("monitor               :", monitor["hb_probes_sent"], "probes,",
          monitor["hb_echoes_seen"], "echoes,",
          {b: format_time(t) for b, t in monitor["detected"].items()}
          or "no failures detected")
    print("goodput               :",
          f"{summary['delivered']}/{summary['sent']} = "
          f"{summary['goodput']:.3f}" if summary["sent"] else "n/a",
          f"({summary['delivery_failures']} aborted flows)")
    if shard is not None:
        print("bit-identical sharded :",
              "yes" if summary["invariants"]["mono_eq_sharded"]
              else "NO (DIVERGENCE)")
    if out:
        with open(out, "w") as fh:
            json.dump({"reports": mono.reports,
                       "violations": violations}, fh,
                      indent=2, sort_keys=True, default=list)
        print(f"wrote report to {out}")
    if violations:
        for violation in violations:
            print(f"  ! {violation}")
        raise SystemExit("lb invariants violated")
    print("invariants            : affinity + zero committed loss hold")


def cmd_int_report(nics: int = 4, frames: int = 40, gap_ns: int = 2000,
                   prop_ns: int = 500, pattern: str = "fanin",
                   workers: int = 0, speculative: bool = False,
                   inband: bool = False, burst_depth: int = 8,
                   out: str = "", trace_out: str = "") -> None:
    """Run a rack with INT sources/transits/sinks armed and print the
    collector's flight record (DESIGN.md section 16): per-flow path
    traces, per-hop latency breakdowns, queue-depth watermarks, path
    changes, and microburst detections with the responsible flows named.

    ``workers=0`` runs monolithically; any other value shards the rack
    (the postcards are bit-identical either way -- that is the INT
    contract).  ``inband=True`` carries the hop stack as real trailer
    bytes that grow every frame on the wire instead of the zero-cost
    side channel.  ``out`` writes the report JSON; ``trace_out`` writes
    the collector's Perfetto counter/instant tracks.
    """
    import json

    from repro.sim.clock import NS
    from repro.sim.shard import run_monolithic, run_sharded
    from repro.telemetry.config import IntConfig
    from repro.telemetry.export import merge_int_reports
    from repro.telemetry.int_ import IntCollector, format_int_report
    from repro.workloads.rack import rack_topology

    topo = rack_topology(
        nics=nics, frames=frames, gap_ps=gap_ns * NS,
        propagation_ps=prop_ns * NS, pattern=pattern,
        int_=IntConfig(inband=inband),
    )
    carriage = "in-band trailers" if inband else "side-channel"
    mode = (f"{workers}-worker sharded"
            + (" (speculative)" if speculative else "")
            if workers else "monolithic")
    print(f"int-report: {nics}-NIC {pattern} rack, {frames} frames/flow, "
          f"{carriage} INT, {mode}")
    if workers:
        result = run_sharded(topo, workers=workers, speculative=speculative)
    else:
        result = run_monolithic(topo)
    merged = merge_int_reports(result.reports) or {}
    collector = IntCollector(microburst_depth=burst_depth)
    for sink in sorted(merged):
        collector.ingest(sink, merged[sink])
    report = collector.report()
    print()
    print(format_int_report(report))
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=list)
        print(f"\nwrote report to {out}")
    if trace_out:
        from repro.telemetry.export import int_chrome_events, write_chrome_trace
        count = write_chrome_trace(
            trace_out, result.trace or {},
            extra_events=int_chrome_events(collector))
        print(f"wrote {count} trace events to {trace_out} "
              "(load it at https://ui.perfetto.dev)")


def cmd_bench_report(bench: Optional[List[str]] = None,
                     floor: str = "benchmarks/perf/floor.json",
                     tolerance: float = 0.30) -> None:
    """One-screen regression summary: load ``BENCH_*.json`` envelopes,
    diff every gated metric against the checked-in floor, and exit
    non-zero on any regression.  CI runs this over its bench artifacts;
    humans run it over a local ``BENCH_*.json`` glob.

    Gates applied (matching the bench harnesses' own ``--floor`` logic):
    throughput floors (``events_per_sec``, ``events_per_sec_batched``,
    ``parallel_events_per_sec``) pass above ``(1 - tolerance) * floor``;
    overhead caps (``telemetry_overhead_max_frac``,
    ``int_overhead_max_frac``), the chaos invariant/floor flags, and the
    lb migration gates (``lb_goodput_min`` on the ``lb_*`` workloads'
    goodput, exact ``invariants_ok``/``bit_identical`` flags) are exact.
    Ungated series are summarized, not judged.
    """
    import glob as globlib
    import json

    paths: List[str] = []
    for pattern in bench or ["BENCH_*.json"]:
        matches = sorted(globlib.glob(pattern))
        paths.extend(matches if matches else [pattern])
    try:
        with open(floor) as fh:
            floors = json.load(fh)
    except FileNotFoundError:
        floors = {}
        print(f"note: no floor file at {floor}; nothing is gated")
    rate_gates = {
        "events_per_sec": floors.get("events_per_sec", {}),
        "events_per_sec_batched": floors.get("events_per_sec_batched", {}),
    }
    parallel_gates = floors.get("parallel_events_per_sec", {})
    overhead_gates = {
        "telemetry_idle": floors.get("telemetry_overhead_max_frac"),
        "int_idle": floors.get("int_overhead_max_frac"),
    }
    lb_floor = floors.get("lb_goodput_min")
    rows = []          # (status_ok, line)
    ungated_points = 0
    for path in paths:
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (FileNotFoundError, ValueError) as exc:
            rows.append((False, f"  {path}: unreadable ({exc})"))
            continue
        bench_name = payload.get("bench", "?")
        series = payload.get("series", [])
        print(f"{path}: bench {bench_name!r}, "
              f"generated {payload.get('generated', '?')}, "
              f"{len(payload.get('workloads', {}))} workloads, "
              f"{len(series)} series points")
        for point in series:
            workload = point.get("workload")
            metric = point.get("metric")
            value = point.get("value")
            bound = None
            if metric in rate_gates and workload in rate_gates[metric]:
                bound = rate_gates[metric][workload]
            elif metric == "events_per_sec" and workload in parallel_gates:
                bound = parallel_gates[workload]
            if bound is not None:
                allowed = bound * (1.0 - tolerance)
                ok = value >= allowed
                rows.append((ok, (
                    f"  {workload} [{metric}]: {value:,.0f} vs floor "
                    f"{bound:,.0f} (min {allowed:,.0f}) -> "
                    + ("ok" if ok else "REGRESSION"))))
            elif (metric == "overhead_frac"
                    and overhead_gates.get(workload) is not None):
                cap = overhead_gates[workload]
                ok = value <= cap
                rows.append((ok, (
                    f"  {workload} [{metric}]: {value:+.2%} vs max "
                    f"{cap:.0%} -> " + ("ok" if ok else "REGRESSION"))))
            elif (workload == "chaos_batch"
                    and metric in ("all_pass", "floor_ok")):
                ok = bool(value)
                rows.append((ok, (
                    f"  chaos {metric}: "
                    + ("ok" if ok else "VIOLATED"))))
            elif (workload.startswith("lb_") and metric == "goodput"
                    and lb_floor is not None):
                ok = value >= lb_floor
                rows.append((ok, (
                    f"  {workload} [goodput]: {value:.4f} vs floor "
                    f"{lb_floor:.2f} -> "
                    + ("ok" if ok else "REGRESSION"))))
            elif (workload.startswith("lb_")
                    and metric in ("invariants_ok", "bit_identical")):
                ok = bool(value)
                rows.append((ok, (
                    f"  {workload} [{metric}]: "
                    + ("ok" if ok else "VIOLATED"))))
            else:
                ungated_points += 1
    for _ok, line in rows:
        print(line)
    failures = sum(1 for ok, _line in rows if not ok)
    print(f"{len(rows)} gated checks, {failures} failing, "
          f"{ungated_points} ungated series points")
    if failures:
        raise SystemExit(f"{failures} bench gate(s) failing")


COMMANDS = {
    "table1": cmd_table1,
    "table2": cmd_table2,
    "table3": cmd_table3,
    "demo": cmd_demo,
    "faults": cmd_faults,
    "rack": cmd_rack,
    "trace": cmd_trace,
    "chaos": cmd_chaos,
    "lb": cmd_lb,
    "int-report": cmd_int_report,
    "bench-report": cmd_bench_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PANIC (HotNets 2018) reproduction: paper tables & demo",
    )
    parser.add_argument(
        "command",
        choices=sorted(COMMANDS) + ["all"],
        help="which artifact to print",
    )
    rack = parser.add_argument_group("rack options")
    rack.add_argument("--nics", type=int, default=None,
                      help="NICs in the rack (2..7 with DSCP flow ids, "
                           "up to 255 with the payload tag; default 4, "
                           "7 for lb)")
    rack.add_argument("--workers", type=int, default=0,
                      help="worker processes (default: min(4, nics))")
    rack.add_argument("--speculative", action="store_true",
                      help="shard with speculative windows + capsule "
                           "rollback instead of conservative barriers")
    rack.add_argument("--flow-id", choices=("auto", "dscp", "tag"),
                      default="auto",
                      help="rack flow-identity encoding (auto: DSCP "
                           "through 7 NICs, payload tag beyond)")
    rack.add_argument("--frames", type=int, default=40,
                      help="frames per directed flow")
    rack.add_argument("--gap-ns", type=int, default=2000,
                      help="inter-frame gap per sender, ns")
    rack.add_argument("--prop-ns", type=int, default=500,
                      help="wire propagation delay, ns (the lookahead)")
    rack.add_argument("--pattern", choices=("symmetric", "fanin"),
                      default=None,
                      help="traffic pattern (default: symmetric for rack, "
                           "fanin for chaos)")
    trace = parser.add_argument_group("trace options (--frames applies too)")
    trace.add_argument("--sample-every", type=int, default=1,
                       help="trace 1 in N injected frames (0: predicate only)")
    trace.add_argument("--trace-out", default=None,
                       help="Chrome trace-event JSON output path "
                            "(trace: default trace.json; chaos/int-report: "
                            "off unless given)")
    trace.add_argument("--timeline", type=int, default=3,
                       help="packet timelines to print")
    chaos = parser.add_argument_group(
        "chaos options (--nics/--workers/--frames/--pattern apply too)")
    chaos.add_argument("--seeds", type=int, default=5,
                       help="number of chaos seeds to run")
    chaos.add_argument("--first-seed", type=int, default=0,
                       help="first seed of the range")
    chaos.add_argument("--transport", default="gbn",
                       choices=("gbn", "sr", "gbn+ll", "sr+ll", "lb"),
                       help="config: go-back-N, selective repeat, either "
                            "+ link-local repair, or the load-balanced "
                            "rack")
    chaos.add_argument("--chaos-out", default="",
                       help="write the chaos report JSON here")
    chaos.add_argument("--chaos-floor", default="benchmarks/chaos/floor.json",
                       help="per-config goodput floor JSON "
                            "({\"floors\": {config: floor}})")
    lb_group = parser.add_argument_group(
        "lb options (--nics/--workers/--frames/--speculative apply too)")
    lb_group.add_argument("--backends", type=int, default=3,
                          help="backends serving the VIP (rack indices "
                               "1..N; the rest are clients)")
    lb_group.add_argument("--drain", default="2@25",
                          help="planned live drain, BACKEND@MICROSECONDS "
                               "('' to disable)")
    lb_group.add_argument("--crash", default="",
                          help="backend NIC crash, BACKEND@MICROSECONDS "
                               "(the health monitor must fail it out)")
    lb_group.add_argument("--lb-out", default="",
                          help="write the lb run report JSON here")
    int_group = parser.add_argument_group(
        "int-report options (--nics/--workers/--frames/--gap-ns/--prop-ns/"
        "--pattern/--speculative/--trace-out apply too)")
    int_group.add_argument("--inband", action="store_true",
                           help="carry the INT hop stack as real in-band "
                                "trailer bytes (frames grow on the wire) "
                                "instead of the zero-cost side channel")
    int_group.add_argument("--burst-depth", type=int, default=8,
                           help="engine queue depth that counts as a "
                                "microburst crossing")
    int_group.add_argument("--int-out", default="",
                           help="write the INT report JSON here")
    bench_group = parser.add_argument_group("bench-report options")
    bench_group.add_argument("--bench", action="append", default=None,
                             metavar="GLOB",
                             help="BENCH_*.json path or glob (repeatable; "
                                  "default: BENCH_*.json)")
    bench_group.add_argument("--bench-floor",
                             default="benchmarks/perf/floor.json",
                             help="floor JSON with the gated bounds")
    bench_group.add_argument("--tolerance", type=float, default=0.30,
                             help="allowed fraction under a throughput "
                                  "floor before it counts as a regression")
    args = parser.parse_args(argv)
    if args.command == "all":
        # rack spawns worker processes and trace writes a file; keep
        # "all" single-process and side-effect free.
        for name in ("table1", "table2", "table3", "demo", "faults"):
            COMMANDS[name]()
            print()
    elif args.command == "rack":
        cmd_rack(nics=args.nics or 4, workers=args.workers,
                 frames=args.frames,
                 gap_ns=args.gap_ns, prop_ns=args.prop_ns,
                 pattern=args.pattern or "symmetric",
                 speculative=args.speculative, flow_id=args.flow_id)
    elif args.command == "trace":
        cmd_trace(frames=args.frames, sample_every=args.sample_every,
                  timeline=args.timeline,
                  out=args.trace_out or "trace.json")
    elif args.command == "chaos":
        cmd_chaos(seeds=args.seeds, first_seed=args.first_seed,
                  nics=args.nics or 4, workers=args.workers or 2,
                  frames=args.frames, pattern=args.pattern or "fanin",
                  transport=args.transport, out=args.chaos_out,
                  trace_out=args.trace_out or "",
                  speculative=args.speculative,
                  floor_file=args.chaos_floor)
    elif args.command == "lb":
        cmd_lb(nics=args.nics or 7, backends=args.backends,
               frames=args.frames, workers=args.workers or 2,
               speculative=args.speculative,
               drain=args.drain, crash=args.crash, out=args.lb_out)
    elif args.command == "int-report":
        cmd_int_report(nics=args.nics or 4, frames=args.frames,
                       gap_ns=args.gap_ns, prop_ns=args.prop_ns,
                       pattern=args.pattern or "fanin",
                       workers=args.workers, speculative=args.speculative,
                       inband=args.inband, burst_depth=args.burst_depth,
                       out=args.int_out, trace_out=args.trace_out or "")
    elif args.command == "bench-report":
        cmd_bench_report(bench=args.bench, floor=args.bench_floor,
                         tolerance=args.tolerance)
    else:
        COMMANDS[args.command]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
