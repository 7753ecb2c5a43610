"""Command-line interface: regenerate the paper's tables from a shell.

Usage::

    python -m repro --help            # the commands (``COMMANDS`` below)
    python -m repro <command> --help  # that command's own options
    python -m repro table2            # e.g. the line-rate PPS model

The heavier experiments (HOL blocking, isolation, ablations) live in
``benchmarks/`` where pytest-benchmark records their runtimes.
"""

from __future__ import annotations

import argparse
import json
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
    print("host CPU ran   :", nic.host.interrupts_taken, "times")


def cmd_faults() -> None:
    """A compressed fault-tolerance demo: crash one IPSec lane mid-run
    and show the watchdog re-steering traffic onto its backup."""
    from repro import PanicConfig, PanicNic, Simulator
    from repro.faults import FaultInjector, FaultPlan, attach_health_monitor
    from repro.packet import build_udp_frame
    from repro.packet.packet import MessageKind, Packet
    from repro.sim.clock import NS, SEC, US, format_time
    from repro.workloads import CbrSource

    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("ipsec", "ipsec1", "compression", "kvcache"),
    ))
    nic.set_backup("ipsec", "ipsec1")
    nic.control.route_dscp(10, ["ipsec"])
    monitor = attach_health_monitor(nic)
    monitor.start()
    plan = FaultPlan(seed=1).crash_engine(20 * US, "ipsec")
    FaultInjector(nic, plan).arm()
    print(plan.describe())

    def frame(seq: int) -> Packet:
        return Packet(build_udp_frame(
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1", dst_ip="10.0.0.2",
            src_port=1000 + seq, dst_port=9, dscp=10,
            payload=bytes(64),
        ), MessageKind.ETHERNET)

    CbrSource(sim, "spray", nic.inject, frame,
              rate_pps=SEC / (300 * NS), count=200).start()
    sim.run(until_ps=120 * US)
    monitor.stop()
    sim.run()
    stats = nic.stats()
    print("failure detected at :", {
        k: format_time(v) for k, v in monitor.detected.items()
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
    from repro.sim.clock import NS, format_time
    from repro.telemetry import TelemetryConfig
    from repro.telemetry.export import format_timeline, write_chrome_trace

    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1,
        offloads=("ipsec", "compression", "checksum"),
        telemetry=TelemetryConfig(sample_every=sample_every),
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
    events = write_chrome_trace(out, {nic.name: tel.tracer.sorted_spans()})
    summary = tel.tracer.summary()
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
              trace_out: str = "", speculative: bool = False) -> None:
    """Break the rack on purpose: run seeded chaos cases on the reliable
    incast and gate on the delivery invariants (DESIGN.md section 12).

    ``transport`` picks the config: ``gbn`` (go-back-N), ``sr``
    (selective repeat + adaptive RTO), ``gbn+ll``/``sr+ll`` (either
    transport with link-local repair armed on every wire), or ``lb``
    (the load-balanced rack with live drains and backend crashes,
    DESIGN.md section 17).  Goodput floors are per config
    (:data:`repro.reliability.chaos.GOODPUT_FLOORS`; ``gbn`` and ``sr``
    are ungated).  Exits non-zero if any invariant -- or a floor -- is
    violated; the CI ``chaos-smoke`` job runs this once per config.

    ``trace_out`` (``--trace-out``) additionally reruns the first seed
    with telemetry enabled -- same fault weather, the plan regenerates
    from the seed -- and writes the merged Perfetto trace there; the
    gated runs themselves stay untraced.
    """
    from repro.reliability.chaos import GOODPUT_FLOORS, run_chaos

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
                       configs=(transport,), speculative=speculative)
    print(f"goodput min/mean      : {report['goodput_min']:.3f} / "
          f"{report['goodput_mean']:.3f}")
    print("invariants            :",
          "all hold" if report["passed"]
          else f"VIOLATED on seeds {report['failed_seeds']}")
    if transport in GOODPUT_FLOORS:
        print(f"goodput floor         : {GOODPUT_FLOORS[transport]:.2f}",
              "held" if report["floor_ok"] else "BREACHED")
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
    the collector's Perfetto counter/instant tracks beside every NIC's
    spans (telemetry samples every frame then; postcards do not depend
    on it).
    """
    from repro.sim.clock import NS
    from repro.sim.shard import run_monolithic, run_sharded
    from repro.telemetry.config import IntConfig, TelemetryConfig
    from repro.telemetry.export import merge_int_reports
    from repro.telemetry.int_ import IntCollector, format_int_report
    from repro.workloads.rack import rack_topology

    topo = rack_topology(
        nics=nics, frames=frames, gap_ps=gap_ns * NS,
        propagation_ps=prop_ns * NS, pattern=pattern,
        int_=IntConfig(inband=inband),
        telemetry=TelemetryConfig(sample_every=1) if trace_out else None,
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


def cmd_all() -> None:
    # rack spawns worker processes and trace writes a file; keep "all"
    # single-process and side-effect free.
    for run in (cmd_table1, cmd_table2, cmd_table3, cmd_demo, cmd_faults):
        run()
        print()


def _opt(*flags: str, **kwargs):
    return flags, kwargs


def _nics(default: int):
    return _opt("--nics", type=int, default=default,
                help="NICs in the rack (2..7 with DSCP flow ids, up to "
                     "255 with the payload tag; default %(default)s)")


def _workers(default: int, meaning: str = ""):
    return _opt("--workers", type=int, default=default,
                help=f"worker processes (default: {meaning or default})")


def _pattern(default: str):
    return _opt("--pattern", choices=("symmetric", "fanin"),
                default=default,
                help="traffic pattern (default: %(default)s)")


_FRAMES = _opt("--frames", type=int, default=40,
               help="frames per directed flow (default: %(default)s)")
_GAP_NS = _opt("--gap-ns", type=int, default=2000,
               help="inter-frame gap per sender, ns")
_PROP_NS = _opt("--prop-ns", type=int, default=500,
                help="wire propagation delay, ns (the lookahead)")
_SPECULATIVE = _opt("--speculative", action="store_true",
                    help="shard with speculative windows + capsule "
                         "rollback instead of conservative barriers")
_TRACE_OUT = _opt("--trace-out", default="",
                  help="also write a Chrome trace-event JSON here")

#: command -> (runner, summary, options).  Every option's ``dest`` is a
#: keyword of the runner, so dispatch is ``runner(**parsed)``.
COMMANDS = {
    "table1": (cmd_table1, "offload taxonomy", ()),
    "table2": (cmd_table2, "line-rate PPS model", ()),
    "table3": (cmd_table3, "mesh bisection BW / chain length", ()),
    "demo": (cmd_demo, "the quickstart KV GET, end to end", ()),
    "faults": (cmd_faults, "crash-and-failover fault-tolerance demo", ()),
    "all": (cmd_all, "the three tables, demo and faults", ()),
    "rack": (cmd_rack, "sharded rack-scale run vs monolithic", (
        _nics(4), _workers(0, "min(4, nics)"), _FRAMES, _GAP_NS, _PROP_NS,
        _pattern("symmetric"), _SPECULATIVE,
        _opt("--flow-id", choices=("auto", "dscp", "tag"), default="auto",
             help="rack flow-identity encoding (auto: DSCP through 7 "
                  "NICs, payload tag beyond)"),
    )),
    "trace": (cmd_trace, "per-packet telemetry -> trace.json + timeline", (
        _FRAMES,
        _opt("--sample-every", type=int, default=1,
             help="trace 1 in N injected frames (0: predicate only)"),
        _opt("--timeline", type=int, default=3,
             help="packet timelines to print"),
        _opt("--trace-out", dest="out", default="trace.json",
             help="Chrome trace-event JSON output path "
                  "(default: %(default)s)"),
    )),
    "chaos": (cmd_chaos, "seeded chaos: lossy rack + invariant gate", (
        _opt("--seeds", type=int, default=5,
             help="number of chaos seeds to run"),
        _opt("--first-seed", type=int, default=0,
             help="first seed of the range"),
        _nics(4), _workers(2), _FRAMES, _pattern("fanin"),
        _opt("--transport", default="gbn",
             choices=("gbn", "sr", "gbn+ll", "sr+ll", "lb"),
             help="config: go-back-N, selective repeat, either + "
                  "link-local repair, or the load-balanced rack"),
        _opt("--chaos-out", dest="out", default="",
             help="write the chaos report JSON here"),
        _TRACE_OUT, _SPECULATIVE,
    )),
    "lb": (cmd_lb, "RMT-resident L4 LB: live drain/failover", (
        _nics(7),
        _opt("--backends", type=int, default=3,
             help="backends serving the VIP (rack indices 1..N; the rest "
                  "are clients)"),
        _FRAMES, _workers(2), _SPECULATIVE,
        _opt("--drain", default="2@25",
             help="planned live drain, BACKEND@MICROSECONDS ('' to "
                  "disable)"),
        _opt("--crash", default="",
             help="backend NIC crash, BACKEND@MICROSECONDS (the health "
                  "monitor must fail it out)"),
        _opt("--lb-out", dest="out", default="",
             help="write the lb run report JSON here"),
    )),
    "int-report": (cmd_int_report, "in-band telemetry rack flight record", (
        _nics(4), _FRAMES, _GAP_NS, _PROP_NS, _pattern("fanin"),
        _workers(0, "0, monolithic"), _SPECULATIVE,
        _opt("--inband", action="store_true",
             help="carry the INT hop stack as real in-band trailer bytes "
                  "(frames grow on the wire) instead of the zero-cost "
                  "side channel"),
        _opt("--burst-depth", type=int, default=8,
             help="engine queue depth that counts as a microburst "
                  "crossing"),
        _opt("--int-out", dest="out", default="",
             help="write the INT report JSON here"),
        _TRACE_OUT,
    )),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PANIC (HotNets 2018) reproduction: paper tables & demo",
    )
    commands = parser.add_subparsers(required=True, metavar="command")
    for name, (run, summary, options) in COMMANDS.items():
        sub = commands.add_parser(name, help=summary, description=summary)
        sub.set_defaults(run=run)
        for flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
    parsed = vars(parser.parse_args(argv))
    parsed.pop("run")(**parsed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
