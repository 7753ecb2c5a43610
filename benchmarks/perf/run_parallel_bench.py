"""Wall-clock perf harness for the sharded rack runner.

Runs a rack-row incast (see :mod:`repro.workloads.rack` -- 32 NICs by
default, tag flow identity) once monolithically and once sharded per
requested worker count and window protocol, asserts every sharded run is
bit-identical to the monolithic one (the DESIGN.md section 10 contract,
speculative included), and writes ``BENCH_parallel.json`` in the stable
``repro-bench/2`` envelope (see :mod:`bench_schema`).

Series metrics per worker count ``w`` and protocol
--------------------------------------------------
Conservative runs use workload key ``rack_incast_w{w}``, speculative
runs ``rack_incast_w{w}_spec``:

``events_per_sec``
    Total simulation events (identical across modes, asserted) divided
    by that run's wall time.
``speedup_wall``
    Monolithic wall-clock / sharded wall-clock, best-of-``--repeats``
    each side.
``sync_rounds``
    Coordinator synchronization rounds the run took (speculation's whole
    point is fewer of these).
``rollbacks`` / ``replayed_events``
    Speculative only: checkpoints abandoned and events re-fired during
    deterministic replay.
``capsules_replayed`` / ``rollback_wall_seconds``
    Speculative only: duplicate cross-shard capsules the replays
    re-emitted (and the barrier dropped), and wall seconds the woken
    checkpoint parents spent replaying.  The per-round horizon
    trajectory lands in the workload entry as ``horizon_history``.

The monolithic baseline is workload ``rack_incast_mono``; with
``--batched``, a batch-execution (PR7 train lane) pair is recorded as
``rack_incast_mono_batched`` and ``rack_incast_w{max}_batched``, each
equivalence-checked against the batched monolithic run.

Advisory runs
-------------
Genuine parallelism needs as many idle cores as workers.  Whenever
``os.cpu_count() < workers`` the run's workload entry is marked
``"advisory": true`` and ``--min-speedup`` is skipped for it: the
numbers are still written (the equivalence gate still binds -- it is
host-independent), they just are not meaningful as speedups, and an
under-provisioned CI runner must not fail the floor on them.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_parallel_bench.py \
        --out BENCH_parallel.json [--workers 1,2,4] [--nics 32] \
        [--modes conservative,speculative] [--frames 8] [--repeats 2] \
        [--floor benchmarks/perf/floor.json] [--min-speedup 1.0]

``--floor`` compares the *monolithic* ``events_per_sec`` against the
checked-in ``parallel_events_per_sec`` floor and exits non-zero below
``(1 - tolerance) * floor``.  The floor is single-process on purpose:
speedup depends on the runner's core count, so gating on it would flap
on small CI machines, while single-core event throughput only regresses
when the code slows down.  ``--min-speedup X`` additionally requires the
best sharded run at the largest worker count to clear ``X``-times the
monolithic wall clock -- skipped (with a printed note) when that worker
count is advisory on this host.

``--trace-out PATH`` additionally runs the incast once sharded across
the largest worker count *with telemetry enabled* and writes the
coordinator-merged spans plus the shard-coordinator window-churn counter
track (sync_rounds / rollbacks / replayed_events, see
:func:`repro.telemetry.export.shard_window_counters`) as Chrome
trace-event JSON (an artifact CI uploads).  The perf measurements above
stay telemetry-free.

``--profile N`` additionally runs the monolithic baseline and the
largest worker count once per mode with the kernel's per-component
wall-time profiler (:meth:`~repro.sim.kernel.Simulator.set_profile`)
and embeds, under ``profiles``, the top-``N`` components by wall time
plus each shard's busy seconds -- the artifact to read when chasing
shard imbalance.  Profiled runs are separate (the perf_counter wrap
would taint the speedup numbers) but equivalence-checked.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from bench_schema import envelope, write_json

from repro.sim.clock import NS
from repro.sim.shard import run_monolithic, run_sharded
from repro.workloads.rack import rack_topology

MODES = ("conservative", "speculative")


def _best(run, repeats):
    best = None
    for _ in range(repeats):
        result = run()
        if best is None or result.wall_seconds < best.wall_seconds:
            best = result
    return best


def _assert_equivalent(mono, sharded, label: str) -> None:
    for name, report in mono.reports.items():
        if sharded.reports[name] != report:
            raise AssertionError(
                f"{label} diverged from monolithic on {name} -- "
                "run tests/test_shard_equivalence.py / "
                "tests/test_speculative.py")
    if sharded.wire_stats != mono.wire_stats:
        raise AssertionError(f"{label} diverged on wire_stats")


def check_floor(mono_rate: float, floor_path: str, tolerance: float) -> int:
    with open(floor_path) as fh:
        floor = json.load(fh)
    bounds = floor.get("parallel_events_per_sec", {}).get(
        "rack_incast_mono")
    if bounds is None:
        print(f"no rack_incast_mono floor in {floor_path}; skipping")
        return 0
    allowed = bounds * (1.0 - tolerance)
    status = "ok" if mono_rate >= allowed else "REGRESSION"
    print(f"floor check rack_incast_mono: {mono_rate:,.0f} events/s vs "
          f"floor {bounds:,.0f} (min allowed {allowed:,.0f}) -> {status}")
    return 0 if mono_rate >= allowed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_parallel.json")
    parser.add_argument("--workers", default="1,2,4",
                        help="comma-separated worker counts to shard over")
    parser.add_argument("--modes", default="conservative,speculative",
                        help="comma-separated window protocols to measure")
    parser.add_argument("--nics", type=int, default=32)
    parser.add_argument("--frames", type=int, default=8)
    parser.add_argument("--gap-ns", type=int, default=1000)
    parser.add_argument("--prop-ns", type=int, default=8000,
                        help="wire propagation = the sync lookahead; "
                             "longer wires mean fewer barrier rounds")
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--batched", action="store_true", default=True,
                        help="also measure the batch-execution train lane "
                             "through the shard workers (default)")
    parser.add_argument("--no-batched", dest="batched",
                        action="store_false")
    parser.add_argument("--floor", default=None,
                        help="floor JSON to regress events/sec against")
    parser.add_argument("--tolerance", type=float, default=0.30)
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="require this wall speedup at the largest "
                             "worker count (skipped when advisory)")
    parser.add_argument("--trace-out", default=None,
                        help="also write a merged telemetry trace.json "
                             "from a sharded telemetry-enabled run")
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="also run mono + the largest worker count once "
                             "per mode with the kernel wall-time profiler "
                             "and embed the top-N components per shard in "
                             "the output JSON (perf numbers above stay "
                             "unprofiled)")
    args = parser.parse_args(argv)
    worker_counts = [int(w) for w in args.workers.split(",") if w.strip()]
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    for mode in modes:
        if mode not in MODES:
            parser.error(f"unknown mode {mode!r}; expected one of {MODES}")
    cores = os.cpu_count() or 1

    def make_topo(batch=False, telemetry=None):
        return rack_topology(
            nics=args.nics, frames=args.frames, gap_ps=args.gap_ns * NS,
            propagation_ps=args.prop_ns * NS, seed=args.seed,
            batch=batch, telemetry=telemetry,
        )

    topo = make_topo()
    mono = _best(lambda: run_monolithic(topo), args.repeats)
    mono_rate = mono.events_fired / mono.wall_seconds
    print(f"monolithic: {mono.events_fired} events in "
          f"{mono.wall_seconds:.3f}s ({mono_rate:,.0f} events/s)")

    workloads = {
        "rack_incast_mono": {
            "mode": "monolithic",
            "events_fired": mono.events_fired,
            "wall_seconds": mono.wall_seconds,
        },
    }
    series = [{"workload": "rack_incast_mono", "metric": "events_per_sec",
               "value": round(mono_rate)}]
    best_speedup_at_max = 0.0
    max_workers = max(worker_counts)
    for workers in worker_counts:
        advisory = workers > cores
        for mode in modes:
            speculative = mode == "speculative"
            sharded = _best(
                lambda: run_sharded(topo, workers=workers,
                                    speculative=speculative),
                args.repeats)
            _assert_equivalent(mono, sharded,
                               f"{workers}-worker {mode} run")
            speedup = mono.wall_seconds / sharded.wall_seconds
            rate = sharded.events_fired / sharded.wall_seconds
            key = f"rack_incast_w{workers}" + (
                "_spec" if speculative else "")
            note = " [advisory: host has %d core(s)]" % cores \
                if advisory else ""
            print(f"{key}: {speedup:.2f}x wall speedup, "
                  f"{rate:,.0f} events/s, {sharded.rounds} sync rounds, "
                  f"{sharded.rollbacks} rollbacks "
                  f"(lookahead {sharded.lookahead_ps / 1000:.0f}ns)"
                  + note)
            workloads[key] = {
                "mode": "sharded",
                "protocol": mode,
                "workers": workers,
                "advisory": advisory,
                "events_fired": sharded.events_fired,
                "wall_seconds": sharded.wall_seconds,
                "rounds": sharded.rounds,
                "lookahead_ps": sharded.lookahead_ps,
                "rollbacks": sharded.rollbacks,
                "replayed_events": sharded.replayed_events,
                "discarded_events": sharded.discarded_events,
                "capsules_replayed": sharded.capsules_replayed,
                "rollback_wall_seconds": round(
                    sharded.rollback_wall_seconds, 6),
                "horizon_history": list(sharded.horizon_history),
            }
            series += [
                {"workload": key, "metric": "events_per_sec",
                 "value": round(rate)},
                {"workload": key, "metric": "speedup_wall",
                 "value": round(speedup, 3)},
                {"workload": key, "metric": "sync_rounds",
                 "value": sharded.rounds},
            ]
            if speculative:
                series += [
                    {"workload": key, "metric": "rollbacks",
                     "value": sharded.rollbacks},
                    {"workload": key, "metric": "replayed_events",
                     "value": sharded.replayed_events},
                    {"workload": key, "metric": "capsules_replayed",
                     "value": sharded.capsules_replayed},
                    {"workload": key, "metric": "rollback_wall_seconds",
                     "value": round(sharded.rollback_wall_seconds, 6)},
                ]
            if workers == max_workers:
                best_speedup_at_max = max(best_speedup_at_max, speedup)

    if args.batched:
        batched_topo = make_topo(batch=True)
        mono_b = _best(lambda: run_monolithic(batched_topo), args.repeats)
        rate_b = mono_b.events_fired / mono_b.wall_seconds
        print(f"monolithic batched: {mono_b.events_fired} events in "
              f"{mono_b.wall_seconds:.3f}s ({rate_b:,.0f} events/s)")
        workloads["rack_incast_mono_batched"] = {
            "mode": "monolithic", "batched": True,
            "events_fired": mono_b.events_fired,
            "wall_seconds": mono_b.wall_seconds,
        }
        series.append({"workload": "rack_incast_mono_batched",
                       "metric": "events_per_sec",
                       "value": round(rate_b)})
        speculative = "speculative" in modes
        sharded_b = _best(
            lambda: run_sharded(batched_topo, workers=max_workers,
                                speculative=speculative),
            args.repeats)
        _assert_equivalent(mono_b, sharded_b,
                           f"{max_workers}-worker batched run")
        speedup_b = mono_b.wall_seconds / sharded_b.wall_seconds
        srate_b = sharded_b.events_fired / sharded_b.wall_seconds
        key = f"rack_incast_w{max_workers}_batched"
        advisory = max_workers > cores
        print(f"{key}: {speedup_b:.2f}x wall speedup, "
              f"{srate_b:,.0f} events/s, {sharded_b.rounds} sync rounds"
              + (" [advisory]" if advisory else ""))
        workloads[key] = {
            "mode": "sharded", "batched": True,
            "protocol": "speculative" if speculative else "conservative",
            "workers": max_workers,
            "advisory": advisory,
            "events_fired": sharded_b.events_fired,
            "wall_seconds": sharded_b.wall_seconds,
            "rounds": sharded_b.rounds,
            "rollbacks": sharded_b.rollbacks,
        }
        series += [
            {"workload": key, "metric": "events_per_sec",
             "value": round(srate_b)},
            {"workload": key, "metric": "speedup_wall",
             "value": round(speedup_b, 3)},
            {"workload": key, "metric": "sync_rounds",
             "value": sharded_b.rounds},
        ]

    if args.trace_out:
        from repro.telemetry import TelemetryConfig
        from repro.telemetry.export import (
            shard_window_counters,
            write_chrome_trace,
        )

        traced_topo = make_topo(
            telemetry=TelemetryConfig(sample_every=4))
        traced = run_sharded(traced_topo, workers=max_workers,
                             speculative="speculative" in modes)
        count = write_chrome_trace(
            args.trace_out, traced.trace or {},
            extra_events=shard_window_counters(traced))
        print(f"wrote {count} merged trace events from the "
              f"{max_workers}-worker run to {args.trace_out}")

    profiles = None
    if args.profile:
        # Separate profiled pass: the perf_counter wrap in the kernel
        # disqualifies these walls from the speedup numbers above, but
        # simulated results stay bit-identical (asserted).
        profiles = {}

        def profile_entry(result):
            return {
                "wall_seconds": round(result.wall_seconds, 4),
                "top": [[round(sec, 6), calls, name]
                        for sec, calls, name
                        in (result.profile or [])[:args.profile]],
                "shards": {
                    str(shard): {
                        "busy_seconds": round(entry["busy_seconds"], 4),
                        "top": [[round(sec, 6), calls, name]
                                for sec, calls, name
                                in entry["profile"][:args.profile]],
                    }
                    for shard, entry in (result.shard_profiles or {}).items()
                },
            }

        mono_p = run_monolithic(topo, profile=True)
        _assert_equivalent(mono, mono_p, "profiled monolithic run")
        profiles["rack_incast_mono"] = profile_entry(mono_p)
        for mode in modes:
            speculative = mode == "speculative"
            sharded_p = run_sharded(topo, workers=max_workers,
                                    speculative=speculative, profile=True)
            _assert_equivalent(mono, sharded_p,
                               f"profiled {max_workers}-worker {mode} run")
            key = f"rack_incast_w{max_workers}" + (
                "_spec" if speculative else "")
            entry = profile_entry(sharded_p)
            if speculative:
                entry["rollback_wall_seconds"] = round(
                    sharded_p.rollback_wall_seconds, 6)
            profiles[key] = entry
            busy = {s: e["busy_seconds"]
                    for s, e in entry["shards"].items()}
            spread = (max(busy.values()) - min(busy.values())
                      if busy else 0.0)
            print(f"profile {key}: per-shard busy seconds {busy} "
                  f"(imbalance {spread:.3f}s)")
            for sec, calls, name in entry["top"][:3]:
                print(f"  {sec:8.4f}s {calls:>8} calls  {name}")

    payload = envelope(
        bench="rack_shard_parallel",
        params={
            "nics": args.nics, "frames": args.frames,
            "gap_ns": args.gap_ns, "prop_ns": args.prop_ns,
            "seed": args.seed, "repeats": args.repeats,
            "workers": worker_counts, "modes": modes,
            "batched": args.batched, "cores": cores,
        },
        workloads=workloads,
        series=series,
    )
    if profiles is not None:
        payload["profiles"] = profiles
    write_json(args.out, payload)

    failed = 0
    if args.floor and check_floor(mono_rate, args.floor, args.tolerance):
        print("monolithic rack throughput under the perf floor",
              file=sys.stderr)
        failed = 2
    if args.min_speedup > 0:
        if max_workers > cores:
            print(f"min-speedup check skipped: {max_workers} workers on "
                  f"{cores} core(s) -- advisory run")
        elif best_speedup_at_max < args.min_speedup:
            print(f"best speedup at {max_workers} workers "
                  f"{best_speedup_at_max:.2f}x under the "
                  f"{args.min_speedup:.2f}x floor", file=sys.stderr)
            failed = failed or 3
        else:
            print(f"min-speedup check ok: {best_speedup_at_max:.2f}x >= "
                  f"{args.min_speedup:.2f}x at {max_workers} workers")
    return failed


if __name__ == "__main__":
    sys.exit(main())
