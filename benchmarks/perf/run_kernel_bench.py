"""Wall-clock perf harness for the simulation kernel fast path.

Runs the canonical workloads (see :mod:`workloads`) three times each --
fast path off (the per-hop reference slow path), fast path on (kernel
fast lanes + cut-through ExpressFlights), and batched (fast path +
``PanicConfig.batch_execution``: trajectory trains, one frame's whole
path in one kernel event) -- and writes ``BENCH_kernel.json``.

Metrics per workload
--------------------
``speedup_wall``
    slow wall-clock / fast wall-clock, best-of-``--repeats`` each side.
``events_per_sec``
    **Normalized** events/sec: *reference* (slow-path) event count
    divided by *fast-path* wall time.  The fast path deliberately fires
    fewer Python-level events for the same simulated work, so dividing
    its own (smaller) event count by its wall time would understate the
    win; normalizing to the reference count makes events/sec a pure
    wall-clock speed metric on a fixed workload, comparable across
    kernels.  ``events_per_sec_raw`` (fast events / fast wall) is also
    recorded.
``speedup_wall_batched`` / ``events_per_sec_batched``
    The same two metrics for the batched run (reference event count
    over the batched wall), plus ``events_per_sec_batched_raw``.
``sim_gbps_per_wall_sec``
    Simulated gigabits delivered to host software per wall-clock second
    of fast-path simulation.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_kernel_bench.py \
        --out BENCH_kernel.json [--workloads a,b] [--frames N] \
        [--repeats K] [--floor benchmarks/perf/floor.json] \
        [--profile N] [--int-overhead]

``--floor`` compares each workload's ``events_per_sec`` (and, when the
floor file lists them, ``events_per_sec_batched``) against a checked-in
floor and exits non-zero on a regression beyond ``--tolerance``
(default 0.30, i.e. fail below 70% of the floor).  The floor is
deliberately conservative (set well under developer-laptop numbers) so
slow CI runners don't flap; the 30% tolerance then guards against
order-of-magnitude regressions, not noise.

``--profile N`` additionally runs each workload once more (batched)
under :mod:`cProfile` and embeds the top-``N`` functions by cumulative
time in the output JSON under ``profiles`` -- the artifact to read when
chasing where batched wall time goes.

``--int-overhead`` additionally measures side-channel INT (armed
sources/sinks, zero wire growth) against an INT-free run on a small
monolithic fanin rack and -- with ``--floor`` -- gates the median paired
overhead against ``int_overhead_max_frac`` (the documented armed-INT
budget, looser than the 5% idle-telemetry gate because armed INT does
real per-hop work).

Output follows the versioned ``repro-bench/2`` envelope (see
:mod:`bench_schema`): full per-workload detail under ``workloads``, and
the four metrics above additionally flattened into the stable
``series`` list that plots and CI read.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from bench_schema import envelope, write_json
from workloads import WORKLOADS


def measure(name: str, fast_path: bool, seed: int, frames: Optional[int],
            repeats: int, batch: bool = False) -> dict:
    """Best-of-``repeats`` run of one workload (determinism makes the
    minimum the right statistic: all variance is OS noise)."""
    kwargs = {"fast_path": fast_path, "seed": seed, "batch": batch}
    if frames is not None:
        kwargs["frames"] = frames
    best = None
    for _ in range(repeats):
        result = WORKLOADS[name](**kwargs)
        if best is None or result["wall_seconds"] < best["wall_seconds"]:
            best = result
    return best


def _check_identical(name: str, reference: dict, candidate: dict,
                     label: str) -> None:
    if (reference["sim_ps"], reference["deliveries"],
            reference["bits_delivered"]) != (
            candidate["sim_ps"], candidate["deliveries"],
            candidate["bits_delivered"]):
        raise AssertionError(
            f"{name}: {label} simulated results diverged from the "
            "reference -- run tests/test_fast_path_equivalence.py / "
            "tests/test_batched_execution.py"
        )


def bench_workload(name: str, seed: int, frames: Optional[int],
                   repeats: int) -> dict:
    slow = measure(name, False, seed, frames, repeats)
    fast = measure(name, True, seed, frames, repeats)
    batched = measure(name, True, seed, frames, repeats, batch=True)
    _check_identical(name, slow, fast, "fast-path")
    _check_identical(name, slow, batched, "batched")
    fast_wall = fast["wall_seconds"]
    batched_wall = batched["wall_seconds"]
    return {
        "seed": seed,
        "fast": fast,
        "slow": slow,
        "batched": batched,
        "speedup_wall": round(slow["wall_seconds"] / fast_wall, 3),
        "events_per_sec": round(slow["events_fired"] / fast_wall),
        "events_per_sec_raw": round(fast["events_fired"] / fast_wall),
        "sim_gbps_per_wall_sec": round(
            fast["bits_delivered"] / 1e9 / fast_wall, 3),
        # Batched-lane metrics, normalized the same way: the reference
        # (slow-path) event count over the batched wall.
        "speedup_wall_batched": round(
            slow["wall_seconds"] / batched_wall, 3),
        "events_per_sec_batched": round(
            slow["events_fired"] / batched_wall),
        "events_per_sec_batched_raw": round(
            batched["events_fired"] / batched_wall),
    }


def profile_workload(name: str, seed: int, frames: Optional[int],
                     top: int, batch: bool = True) -> dict:
    """cProfile one batched run; return the top-``top`` rows by
    cumulative time as JSON-friendly dicts."""
    import cProfile
    import pstats

    kwargs = {"fast_path": True, "seed": seed, "batch": batch}
    if frames is not None:
        kwargs["frames"] = frames
    workload = WORKLOADS[name]
    workload(**kwargs)  # warm parse/verdict memos, match the bench
    profiler = cProfile.Profile()
    profiler.enable()
    workload(**kwargs)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows = []
    for func in stats.fcn_list[:top]:  # (file, line, name) in sort order
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, line, funcname = func
        rows.append({
            "function": f"{filename}:{line}({funcname})",
            "ncalls": nc,
            "primitive_calls": cc,
            "tottime": round(tt, 6),
            "cumtime": round(ct, 6),
        })
    return {
        "workload": name,
        "batch": batch,
        "top": top,
        "total_calls": stats.total_calls,
        "total_tt": round(stats.total_tt, 6),
        "rows": rows,
    }


def bench_telemetry_overhead(seed: int, frames: Optional[int],
                             repeats: int) -> dict:
    """Disabled-telemetry overhead on the uncontended chain.

    Measures an *enabled-but-idle* TelemetryConfig (sample_every=0, no
    probes) against telemetry=None: that is the worst honest case for
    the "near-zero overhead when off" claim, since every instrumented
    path pays its tracer None/ctx check.

    The 5% gate needs more signal than the smoke flags provide (at
    ``--frames 100 --repeats 2`` the run-to-run noise alone exceeds
    5%), so this sub-bench enforces its own minimums (300 frames, 7
    rounds) and reports the *median of per-round paired ratios*: each
    round runs off-then-on back to back, so shared-runner load drift
    hits both sides of a ratio equally, and the median discards the
    rounds a scheduler hiccup poisoned.
    """
    from repro.telemetry import TelemetryConfig

    kwargs = {"fast_path": True, "seed": seed,
              "frames": max(frames or 400, 300)}
    idle = TelemetryConfig(sample_every=0, probe_period_ps=0)
    workload = WORKLOADS["chaining_uncontended"]
    ratios = []
    last_off = last_on = None
    for _ in range(max(repeats, 7)):
        off = workload(telemetry=None, **kwargs)
        on = workload(telemetry=idle, **kwargs)
        ratios.append(on["wall_seconds"] / off["wall_seconds"])
        last_off, last_on = off, on
    if (last_off["sim_ps"], last_off["deliveries"],
            last_off["bits_delivered"]) != (
            last_on["sim_ps"], last_on["deliveries"],
            last_on["bits_delivered"]):
        raise AssertionError(
            "telemetry-enabled run diverged from the disabled run -- "
            "run tests/test_telemetry.py"
        )
    ratios.sort()
    overhead = ratios[len(ratios) // 2] - 1.0
    return {
        "workload": "chaining_uncontended",
        "rounds": len(ratios),
        "ratio_spread": [round(ratios[0], 4), round(ratios[-1], 4)],
        "overhead_frac": round(overhead, 4),
    }


def bench_int_overhead(seed: int, frames: Optional[int],
                       repeats: int) -> dict:
    """Side-channel INT overhead on a small monolithic fanin rack.

    Measures ``IntConfig()`` (side-channel carriage -- the default,
    observation-only mode) against ``int_=None`` on a 3-NIC incast:
    unlike the idle-telemetry case, armed INT does real per-packet work
    on every hop (state normalization at inject, an enqueue tap, a hop
    record at transmit, the sink pop), so its budget is necessarily
    looser than the 5% idle gate -- ``int_overhead_max_frac`` in
    ``floor.json`` documents it.  Same methodology as
    :func:`bench_telemetry_overhead`: paired off/on rounds, median of
    per-round ratios, and a bit-identical-deliveries assertion (the
    side channel must not perturb simulated results).
    """
    from repro.sim.clock import NS
    from repro.sim.shard import run_monolithic
    from repro.telemetry.config import IntConfig
    from repro.workloads.rack import rack_topology

    rack_frames = max(frames or 400, 240)

    def topo(int_):
        return rack_topology(
            nics=3, pattern="fanin", frames=rack_frames,
            gap_ps=1000 * NS, propagation_ps=8000 * NS, seed=seed,
            int_=int_,
        )

    ratios = []
    last_off = last_on = None
    for _ in range(max(repeats, 9)):
        off = run_monolithic(topo(None))
        on = run_monolithic(topo(IntConfig()))
        ratios.append(on.wall_seconds / off.wall_seconds)
        last_off, last_on = off, on
    def strip_int(report):
        # The postcard list and the per-NIC stats()["int"] summary exist
        # only on the armed side; everything else must be bit-identical.
        out = {k: v for k, v in report.items() if k != "int"}
        out["stats"] = {
            k: v for k, v in report["stats"].items() if k != "int"}
        return out

    if ({n: strip_int(r) for n, r in last_on.reports.items()}
            != {n: strip_int(r) for n, r in last_off.reports.items()}):
        raise AssertionError(
            "side-channel INT run diverged from the INT-off run -- "
            "run tests/test_int.py"
        )
    ratios.sort()
    overhead = ratios[len(ratios) // 2] - 1.0
    postcards = sum(
        len(report.get("int", ())) for report in last_on.reports.values())
    return {
        "workload": "rack_fanin_3nic",
        "rounds": len(ratios),
        "frames": rack_frames,
        "postcards": postcards,
        "ratio_spread": [round(ratios[0], 4), round(ratios[-1], 4)],
        "overhead_frac": round(overhead, 4),
    }


def check_floor(results: dict, floor_path: str, tolerance: float,
                telemetry: Optional[dict] = None,
                int_overhead: Optional[dict] = None) -> int:
    with open(floor_path) as fh:
        floor = json.load(fh)
    failures = 0
    for metric in ("events_per_sec", "events_per_sec_batched"):
        for name, bounds in floor.get(metric, {}).items():
            if name not in results:
                continue
            got = results[name][metric]
            allowed = bounds * (1.0 - tolerance)
            status = "ok" if got >= allowed else "REGRESSION"
            print(f"floor check {name} [{metric}]: {got:,.0f} events/s "
                  f"vs floor {bounds:,.0f} (min allowed {allowed:,.0f}) "
                  f"-> {status}")
            if got < allowed:
                failures += 1
    max_overhead = floor.get("telemetry_overhead_max_frac")
    if telemetry is not None and max_overhead is not None:
        got = telemetry["overhead_frac"]
        status = "ok" if got <= max_overhead else "REGRESSION"
        print(f"floor check telemetry_idle: {got:+.2%} overhead vs max "
              f"{max_overhead:.0%} -> {status}")
        if got > max_overhead:
            failures += 1
    max_int = floor.get("int_overhead_max_frac")
    if int_overhead is not None and max_int is not None:
        got = int_overhead["overhead_frac"]
        status = "ok" if got <= max_int else "REGRESSION"
        print(f"floor check int_idle: {got:+.2%} overhead vs max "
              f"{max_int:.0%} -> {status}")
        if got > max_int:
            failures += 1
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_kernel.json")
    parser.add_argument("--workloads", default="all",
                        help="comma-separated subset of: "
                             + ",".join(WORKLOADS))
    parser.add_argument("--frames", type=int, default=None,
                        help="override per-workload frame count")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--floor", default=None,
                        help="floor JSON to regress events/sec against")
    parser.add_argument("--tolerance", type=float, default=0.30)
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="also cProfile one batched run per workload "
                             "and embed the top-N functions by cumulative "
                             "time in the output JSON")
    parser.add_argument("--int-overhead", action="store_true",
                        help="also measure side-channel INT overhead on a "
                             "small monolithic rack and gate it against "
                             "floor.json's int_overhead_max_frac")
    args = parser.parse_args(argv)

    names = (list(WORKLOADS) if args.workloads == "all"
             else [n.strip() for n in args.workloads.split(",") if n.strip()])
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads: {unknown}")

    results = {}
    for name in names:
        results[name] = bench_workload(
            name, args.seed, args.frames, args.repeats)
        r = results[name]
        print(f"{name}: {r['speedup_wall']}x wall speedup, "
              f"{r['events_per_sec']:,} events/s (normalized), "
              f"{r['speedup_wall_batched']}x batched "
              f"({r['events_per_sec_batched']:,} events/s), "
              f"{r['sim_gbps_per_wall_sec']} sim-Gb per wall-second")

    telemetry = None
    if "chaining_uncontended" in names:
        telemetry = bench_telemetry_overhead(
            args.seed, args.frames, args.repeats)
        print(f"telemetry idle overhead: {telemetry['overhead_frac']:+.2%} "
              "wall (enabled-but-idle vs none)")

    int_overhead = None
    if args.int_overhead:
        int_overhead = bench_int_overhead(
            args.seed, args.frames, args.repeats)
        print(f"INT side-channel overhead: "
              f"{int_overhead['overhead_frac']:+.2%} wall "
              f"({int_overhead['postcards']} postcards on the "
              f"{int_overhead['frames']}-frame fanin rack)")

    series = [
        {"workload": name, "metric": metric, "value": results[name][metric]}
        for name in results
        for metric in ("speedup_wall", "events_per_sec",
                       "events_per_sec_raw", "sim_gbps_per_wall_sec",
                       "speedup_wall_batched", "events_per_sec_batched",
                       "events_per_sec_batched_raw")
    ]
    if telemetry is not None:
        series.append({"workload": "telemetry_idle",
                       "metric": "overhead_frac",
                       "value": telemetry["overhead_frac"]})
    if int_overhead is not None:
        series.append({"workload": "int_idle",
                       "metric": "overhead_frac",
                       "value": int_overhead["overhead_frac"]})
    payload = envelope(
        bench="kernel_fast_path",
        params={"repeats": args.repeats, "seed": args.seed,
                "frames": args.frames, "workloads": names},
        workloads=results,
        series=series,
    )
    if telemetry is not None:
        payload["telemetry_overhead"] = telemetry
    if int_overhead is not None:
        payload["int_overhead"] = int_overhead
    if args.profile:
        payload["profiles"] = {
            name: profile_workload(name, args.seed, args.frames,
                                   args.profile)
            for name in names
        }
    write_json(args.out, payload)

    if args.floor:
        failures = check_floor(results, args.floor, args.tolerance,
                               telemetry=telemetry,
                               int_overhead=int_overhead)
        if failures:
            print(f"{failures} workload(s) under the perf floor",
                  file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
