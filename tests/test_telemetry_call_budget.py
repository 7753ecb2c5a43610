"""Call budget of telemetry: Python calls per frame, counted exactly.

Telemetry promises to cost nothing when off, next to nothing when
enabled but idle, and a bounded amount when INT is armed (DESIGN.md
sections 11 and 16).  cProfile's ``ncalls`` are deterministic, so this
gate needs no wall clock: it counts every call ``repro`` code makes in
a run, with the feature on and off, and holds what the feature adds per
frame to a ceiling.  Two run lengths are differenced so per-run
constants (report gathering, INT summaries) cancel and the per-frame
figure is an integer.

* off: ``telemetry=None`` on the five-engine chain makes no call into
  ``repro/telemetry/`` at all.
* idle: ``TelemetryConfig(sample_every=0)`` on the
  same chain -- nothing can ever be sampled, so all that runs is one
  ``PacketTracer.maybe_trace`` call per injected frame.
* armed: side-channel ``IntConfig()`` on the 3-NIC fan-in rack -- per
  offered frame, the TX frame's context made at the DMA tile, the
  capsule's context adopted at the sink's inject, the enqueue feed at
  every engine, the hop push at transmit and the sink's pop, all
  through the frame's one trace context.

Either way the simulated results must not move: the idle run's
deliveries and stats equal the off run's, and the armed run's per-NIC
reports equal the off run's apart from their ``int`` keys.

The budgets are 3 calls per frame idle and 75 armed.  The ceilings sit
at what the code reaches, not at the budgets, because counts are
integers: one call planted in ``maybe_trace`` or in
``IntAgent.on_transmit`` must fail this test.  Raise a ceiling only
with the ledger's ``telemetry.self_s`` / ``telemetry.armed_wall_ratio``
that justify it.
"""

import cProfile

from repro.core import PanicConfig, PanicNic
from repro.packet import Packet, build_udp_frame
from repro.sim import Simulator
from repro.sim.clock import NS, US
from repro.sim.shard import run_monolithic
from repro.telemetry import TelemetryConfig
from repro.telemetry.config import IntConfig
from repro.workloads.rack import rack_topology

SHORT, LONG = 20, 40
CHAIN = ("checksum", "checksum1", "checksum2", "checksum3", "checksum4")
IDLE = TelemetryConfig(sample_every=0)
SENDERS = 2

#: (calls per frame reached when this gate was written, ceiling).  They
#: were (2, 2) and (71, 71) while INT had a slot of its own on every
#: tile and the host; by then the code reached 1 and 62, so a planted
#: call no longer failed.  INT fed through the trace context reaches 43
#: (Python 3.10, 3.11 and 3.12 alike).
IDLE_PER_FRAME = (1, 1)
ARMED_PER_OFFERED_FRAME = (43, 43)


def profiled(func, *args):
    """``(result, calls made by repro code, calls made by repro.telemetry
    code)``: a module's own functions plus the builtins they invoke.
    Calls made by anything else are left out -- hypothesis installs
    garbage-collector callbacks, and when a collection lands inside a
    run is not the simulator's doing."""
    profile = cProfile.Profile()
    result = profile.runcall(func, *args)
    total = own = 0
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str) or "/repro/" not in code.co_filename:
            continue
        calls = entry.callcount + sum(
            sub.callcount for sub in entry.calls or ()
            if isinstance(sub.code, str))
        total += calls
        if "/repro/telemetry/" in code.co_filename:
            own += calls
    return result, total, own


def run_chain(frames: int, telemetry):
    """One frame in flight at a time through five checksum engines."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=CHAIN, seed=1, telemetry=telemetry))
    nic.control.route_dscp(1, list(CHAIN))
    delivered = []
    nic.host.software_handler = (
        lambda packet, queue: delivered.append((sim.now, packet.frame_bytes)))
    frame = build_udp_frame(
        src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
        src_ip="10.0.0.1", dst_ip="10.0.0.2",
        src_port=7777, dst_port=8888, dscp=1, payload=b"y" * 200,
    )
    for index in range(frames):
        sim.schedule_at(index * 20 * US, nic.inject, Packet(frame))
    _, total, own = profiled(sim.run)
    assert len(delivered) == frames
    return (delivered, nic.stats()), total, own


def run_rack(frames: int, int_):
    topology = rack_topology(
        nics=3, pattern="fanin", frames=frames, gap_ps=1000 * NS,
        propagation_ps=8000 * NS, seed=1, int_=int_)
    result, total, _ = profiled(run_monolithic, topology)
    return result.reports, total


def per_frame(added_short: int, added_long: int, frames: int) -> int:
    count, remainder = divmod(added_long - added_short, frames)
    assert remainder == 0, "the per-frame call count is not constant"
    return count


def without_int(reports: dict) -> dict:
    # The postcard list and the per-NIC stats()["int"] summary exist only
    # on the armed side.
    stripped = {}
    for name, report in reports.items():
        stripped[name] = {k: v for k, v in report.items() if k != "int"}
        stripped[name]["stats"] = {
            k: v for k, v in report["stats"].items() if k != "int"}
    return stripped


def test_telemetry_off_makes_no_telemetry_calls():
    _, _, own = run_chain(SHORT, None)
    assert own == 0


def test_idle_telemetry_call_budget():
    run_chain(1, None)  # fill the process-wide caches a first frame fills
    added = []
    for frames in (SHORT, LONG):
        off, off_calls, _ = run_chain(frames, None)
        on, on_calls, _ = run_chain(frames, IDLE)
        assert on == off, "idle telemetry changed simulated results"
        added.append(on_calls - off_calls)
    count = per_frame(*added, LONG - SHORT)
    assert count <= IDLE_PER_FRAME[1], (
        f"idle telemetry adds {count} calls per frame "
        f"(was {IDLE_PER_FRAME[0]} when the budget was set)")


def test_armed_int_call_budget():
    run_rack(1, IntConfig())  # likewise
    added = []
    for frames in (SHORT, LONG):
        off, off_calls = run_rack(frames, None)
        on, on_calls = run_rack(frames, IntConfig())
        assert without_int(on) == without_int(off), (
            "side-channel INT changed simulated results")
        assert sum(len(report["int"]) for report in on.values()) \
            == SENDERS * frames
        added.append(on_calls - off_calls)
    count = per_frame(*added, SENDERS * (LONG - SHORT))
    assert count <= ARMED_PER_OFFERED_FRAME[1], (
        f"armed INT adds {count} calls per offered frame "
        f"(was {ARMED_PER_OFFERED_FRAME[0]} when the budget was set)")
