"""Call budget of telemetry: Python calls per frame, counted exactly.

Telemetry promises to cost nothing when off, next to nothing when
enabled but idle, and a bounded amount when INT is armed (DESIGN.md
sections 11 and 16).  cProfile's ``ncalls`` are deterministic, so this
gate needs no wall clock: it counts every call into ``repro`` code and
every builtin it calls in a run (``tests/pins.py``), with the feature on
and off, and holds what the feature adds per frame to what the code
reaches (``tests/pins.json``).  Two run lengths are differenced so per-run
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
``IntAgent.on_transmit`` must fail this test.  Re-record a rise only
with the ledger's ``telemetry.self_s`` / ``telemetry.armed_wall_ratio``
that justify it.
EXPERIMENTS.md "Known deviations" lists every past move.
"""

from repro.core import PanicConfig, PanicNic
from repro.packet import Packet, build_udp_frame
from repro.sim import Simulator
from repro.sim.clock import NS, US
from repro.sim.shard import run_monolithic
from repro.telemetry import TelemetryConfig
from repro.telemetry.config import IntConfig
from repro.workloads.rack import rack_topology
from tests import pins

SHORT, LONG = 20, 40
CHAIN = ("checksum", "checksum1", "checksum2", "checksum3", "checksum4")
IDLE = TelemetryConfig(sample_every=0)
SENDERS = 2


def run_chain(frames: int, telemetry, package="repro/"):
    """One frame in flight at a time through five checksum engines;
    returns what the run produced and the calls ``package`` made."""
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
    count = pins.calls(package, sim.run)
    assert len(delivered) == frames
    return (delivered, nic.stats()), count


def run_rack(frames: int, int_):
    topology = rack_topology(
        nics=3, pattern="fanin", frames=frames, gap_ps=1000 * NS,
        propagation_ps=8000 * NS, seed=1, int_=int_)
    results = []
    count = pins.calls("repro/", lambda: results.append(
        run_monolithic(topology)))
    return results[0].reports, count


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
    _, own = run_chain(SHORT, None, "repro/telemetry/")
    assert own == 0


def test_idle_telemetry_call_budget():
    run_chain(1, None)  # fill the process-wide caches a first frame fills
    added = []
    for frames in (SHORT, LONG):
        off, off_calls = run_chain(frames, None)
        on, on_calls = run_chain(frames, IDLE)
        assert on == off, "idle telemetry changed simulated results"
        added.append(on_calls - off_calls)
    pins.budget("calls.telemetry.idle_per_frame",
                pins.per(added[1] - added[0], LONG - SHORT))


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
    pins.budget("calls.telemetry.armed_per_offered_frame",
                pins.per(added[1] - added[0], SENDERS * (LONG - SHORT)))
