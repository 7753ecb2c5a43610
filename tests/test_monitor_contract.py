"""The heartbeat contract, held to both of its adapters.

:class:`repro.faults.monitor.Heartbeat` is the one detection rule; the
engine watchdog (:class:`~repro.faults.monitor.HealthMonitor`, CONTROL
probes over a NIC's mesh) and the load balancer's backend monitor
(:class:`~repro.lb.monitor.BackendHealthMonitor`, UDP heartbeats over a
rack's cables) only say what a target is, how to probe it and what
declaring it does.  Each harness below runs one adapter in its natural
setting and silences targets from a given instant on: a crashed engine
tile, a backend NIC gone dark.

Silence begins, as far as a monitor can know, at the last echo it
hears.  Over the mesh that is before the crash; over the cables an echo
already on its way reaches the LB host up to a PCIe interrupt-coalescing
timeout after its backend went dark (``repro.lb.monitor``).
"""

import pytest

from repro import PanicConfig, PanicNic, Simulator
from repro.faults import FaultPlan, attach_health_monitor
from repro.lb import DEFAULT_HB_PERIOD_PS, DEFAULT_HB_TIMEOUT_PS
from repro.lb import rack as lb_rack
from repro.lb.monitor import BackendHealthMonitor
from repro.lb.rack import lb_rack_topology
from repro.sim.clock import US
from repro.sim.shard import run_monolithic


def listen(monitor):
    """Record on ``monitor.heard`` when each target was last heard."""
    monitor.heard = {}
    echo = monitor.echo

    def heard(target):
        monitor.heard[target] = monitor.sim.now
        echo(target)

    monitor.echo = heard


class EngineWatchdog:
    """Two IPSec lanes on one NIC, watched over its mesh."""

    period_ps, timeout_ps = 2 * US, 4 * US
    targets = ("ipsec", "ipsec1")

    def run(self, silent=None, stop_ps=60 * US):
        sim = Simulator()
        nic = PanicNic(sim, PanicConfig(
            ports=1, offloads=("ipsec", "ipsec1", "compression", "kvcache")))
        nic.set_backup("ipsec", "ipsec1")
        monitor = attach_health_monitor(
            nic, engines=self.targets,
            period_ps=self.period_ps, timeout_ps=self.timeout_ps)
        listen(monitor)
        monitor.start()
        for key, onset in (silent or {}).items():
            sim.schedule_at(onset, nic.offload(key).fail, "crash")
        sim.schedule_at(stop_ps, monitor.stop)
        sim.run()
        return monitor


class BackendMonitor:
    """A five-NIC load-balanced rack: the LB and two backends."""

    period_ps, timeout_ps = DEFAULT_HB_PERIOD_PS, DEFAULT_HB_TIMEOUT_PS
    targets = (1, 2)

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def run(self, silent=None, stop_ps=150 * US):
        monitors = []

        class Captured(BackendHealthMonitor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                listen(self)
                monitors.append(self)

        self.monkeypatch.setattr(lb_rack, "BackendHealthMonitor", Captured)
        plan = FaultPlan(seed=0)
        for backend, onset in (silent or {}).items():
            plan.nic_down(onset, f"nic{backend}")
        run_monolithic(lb_rack_topology(nics=5, n_backends=2, frames=5,
                                        monitor_stop_ps=stop_ps),
                       fault_plan=plan)
        (monitor,) = monitors
        return monitor


@pytest.fixture(params=["engine", "lb"])
def adapter(request, monkeypatch):
    if request.param == "engine":
        return EngineWatchdog()
    return BackendMonitor(monkeypatch)


def test_silence_is_declared_within_timeout_plus_period(adapter):
    target = adapter.targets[0]
    crash = 21 * US + 300
    monitor = adapter.run(silent={target: crash})
    assert monitor.detected.keys() == {target}
    onset = monitor.heard[target]
    assert crash < monitor.detected[target]
    assert onset < monitor.detected[target] \
        <= onset + adapter.timeout_ps + adapter.period_ps
    # ... and no sooner than a full timeout of silence.
    assert monitor.detected[target] - onset > adapter.timeout_ps
    assert monitor.failures_detected == 1
    assert monitor.stats()["hb_failures_detected"] == 1


def test_echoing_targets_are_never_declared(adapter):
    monitor = adapter.run()
    assert monitor.detected == {}
    assert monitor.failures_detected == 0
    assert monitor.probes_sent >= len(adapter.targets) * 10
    assert monitor.echoes_seen > 0


def test_stop_lets_the_run_drain(adapter):
    # ``run`` returned, so the heap emptied: the tick left pending at
    # stop() found its generation stale and scheduled nothing.
    stop_ps = 30 * US
    monitor = adapter.run(stop_ps=stop_ps)
    assert monitor.sim.pending_events == 0
    assert monitor.probes_sent <= len(adapter.targets) * (
        stop_ps // adapter.period_ps + 1)
    assert monitor.stats() == {
        "hb_probes_sent": monitor.probes_sent,
        "hb_echoes_seen": monitor.echoes_seen,
        "hb_failures_detected": 0,
    }


def test_start_twice_is_refused(adapter):
    monitor = adapter.run(stop_ps=10 * US)
    monitor.start()
    with pytest.raises(RuntimeError, match="already running"):
        monitor.start()
    monitor.stop()


def test_lb_never_declares_its_last_live_backend(monkeypatch):
    harness = BackendMonitor(monkeypatch)
    onset = 21 * US + 300
    monitor = harness.run(silent={1: onset, 2: onset})
    # One backend is failed out; the other, as silent, is the last live
    # one: it keeps being probed rather than leave the VIP nowhere to go.
    assert len(monitor.detected) == 1
    assert monitor.steering.live_backends() == tuple(
        set(harness.targets) - set(monitor.detected))
    assert monitor.failures_detected == 1


def test_clear_gives_a_recovered_engine_a_full_timeout_of_grace():
    harness = EngineWatchdog()
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("ipsec", "ipsec1", "compression", "kvcache")))
    monitor = attach_health_monitor(
        nic, engines=["ipsec"],
        period_ps=harness.period_ps, timeout_ps=harness.timeout_ps)
    monitor.start()
    sim.schedule_at(5 * US + 300, nic.offload("ipsec").fail, "stall")
    sim.run(until_ps=20 * US)
    first = monitor.detected["ipsec"]
    # The engine is still silent when the monitor forgets it: probing
    # resumes, and silence is declared again only a full timeout later.
    cleared = sim.now
    monitor.clear("ipsec")
    assert monitor.detected == {}
    sim.run(until_ps=40 * US)
    monitor.stop()
    nic.offload("ipsec").recover()   # release the parked probes
    sim.run()
    again = monitor.detected["ipsec"]
    assert first < cleared
    assert cleared + harness.timeout_ps < again \
        <= cleared + harness.timeout_ps + 2 * harness.period_ps
    assert monitor.failures_detected == 2
    assert nic.mesh.in_flight == 0
