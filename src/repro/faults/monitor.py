"""Heartbeat health monitoring: one detection rule, two adapters.

:class:`Heartbeat` is the simulator's only failure detector.  Every
``period_ps`` it probes each live target; a target whose last echo is
older than ``timeout_ps`` is declared failed instead of probed, so
detection lands within ``timeout_ps`` plus one ``period_ps`` of the
last echo.  A target seen for the first time, or forgotten by
:meth:`Heartbeat.clear`, gets a full timeout of grace; any echo, a late
one too, is evidence of life.

:class:`HealthMonitor` adapts it to engine tiles: it occupies a free
mesh tile and probes the watched engines with zero-byte CONTROL
packets, which ride the mesh, the target's PIFO and its service loop
before the echo comes back (:meth:`repro.engines.base.Engine._echo_heartbeat`),
so a reply proves the whole tile is live.  Declaring an engine asks the
NIC to route around it
(:meth:`repro.core.panic.PanicNic.handle_engine_failure`).
:class:`repro.lb.monitor.BackendHealthMonitor` adapts it to the load
balancer's backends.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional

from repro.noc.router import Endpoint
from repro.packet.packet import MessageKind, Packet
from repro.sim.clock import US
from repro.sim.kernel import Component

#: :class:`HealthMonitor`'s probe interval, and the echo age past which
#: it declares an engine dead.
PERIOD_PS = 2 * US
TIMEOUT_PS = 4 * US


class Heartbeat:
    """The detection rule, its lifecycle and its counters.

    A subclass sets ``sim``, calls :meth:`echo` when a target answers
    and supplies ``_targets()`` (the live targets, in probe order),
    ``_probe(target)`` and ``_declare(target)`` (True when the target
    was declared, False to keep probing it).
    """

    def __init__(self, period_ps: int, timeout_ps: int):
        if period_ps <= 0 or timeout_ps <= period_ps:
            raise ValueError(
                f"need 0 < period_ps < timeout_ps, got "
                f"{period_ps} / {timeout_ps}"
            )
        self.period_ps = period_ps
        self.timeout_ps = timeout_ps
        self.probes_sent = 0
        self.echoes_seen = 0
        self.failures_detected = 0
        #: target -> instant its silence was declared a failure.
        self.detected: Dict[Hashable, int] = {}
        self._last_seen: Dict[Hashable, int] = {}
        self._running = False
        self._gen = 0

    def start(self) -> None:
        """Begin probing; the first probes go out now.  Targets get a
        full timeout of grace from here before silence can be declared."""
        if self._running:
            raise RuntimeError("monitor already running")
        self._running = True
        self._gen += 1
        self._tick(self._gen)

    def stop(self) -> None:
        """Stop probing so the event heap can drain.  Idempotent."""
        self._running = False
        self._gen += 1

    def clear(self, target: Hashable) -> None:
        """Forget a declared failure (e.g. after the target recovered);
        it gets a full timeout of grace from the next tick.  The count
        of failures detected keeps it."""
        self.detected.pop(target, None)
        self._last_seen.pop(target, None)

    def echo(self, target: Hashable) -> None:
        """Record that ``target`` answered a probe."""
        self.echoes_seen += 1
        self._last_seen[target] = self.sim.now

    def _tick(self, gen: int) -> None:
        if not self._running or gen != self._gen:
            return
        now = self.sim.now
        for target in self._targets():
            last = self._last_seen.setdefault(target, now)
            if now - last > self.timeout_ps and self._declare(target):
                self.failures_detected += 1
                self.detected[target] = now
                continue
            self._probe(target)
            self.probes_sent += 1
        self.sim.schedule_at(now + self.period_ps, self._tick, gen)

    def stats(self) -> Dict[str, int]:
        return {
            "hb_probes_sent": self.probes_sent,
            "hb_echoes_seen": self.echoes_seen,
            "hb_failures_detected": self.failures_detected,
        }

    def report(self) -> dict:
        return {
            "detected": dict(self.detected),
            **self.stats(),
        }


class HealthMonitor(Component, Endpoint, Heartbeat):
    """Mesh-resident watchdog for engine tiles.

    Binds itself to the last free tile of ``nic``'s mesh.

    Parameters
    ----------
    nic:
        The NIC whose engines are watched (and asked to fail over).
    engines:
        Engine keys to probe; defaults to the configured offloads -- the
        engines with failover semantics.  Fixed-function tiles (MACs,
        DMA, PCIe, RMT) can be added explicitly.

    It probes every :data:`PERIOD_PS` and declares an engine dead once
    its last echo is :data:`TIMEOUT_PS` old.
    """

    def __init__(
        self,
        nic,
        engines: Optional[Iterable[str]] = None,
    ):
        Component.__init__(self, nic.sim, f"{nic.name}.monitor")
        Heartbeat.__init__(self, PERIOD_PS, TIMEOUT_PS)
        self.nic = nic
        # Engine address -> key, in probe order; nic.offload fails fast
        # on a typo.
        self._key_of: Dict[int, str] = {
            nic.offload(key).address: key
            for key in (engines if engines is not None
                        else nic.config.offloads)
        }
        free = nic.mesh.unbound_tiles()
        if not free:
            raise RuntimeError(
                f"{nic.name}: no free mesh tile for the health monitor; "
                "use a larger mesh"
            )
        self.port = nic.mesh.bind(self, *free[-1])

    def _targets(self):
        return [key for key in self._key_of.values()
                if key not in self.detected]

    def _probe(self, key: str) -> None:
        probe = Packet(b"", MessageKind.CONTROL)
        probe.meta.annotations["hb_reply_to"] = self.address
        self.port.send(probe, self.nic.offload(key).address)

    def _declare(self, key: str) -> bool:
        self.nic.handle_engine_failure(key)
        return True

    def receive(self, packet: Packet) -> None:
        key = self._key_of.get(packet.meta.annotations.get("hb_echo_from"))
        if key is not None:
            self.echo(key)


def attach_health_monitor(
    nic,
    engines: Optional[Iterable[str]] = None,
) -> HealthMonitor:
    """Bind a :class:`HealthMonitor` to a free mesh tile of ``nic``.

    Sets ``nic.monitor`` (so fault counters appear in ``nic.stats()``)
    and returns the monitor; call :meth:`HealthMonitor.start` to begin
    probing and :meth:`HealthMonitor.stop` before draining the sim.
    """
    monitor = HealthMonitor(nic, engines=engines)
    nic.monitor = monitor
    return monitor
