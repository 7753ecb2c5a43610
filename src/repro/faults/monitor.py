"""Heartbeat health monitoring and failure-driven recovery.

The :class:`HealthMonitor` occupies a free mesh tile like any other
engine and probes the watched engines with zero-byte CONTROL packets.
Probes ride the mesh, the target's PIFO, and its service loop before the
echo comes back (see :meth:`repro.engines.base.Engine._echo_heartbeat`),
so a reply proves the whole tile is live -- router, queue, and engine.
A probe outstanding past the timeout fires the watchdog: the monitor
declares the engine failed and asks the NIC to recompute routes around
it (:meth:`repro.core.panic.PanicNic.handle_engine_failure`).

Detection latency is bounded by ``timeout_ps`` plus one ``period_ps``
(the watchdog is evaluated at tick granularity).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.noc.message import NocMessage
from repro.noc.router import Endpoint
from repro.packet.packet import MessageKind, Packet
from repro.sim.clock import US
from repro.sim.kernel import Component, Event
from repro.sim.stats import LatencyTracker


class HealthMonitor(Component, Endpoint):
    """Mesh-resident watchdog for engine tiles.

    Parameters
    ----------
    nic:
        The NIC whose engines are watched (and asked to fail over).
    engines:
        Engine keys to probe; defaults to the configured offloads -- the
        engines with failover semantics.  Fixed-function tiles (MACs,
        DMA, PCIe, RMT) can be added explicitly.
    period_ps, timeout_ps:
        Probe interval and the outstanding-probe age at which the
        watchdog declares the engine dead.
    """

    def __init__(
        self,
        nic,
        engines: Optional[Iterable[str]] = None,
        period_ps: int = 2 * US,
        timeout_ps: int = 4 * US,
        name: Optional[str] = None,
    ):
        Component.__init__(self, nic.sim, name or f"{nic.name}.monitor")
        if period_ps <= 0 or timeout_ps <= 0:
            raise ValueError("heartbeat period and timeout must be positive")
        self.nic = nic
        self.period_ps = period_ps
        self.timeout_ps = timeout_ps
        watch = list(engines) if engines is not None else list(nic.config.offloads)
        for key in watch:
            nic.offload(key)  # fail fast on typos
        self._watch: List[str] = watch
        self._key_of: Dict[int, str] = {
            nic.offload(key).address: key for key in watch
        }
        #: engine key -> (sequence number, send time) of the live probe.
        self._outstanding: Dict[str, Tuple[int, int]] = {}
        #: engine key -> detection time of a declared failure.
        self.failed_at: Dict[str, int] = {}
        self._seq = 0
        self._tick_event: Optional[Event] = None
        self._running = False
        self.port = None  # set when bound to the mesh
        self.heartbeats_sent = 0
        self.echoes_received = 0
        self.watchdog_fires = 0
        self.failures_detected = 0
        self.rtt = LatencyTracker(f"{self.name}.rtt")

    def bind_port(self, port) -> None:
        self.port = port

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin probing.  The first probes go out immediately."""
        if self.port is None:
            raise RuntimeError(
                f"{self.name}: not bound to the mesh; use attach_health_monitor"
            )
        if self._running:
            return
        self._running = True
        self._tick_event = self.schedule(0, self._tick)

    def stop(self) -> None:
        """Stop probing and cancel the pending tick.

        Without a stop the periodic tick keeps the event heap alive
        forever, so ``sim.run()`` with no horizon would never return.
        """
        self._running = False
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None
        self._outstanding.clear()

    def clear(self, key: str) -> None:
        """Forget a declared failure (e.g. after the engine recovered)."""
        self.failed_at.pop(key, None)
        self._outstanding.pop(key, None)

    # ------------------------------------------------------------------
    # Probe loop
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self._tick_event = None
        if not self._running:
            return
        for key in self._watch:
            if key in self.failed_at:
                continue
            outstanding = self._outstanding.get(key)
            if outstanding is not None:
                _seq, sent_ps = outstanding
                if self.now - sent_ps >= self.timeout_ps:
                    self.watchdog_fires += 1
                    self._declare_failed(key)
                # Probe still in flight (or just timed out): don't pile
                # a second one onto a slow or wedged engine.
                continue
            self._probe(key)
        if self._running:
            self._tick_event = self.schedule(self.period_ps, self._tick)

    def _probe(self, key: str) -> None:
        self._seq += 1
        probe = Packet(b"", MessageKind.CONTROL)
        probe.meta.annotations["hb_reply_to"] = self.address
        probe.meta.annotations["hb_seq"] = self._seq
        self._outstanding[key] = (self._seq, self.now)
        self.heartbeats_sent += 1
        self.port.send(probe, self.nic.offload(key).address)

    def _declare_failed(self, key: str) -> None:
        self.failures_detected += 1
        self.failed_at[key] = self.now
        self._outstanding.pop(key, None)
        self.nic.handle_engine_failure(key)

    # ------------------------------------------------------------------
    # Endpoint interface (echo reception)
    # ------------------------------------------------------------------

    def receive(self, message: NocMessage) -> None:
        annotations = message.packet.meta.annotations
        source = annotations.get("hb_echo_from")
        key = self._key_of.get(source)
        if key is None:
            return
        self.echoes_received += 1
        outstanding = self._outstanding.get(key)
        if outstanding is None:
            return  # stale echo (engine already declared failed, or reset)
        seq, sent_ps = outstanding
        if annotations.get("hb_seq") != seq:
            return
        self.rtt.observe(sent_ps, self.now)
        del self._outstanding[key]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        return {
            "heartbeats_sent": self.heartbeats_sent,
            "echoes_received": self.echoes_received,
            "watchdog_fires": self.watchdog_fires,
            "failures_detected": self.failures_detected,
        }


def attach_health_monitor(
    nic,
    engines: Optional[Iterable[str]] = None,
    period_ps: int = 2 * US,
    timeout_ps: int = 4 * US,
) -> HealthMonitor:
    """Bind a :class:`HealthMonitor` to a free mesh tile of ``nic``.

    Sets ``nic.monitor`` (so fault counters appear in ``nic.stats()``)
    and returns the monitor; call :meth:`HealthMonitor.start` to begin
    probing and :meth:`HealthMonitor.stop` before draining the sim.
    """
    free = nic.mesh.unbound_tiles()
    if not free:
        raise RuntimeError(
            f"{nic.name}: no free mesh tile for the health monitor; "
            "use a larger mesh"
        )
    monitor = HealthMonitor(
        nic, engines=engines, period_ps=period_ps, timeout_ps=timeout_ps
    )
    x, y = free[-1]
    port = nic.mesh.bind(monitor, x, y)
    monitor.bind_port(port)
    nic.monitor = monitor
    return monitor
