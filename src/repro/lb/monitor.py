"""Backend liveness for the load balancer: heartbeats over the cables.

The LB host probes every live backend periodically with a magic-tagged
UDP payload; each backend's host echoes it straight back.  Probes and
echoes ride the exact data path client traffic uses -- host doorbell,
RMT classification, egress cable, the backend's DMA path -- so a
backend that went dark at its MACs (``NIC_DOWN``), wedged its pipeline,
or lost its cable all look identical: echoes stop.  When a backend's
last echo is older than ``timeout_ps`` the monitor calls
``steering.fail(backend)``, which re-epochs the VIP away from it.

Both sides are pure host software layered *around* the reliable
transport: :func:`attach_heartbeat_responder` and the monitor's own RX
hook wrap the NIC's existing ``software_handler`` and pass everything
that is not a heartbeat through unchanged.

Everything is deterministic -- fixed probe period, no RNG -- so
monitor-driven failovers replay bit-identically under sharded and
speculative execution (detection latency quantizes to the probe tick).
"""

from __future__ import annotations

import struct
from typing import Callable, Dict

from repro.sim.clock import US

#: Magic tag marking a heartbeat payload ("LB" in ASCII).
HB_MAGIC = 0x4C42
HB_PROBE = 0
HB_ECHO = 1

_HB = struct.Struct("!HBH")  # magic, type, sender rack index
HB_BYTES = _HB.size

#: Probe cadence and declaration threshold.  Heartbeats are sparse, so
#: both host crossings sit on the PCIe engine's interrupt-coalescing
#: *timeout* path (10 us each side when fewer than ``coalesce_count``
#: completions are pending) on top of software delays and NIC
#: traversals: a healthy backend can legitimately go ~27 us between
#: echoes.  The timeout clears that worst case with margin -- no false
#: failover -- while a dark backend is still declared well inside the
#: monitor's 150 us run.
DEFAULT_HB_PERIOD_PS = 5 * US
DEFAULT_HB_TIMEOUT_PS = 45 * US


def pack_heartbeat(hb_type: int, index: int) -> bytes:
    return _HB.pack(HB_MAGIC, hb_type, index)


def parse_heartbeat(payload: bytes):
    """``(type, sender)`` when ``payload`` starts with a heartbeat,
    else None."""
    if len(payload) < HB_BYTES:
        return None
    magic, hb_type, index = _HB.unpack_from(payload)
    if magic != HB_MAGIC or hb_type not in (HB_PROBE, HB_ECHO):
        return None
    return hb_type, index


def attach_heartbeat_responder(
    nic,
    index: int,
    frame_builder: Callable[[int, bytes], bytes],
    *,
    payload_offset: int = 42,
) -> None:
    """Make a backend's host echo heartbeat probes.

    Wraps the NIC's current ``software_handler`` (the reliable
    transport's RX hook): probes are swallowed and echoed to their
    sender, everything else passes through.  ``frame_builder`` must
    address the *real* host IP of peer ``dst`` -- echoing to the VIP
    would bounce off the LB's own ``vip_steer`` back into a backend.
    """
    inner = nic.host.software_handler

    def dispatch(packet, queue: int) -> None:
        parsed = parse_heartbeat(packet.data[payload_offset:])
        if parsed is not None:
            hb_type, sender = parsed
            if hb_type == HB_PROBE:
                nic.host.enqueue_tx(
                    frame_builder(sender, pack_heartbeat(HB_ECHO, index))
                )
            return  # echoes addressed here are stray; swallow them too
        if inner is not None:
            inner(packet, queue)

    nic.host.software_handler = dispatch


class BackendHealthMonitor:
    """The LB-side half: probe, listen, declare, fail out.

    Parameters
    ----------
    nic:
        The load balancer's NIC (probes leave through its pipeline).
    index:
        The LB's rack index (stamped into probes).
    steering:
        The :class:`~repro.lb.steering.LbSteering` to call ``fail`` on.
    frame_builder:
        ``frame_builder(dst, payload) -> bytes`` addressing backend
        ``dst``'s real host IP.
    """

    def __init__(
        self,
        nic,
        index: int,
        steering,
        frame_builder: Callable[[int, bytes], bytes],
        *,
        period_ps: int = DEFAULT_HB_PERIOD_PS,
        timeout_ps: int = DEFAULT_HB_TIMEOUT_PS,
        payload_offset: int = 42,
    ):
        if period_ps <= 0 or timeout_ps <= period_ps:
            raise ValueError(
                f"need 0 < period_ps < timeout_ps, got "
                f"{period_ps} / {timeout_ps}"
            )
        self.nic = nic
        self.index = index
        self.steering = steering
        self.frame_builder = frame_builder
        self.period_ps = period_ps
        self.timeout_ps = timeout_ps
        self.probes_sent = 0
        self.echoes_seen = 0
        #: backend -> instant its silence was declared a failure.
        self.detected: Dict[int, int] = {}
        self._last_seen: Dict[int, int] = {}
        self._running = False
        self._gen = 0

        inner = nic.host.software_handler

        def dispatch(packet, queue: int) -> None:
            parsed = parse_heartbeat(packet.data[payload_offset:])
            if parsed is not None:
                hb_type, sender = parsed
                if hb_type == HB_ECHO:
                    self.echoes_seen += 1
                    self._last_seen[sender] = nic.sim.now
                return
            if inner is not None:
                inner(packet, queue)

        nic.host.software_handler = dispatch

    def start(self) -> None:
        """Begin probing.  Backends get a full timeout of grace from
        here before silence can be declared."""
        if self._running:
            raise RuntimeError("monitor already running")
        self._running = True
        self._gen += 1
        now = self.nic.sim.now
        for backend in self.steering.live_backends():
            self._last_seen.setdefault(backend, now)
        self._tick(self._gen)

    def stop(self) -> None:
        """Stop probing so the event heap can drain.  Idempotent."""
        self._running = False
        self._gen += 1

    def _tick(self, gen: int) -> None:
        if not self._running or gen != self._gen:
            return
        now = self.nic.sim.now
        for backend in self.steering.live_backends():
            last = self._last_seen.setdefault(backend, now)
            if now - last > self.timeout_ps:
                # Never empty the live set: with one backend left there
                # is nowhere to steer, so keep probing and hope.
                if len(self.steering.live_backends()) > 1:
                    if self.steering.fail(backend):
                        self.detected[backend] = now
                    continue
            self.nic.host.enqueue_tx(
                self.frame_builder(backend,
                                   pack_heartbeat(HB_PROBE, self.index))
            )
            self.probes_sent += 1
        self.nic.sim.schedule_at(now + self.period_ps, self._tick, gen)

    def stats(self) -> Dict[str, int]:
        return {
            "hb_probes_sent": self.probes_sent,
            "hb_echoes_seen": self.echoes_seen,
            "hb_failures_detected": len(self.detected),
        }

    def report(self) -> dict:
        return {
            "detected": dict(self.detected),
            **self.stats(),
        }
