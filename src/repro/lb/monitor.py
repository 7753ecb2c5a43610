"""Backend liveness for the load balancer: heartbeats over the cables.

The LB host probes every live backend periodically with a magic-tagged
UDP payload; each backend's host echoes it straight back.  Probes and
echoes ride the exact data path client traffic uses -- host doorbell,
RMT classification, egress cable, the backend's DMA path -- so a
backend that went dark at its MACs (``NIC_DOWN``), wedged its pipeline,
or lost its cable all look identical: echoes stop.  When a backend's
last echo is older than ``timeout_ps`` the monitor calls
``steering.fail(backend)``, which re-epochs the VIP away from it.  The
rule, its lifecycle and its counters are
:class:`repro.faults.monitor.Heartbeat`'s; this module keeps the wire
format, the backend's responder and the LB's adapter.

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
from typing import Callable

from repro.faults.monitor import Heartbeat
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


def _intercept_heartbeats(nic, payload_offset: int, on_heartbeat) -> None:
    """Wrap the NIC's current ``software_handler`` (the reliable
    transport's RX hook): heartbeats go to ``on_heartbeat(type,
    sender)`` and are swallowed, everything else passes through."""
    inner = nic.host.software_handler

    def dispatch(packet, queue: int) -> None:
        parsed = parse_heartbeat(packet.data[payload_offset:])
        if parsed is not None:
            on_heartbeat(*parsed)
        elif inner is not None:
            inner(packet, queue)

    nic.host.software_handler = dispatch


def attach_heartbeat_responder(
    nic,
    index: int,
    frame_builder: Callable[[int, bytes], bytes],
    *,
    payload_offset: int = 42,
) -> None:
    """Make a backend's host echo heartbeat probes to their sender
    (echoes addressed here are stray and swallowed too).

    ``frame_builder`` must address the *real* host IP of peer ``dst``
    -- echoing to the VIP would bounce off the LB's own ``vip_steer``
    back into a backend.
    """

    def respond(hb_type: int, sender: int) -> None:
        if hb_type == HB_PROBE:
            nic.host.enqueue_tx(
                frame_builder(sender, pack_heartbeat(HB_ECHO, index)))

    _intercept_heartbeats(nic, payload_offset, respond)


class BackendHealthMonitor(Heartbeat):
    """The LB-side adapter of :class:`~repro.faults.monitor.Heartbeat`:
    its targets are the steering live set, a probe is a UDP heartbeat
    the LB host transmits, and declaring a silent backend calls
    ``steering.fail`` -- unless it is the last live one.

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
        super().__init__(period_ps, timeout_ps)
        self.sim = nic.sim
        self.nic = nic
        self.index = index
        self.steering = steering
        self.frame_builder = frame_builder

        def listen(hb_type: int, sender: int) -> None:
            if hb_type == HB_ECHO:
                self.echo(sender)

        _intercept_heartbeats(nic, payload_offset, listen)

    def _targets(self):
        return self.steering.live_backends()

    def _probe(self, backend: int) -> None:
        self.nic.host.enqueue_tx(
            self.frame_builder(backend, pack_heartbeat(HB_PROBE, self.index))
        )

    def _declare(self, backend: int) -> bool:
        # Never empty the live set: with one backend left there is
        # nowhere to steer, so keep probing and hope.
        return (len(self.steering.live_backends()) > 1
                and self.steering.fail(backend))
