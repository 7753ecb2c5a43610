"""DCQCN-style congestion control as PANIC engines (Table 1: DCQCN,
"Infrastructure CPU-bypass Network").

Three cooperating pieces implement the classic ECN-based control loop
from Zhu et al. (SIGCOMM 2015), simplified but structurally faithful:

* :class:`EcnMarkerEngine` (congestion point) -- watches a downstream
  engine's queue (typically the DMA engine) and RED-marks ECN-capable
  packets CE between ``k_min`` and ``k_max`` queue depth;
* :class:`CnpResponder` (notification point) -- host-side helper that,
  on receiving a CE-marked packet, emits a Congestion Notification
  Packet (CNP) back toward the sender (rate-limited per flow);
* :class:`DcqcnRateController` + :class:`DcqcnEngine` (reaction point)
  -- the sender-side algorithm: multiplicative decrease on CNP, alpha
  EWMA, timer-driven fast recovery / additive increase, actuating a
  :class:`~repro.engines.ratelimit.RateLimiterEngine` bucket.

The controller is pure (no simulator) so the algorithm is unit-testable;
the engine wrapper wires it to simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.engines.base import Engine, EngineOutput
from repro.packet.builder import build_udp_frame, parse_frame
from repro.packet.headers import EthernetHeader, HeaderError, Ipv4Header
from repro.packet.packet import Packet
from repro.sim.clock import US
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRng

#: UDP port carrying congestion notification packets.
CNP_UDP_PORT = 4791  # RoCEv2's port, fittingly

#: IPv4 ECN codepoints.
ECN_NOT_ECT = 0
ECN_ECT1 = 1
ECN_ECT0 = 2
ECN_CE = 3


def build_cnp(flow_id: int, *, src_mac, dst_mac, src_ip, dst_ip) -> bytes:
    """A minimal CNP frame: the flow id rides in the payload."""
    return build_udp_frame(
        src_mac=src_mac,
        dst_mac=dst_mac,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=CNP_UDP_PORT,
        dst_port=CNP_UDP_PORT,
        payload=flow_id.to_bytes(4, "big"),
    )


def parse_cnp(data: bytes) -> Optional[int]:
    """Return the CNP's flow id, or None if this is not a CNP."""
    try:
        frame = parse_frame(data)
    except HeaderError:
        return None
    if frame.udp is None or frame.udp.dst_port != CNP_UDP_PORT:
        return None
    if len(frame.payload) < 4:
        return None
    return int.from_bytes(frame.payload[:4], "big")


class EcnMarkerEngine(Engine):
    """RED-style CE marking driven by a watched engine's queue depth."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        k_min: int = 5,
        k_max: int = 20,
        p_max: float = 1.0,
        **engine_kwargs,
    ):
        super().__init__(sim, name, **engine_kwargs)
        if not 0 <= k_min <= k_max:
            raise ValueError(f"{name}: need 0 <= k_min <= k_max")
        if not 0 < p_max <= 1:
            raise ValueError(f"{name}: p_max must be in (0, 1]")
        self.k_min = k_min
        self.k_max = k_max
        self.p_max = p_max
        self.rng = SeededRng(0)
        #: The engine whose queue this marker watches (set by the user);
        #: defaults to watching its own queue.
        self.watch_engine: Optional[Engine] = None
        self.marked = 0
        self.eligible = 0

    def _mark_probability(self) -> float:
        depth = (self.watch_engine or self).backlog
        if depth <= self.k_min:
            return 0.0
        if depth >= self.k_max:
            return self.p_max
        return self.p_max * (depth - self.k_min) / (self.k_max - self.k_min)

    def handle(self, packet: Packet) -> List[EngineOutput]:
        try:
            eth, rest = EthernetHeader.unpack(packet.data)
            ipv4, after = Ipv4Header.unpack(rest)
        except HeaderError:
            return [(packet, None)]
        if ipv4.ecn not in (ECN_ECT0, ECN_ECT1):
            return [(packet, None)]  # not ECN-capable transport
        self.eligible += 1
        if self.rng.random() >= self._mark_probability():
            return [(packet, None)]
        self.marked += 1
        marked_ip = Ipv4Header(
            src=ipv4.src, dst=ipv4.dst, protocol=ipv4.protocol,
            total_length=ipv4.total_length, ttl=ipv4.ttl,
            dscp=ipv4.dscp, ecn=ECN_CE,
            identification=ipv4.identification,
        )
        return [(packet.rewritten(eth.pack() + marked_ip.pack() + after), None)]


@dataclass
class _FlowState:
    current_bps: float
    target_bps: float
    alpha: float = 1.0
    last_cnp_ps: int = -1


class DcqcnRateController:
    """The DCQCN reaction-point algorithm (pure, time passed in).

    On CNP: target <- current; current <- current * (1 - alpha/2);
    alpha <- (1-g)*alpha + g.  On each increase-timer tick without CNPs:
    alpha <- (1-g)*alpha; current <- (current + target)/2 (fast
    recovery), plus an additive step once recovered.
    """

    def __init__(
        self,
        line_rate_bps: float,
        g: float = 1 / 16,
        min_rate_bps: float = 1e6,
        additive_step_bps: float = 5e8,
    ):
        if line_rate_bps <= 0:
            raise ValueError("line rate must be positive")
        if not 0 < g < 1:
            raise ValueError("g must be in (0, 1)")
        self.line_rate_bps = line_rate_bps
        self.g = g
        self.min_rate_bps = min_rate_bps
        self.additive_step_bps = additive_step_bps
        self._flows: Dict[int, _FlowState] = {}
        self.cnps_processed = 0

    def flow(self, flow_id: int) -> _FlowState:
        state = self._flows.get(flow_id)
        if state is None:
            state = _FlowState(self.line_rate_bps, self.line_rate_bps)
            self._flows[flow_id] = state
        return state

    def rate_bps(self, flow_id: int) -> float:
        return self.flow(flow_id).current_bps

    def on_cnp(self, flow_id: int, now_ps: int) -> float:
        state = self.flow(flow_id)
        state.target_bps = state.current_bps
        state.current_bps = max(
            self.min_rate_bps,
            state.current_bps * (1 - state.alpha / 2),
        )
        state.alpha = (1 - self.g) * state.alpha + self.g
        state.last_cnp_ps = now_ps
        self.cnps_processed += 1
        return state.current_bps

    def on_timer(self, flow_id: int, now_ps: int) -> float:
        state = self.flow(flow_id)
        state.alpha = (1 - self.g) * state.alpha
        # The 0.1% tolerance stops fast recovery from asymptoting forever
        # below the target in floating point.
        if state.current_bps < state.target_bps * 0.999:
            # Fast recovery toward the pre-cut rate.
            state.current_bps = (state.current_bps + state.target_bps) / 2
        else:
            # Additive probing beyond it.
            state.target_bps = min(
                self.line_rate_bps, state.target_bps + self.additive_step_bps
            )
            state.current_bps = min(
                self.line_rate_bps,
                (state.current_bps + state.target_bps) / 2,
            )
        return state.current_bps


class DcqcnEngine(Engine):
    """Sender-side reaction point: consumes CNPs, retunes the limiter."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        line_rate_bps: float = 100e9,
        timer_period_ps: int = 50 * US,
        **engine_kwargs,
    ):
        super().__init__(sim, name, **engine_kwargs)
        self.controller = DcqcnRateController(line_rate_bps)
        self.timer_period_ps = timer_period_ps
        #: The RateLimiterEngine this controller actuates.
        self.limiter = None
        self.cnps = 0
        self._timer_running: Dict[int, bool] = {}

    def attach_limiter(self, limiter) -> None:
        self.limiter = limiter

    def handle(self, packet: Packet) -> List[EngineOutput]:
        flow_id = parse_cnp(packet.data)
        if flow_id is None:
            return [(packet, None)]
        self.cnps += 1
        new_rate = self.controller.on_cnp(flow_id, self.now)
        self._apply(flow_id, new_rate)
        if not self._timer_running.get(flow_id):
            self._timer_running[flow_id] = True
            self.schedule(self.timer_period_ps, self._tick, flow_id)
        return []  # CNPs terminate here

    def _tick(self, flow_id: int) -> None:
        new_rate = self.controller.on_timer(flow_id, self.now)
        self._apply(flow_id, new_rate)
        if new_rate < self.controller.line_rate_bps * 0.999:
            self.schedule(self.timer_period_ps, self._tick, flow_id)
        else:
            self._timer_running[flow_id] = False

    def _apply(self, flow_id: int, rate_bps: float) -> None:
        if self.limiter is not None:
            self.limiter.set_rate_update(flow_id, rate_bps)


class CnpResponder:
    """Host-side notification point: CE in, CNP out (rate-limited)."""

    def __init__(self, host, min_gap_ps: int = 10 * US):
        self.host = host
        self.min_gap_ps = min_gap_ps
        self._last_cnp_ps: Dict[int, int] = {}
        self.cnps_sent = 0
        self._downstream = host.software_handler
        host.software_handler = self._on_packet

    def _on_packet(self, packet: Packet, queue: int) -> None:
        if self._downstream is not None:
            self._downstream(packet, queue)
        try:
            frame = parse_frame(packet.data)
        except HeaderError:
            return
        if frame.ipv4 is None or frame.ipv4.ecn != ECN_CE:
            return
        flow_id = packet.meta.tenant if packet.meta.tenant is not None else 0
        last = self._last_cnp_ps.get(flow_id, -(10**18))
        if self.host.now - last < self.min_gap_ps:
            return
        self._last_cnp_ps[flow_id] = self.host.now
        cnp = build_cnp(
            flow_id,
            src_mac=frame.eth.dst,
            dst_mac=frame.eth.src,
            src_ip=frame.ipv4.dst,
            dst_ip=frame.ipv4.src,
        )
        self.cnps_sent += 1
        self.host.enqueue_tx(cnp, queue=0)
