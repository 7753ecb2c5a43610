"""Traffic sources: constant bit rate and Poisson.

A source owns a packet factory (``seq -> Packet``) and an injection
function (``packet -> arrival_ps``), so the same source drives PANIC,
any baseline NIC, or a bare mesh endpoint.
"""

from __future__ import annotations

import zlib
from typing import Callable, Optional

from repro.packet.builder import build_udp_frame
from repro.packet.packet import Packet
from repro.sim.clock import SEC
from repro.sim.kernel import Component, Simulator
from repro.sim.rng import SeededRng
from repro.sim.stats import Counter

#: A packet factory: sequence number -> fresh Packet.
PacketFactory = Callable[[int], Packet]
#: An injection sink: packet -> simulated arrival time.
InjectFn = Callable[[Packet], int]


def _cookie_frame(seq: int, payload_bytes: int, src_ip: str, dst_ip: str,
                  dst_port: int, dscp: int) -> Packet:
    """One UDP frame whose payload opens with the 8-byte sequence cookie."""
    frame = build_udp_frame(
        src_mac="02:00:00:00:00:01",
        dst_mac="02:00:00:00:00:02",
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=40000 + (seq % 1000),
        dst_port=dst_port,
        payload=seq.to_bytes(8, "big") + bytes(payload_bytes - 8),
        dscp=dscp,
        identification=seq & 0xFFFF,
    )
    packet = Packet(frame)
    packet.meta.annotations["seq"] = seq
    return packet


def simple_udp_factory(
    payload_bytes: int = 64,
    src_ip: str = "10.0.0.1",
    dst_ip: str = "10.0.0.2",
    dst_port: int = 9000,
    dscp: int = 0,
) -> PacketFactory:
    """A factory producing fixed-size UDP frames with a sequence cookie."""
    if payload_bytes < 8:
        raise ValueError(f"payload must hold the 8-byte cookie: {payload_bytes}")

    def factory(seq: int) -> Packet:
        return _cookie_frame(seq, payload_bytes, src_ip, dst_ip, dst_port,
                             dscp)

    return factory


#: The classic IMIX blend: (payload bytes to reach the frame size, weight).
#: 64 B : 570 B : 1500 B frames at 7 : 4 : 1.
IMIX_BLEND = ((64, 7), (570, 4), (1500, 1))


def imix_factory(
    rng: Optional[SeededRng] = None,
    src_ip: str = "10.0.0.1",
    dst_ip: str = "10.0.0.2",
    dst_port: int = 9000,
    dscp: int = 0,
) -> PacketFactory:
    """A factory producing the standard IMIX frame-size mix.

    Frame sizes follow the 7:4:1 blend of 64/570/1500-byte frames used
    across the industry for "realistic" mixed traffic.
    """
    rng = rng if rng is not None else SeededRng(0xD1)
    sizes: list = []
    for frame_bytes, weight in IMIX_BLEND:
        sizes.extend([frame_bytes] * weight)
    header_overhead = 14 + 20 + 8  # eth + ipv4 + udp

    def factory(seq: int) -> Packet:
        payload_bytes = max(8, rng.choice(sizes) - header_overhead)
        return _cookie_frame(seq, payload_bytes, src_ip, dst_ip, dst_port,
                             dscp)

    return factory


class TrafficSource(Component):
    """Base source: schedules itself, tracks what it injected."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        inject: InjectFn,
        factory: PacketFactory,
        count: Optional[int] = None,
        stop_ps: Optional[int] = None,
    ):
        super().__init__(sim, name)
        if count is None and stop_ps is None:
            raise ValueError(f"{name}: need a packet count or a stop time")
        self.inject = inject
        self.factory = factory
        self.count = count
        self.stop_ps = stop_ps
        self._seq = 0
        self.injected = Counter(f"{name}.injected")
        self._started = False

    def start(self, at_ps: int = 0) -> None:
        if self._started:
            raise RuntimeError(f"{self.name}: source already started")
        self._started = True
        self.schedule(max(0, at_ps - self.now), self._tick)

    def _tick(self) -> None:
        if self.count is not None and self._seq >= self.count:
            return
        if self.stop_ps is not None and self.now >= self.stop_ps:
            return
        packet = self.factory(self._seq)
        packet.meta.created_ps = self.now
        self._seq += 1
        self.injected.add()
        self.inject(packet)
        gap = self.next_gap_ps()
        self.schedule(max(1, gap), self._tick)

    def next_gap_ps(self) -> int:
        raise NotImplementedError


class CbrSource(TrafficSource):
    """Constant packet rate (deterministic inter-arrival gaps)."""

    def __init__(self, sim, name, inject, factory, rate_pps: float, **kwargs):
        super().__init__(sim, name, inject, factory, **kwargs)
        if rate_pps <= 0:
            raise ValueError(f"{name}: rate must be positive, got {rate_pps}")
        self.gap_ps = int(SEC / rate_pps)

    def next_gap_ps(self) -> int:
        return self.gap_ps


class PoissonSource(TrafficSource):
    """Poisson arrivals (exponential inter-arrival gaps)."""

    def __init__(
        self, sim, name, inject, factory, rate_pps: float,
        rng: Optional[SeededRng] = None, **kwargs,
    ):
        super().__init__(sim, name, inject, factory, **kwargs)
        if rate_pps <= 0:
            raise ValueError(f"{name}: rate must be positive, got {rate_pps}")
        self.mean_gap_ps = SEC / rate_pps
        # zlib.crc32, not hash(): str hashing is randomized per process.
        self.rng = rng if rng is not None else SeededRng(
            zlib.crc32(name.encode("utf-8")) & 0xFFFF)

    def next_gap_ps(self) -> int:
        return int(self.rng.exponential(self.mean_gap_ps))

