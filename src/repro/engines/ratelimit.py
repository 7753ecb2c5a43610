"""The rate-limiter engine (SENIC-style end-host rate limiting).

Table 1 lists SENIC's "Infrastructure Inline Network" offload -- per-flow
rate limiting pushed from the hypervisor into the NIC.  As a PANIC
engine it implements per-tenant token buckets: a packet whose tenant has
insufficient tokens is *held* inside the engine and released (down its
chain) exactly when its bucket refills -- hardware pacing, not drops.

Tenants without a configured bucket pass through unshaped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.engines.base import Engine, EngineOutput
from repro.packet.packet import Packet
from repro.sim.clock import SEC
from repro.sim.kernel import Simulator

#: Cycles for one token-bucket check.
CHECK_CYCLES = 4


@dataclass
class TokenBucket:
    """A classic token bucket in byte units."""

    rate_bps: float
    burst_bytes: int
    tokens: float = 0.0
    last_refill_ps: int = 0

    def __post_init__(self) -> None:
        if self.rate_bps <= 0 or self.burst_bytes <= 0:
            raise ValueError("rate and burst must be positive")
        self.tokens = float(self.burst_bytes)

    def refill(self, now_ps: int) -> None:
        elapsed = now_ps - self.last_refill_ps
        if elapsed <= 0:
            return
        self.tokens = min(
            float(self.burst_bytes),
            self.tokens + self.rate_bps * elapsed / (8 * SEC),
        )
        self.last_refill_ps = now_ps

    def try_consume(self, nbytes: int, now_ps: int) -> bool:
        self.refill(now_ps)
        if self.tokens >= nbytes:
            self.tokens -= nbytes
            return True
        return False

    def eligible_at(self, nbytes: int, now_ps: int) -> int:
        """Earliest time ``nbytes`` tokens will be available."""
        self.refill(now_ps)
        deficit = nbytes - self.tokens
        if deficit <= 0:
            return now_ps
        wait_ps = deficit * 8 * SEC / self.rate_bps
        return now_ps + int(wait_ps) + 1


class RateLimiterEngine(Engine):
    """Per-tenant token-bucket pacing as a chain offload."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        **engine_kwargs,
    ):
        super().__init__(sim, name, **engine_kwargs)
        self._buckets: Dict[int, TokenBucket] = {}
        self.shaped = 0
        self.passed = 0
        self.held = 0

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def set_rate(self, tenant: int, rate_bps: float, burst_bytes: int = 4096) -> None:
        """Install/replace a tenant's shaping rate."""
        self._buckets[tenant] = TokenBucket(rate_bps, burst_bytes,
                                            last_refill_ps=self.now)

    def set_rate_update(self, tenant: int, rate_bps: float) -> None:
        """Adjust an existing bucket's rate in place (tokens preserved).

        Used by congestion controllers that retune rates continuously;
        creates the bucket if the tenant was unshaped.
        """
        bucket = self._buckets.get(tenant)
        if bucket is None:
            self.set_rate(tenant, rate_bps)
            return
        bucket.refill(self.now)
        if rate_bps <= 0:
            raise ValueError(f"{self.name}: rate must be positive")
        bucket.rate_bps = rate_bps

    def bucket(self, tenant: int) -> Optional[TokenBucket]:
        return self._buckets.get(tenant)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def service_time_ps(self, packet: Packet) -> int:
        return self.clock.cycles_to_ps(CHECK_CYCLES)

    def handle(self, packet: Packet) -> List[EngineOutput]:
        tenant = packet.meta.tenant
        bucket = self._buckets.get(tenant) if tenant is not None else None
        if bucket is None:
            self.passed += 1
            return [(packet, None)]
        size = packet.frame_bytes
        if bucket.try_consume(size, self.now):
            self.shaped += 1
            return [(packet, None)]
        # Hold until eligible, then release down the chain.
        release_at = bucket.eligible_at(size, self.now)
        self.held += 1
        self.schedule(release_at - self.now, self._release, packet, size)
        return []

    def _release(self, packet: Packet, size: int) -> None:
        tenant = packet.meta.tenant
        bucket = self._buckets.get(tenant) if tenant is not None else None
        if bucket is not None and not bucket.try_consume(size, self.now):
            # Competing holds drained the bucket again; re-wait.
            self.schedule(
                bucket.eligible_at(size, self.now) - self.now,
                self._release, packet, size,
            )
            return
        self.shaped += 1
        dest = self._route_by_chain(packet)
        if dest is None:
            self.terminal(packet)
        elif dest == self.address:
            self._loopback(packet)
        else:
            self.send(packet, dest)
