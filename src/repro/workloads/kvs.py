"""The multi-tenant key-value store workload (sections 2.2 / 3.2).

A geodistributed, multi-tenant DynamoDB-style KVS: tenants issue GET/SET
requests over UDP with Zipf-popular keys; some tenants are WAN-facing
(their traffic is ESP-encrypted and must pass the IPSec engine); some are
latency-sensitive, others run bulk throughput.  :class:`KvsWorkload`
wires the sources to a NIC, tracks outstanding requests by id, and
collects per-tenant response-latency histograms from egress frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.engines.ipsec import IpsecEngine, IpsecSa
from repro.packet.builder import build_kv_request_frame, parse_frame
from repro.packet.headers import HeaderError
from repro.packet.kv import KvOpcode, KvRequest, KvResponse
from repro.packet.packet import Packet
from repro.sim.clock import US
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRng
from repro.sim.stats import Counter, LatencyTracker
from repro.workloads.generator import PoissonSource


@dataclass
class TenantSpec:
    """One tenant's traffic profile."""

    tenant_id: int
    rate_pps: float
    get_fraction: float = 0.9
    key_space: int = 1000
    zipf_alpha: float = 0.99
    value_bytes: int = 128
    wan: bool = False  # WAN tenants need IPSec
    latency_sensitive: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.get_fraction <= 1:
            raise ValueError(f"get_fraction must be in [0,1]: {self.get_fraction}")
        if self.rate_pps <= 0 or self.key_space <= 0 or self.value_bytes < 0:
            raise ValueError("tenant rates/sizes must be positive")

    def key(self, index: int) -> bytes:
        return b"t%d/key%06d" % (self.tenant_id, index)


class KvsClient:
    """Generates one tenant's requests and matches its responses."""

    def __init__(
        self,
        sim: Simulator,
        spec: TenantSpec,
        inject: Callable[[Packet], int],
        rng: SeededRng,
        ipsec: Optional[IpsecEngine] = None,
        spi: Optional[int] = None,
        count: Optional[int] = None,
        stop_ps: Optional[int] = None,
    ):
        self.sim = sim
        self.spec = spec
        self.rng = rng
        self.ipsec = ipsec
        self.spi = spi
        self._next_request_id = spec.tenant_id << 20
        self._outstanding: Dict[int, int] = {}  # request_id -> created_ps
        self.latency = LatencyTracker(f"tenant{spec.tenant_id}.latency")
        self.requests = Counter(f"tenant{spec.tenant_id}.requests")
        self.responses = Counter(f"tenant{spec.tenant_id}.responses")
        self.source = PoissonSource(
            sim,
            f"kvs.t{spec.tenant_id}.src",
            inject,
            self._make_packet,
            rate_pps=spec.rate_pps,
            rng=rng.fork("arrivals"),
            count=count,
            stop_ps=stop_ps,
        )

    def start(self, at_ps: int = 0) -> None:
        self.source.start(at_ps)

    # ------------------------------------------------------------------
    # Request generation
    # ------------------------------------------------------------------

    def _make_packet(self, seq: int) -> Packet:
        spec = self.spec
        request_id = self._next_request_id
        self._next_request_id += 1
        key_index = self.rng.zipf_index(spec.key_space, spec.zipf_alpha)
        if self.rng.random() < spec.get_fraction:
            request = KvRequest(KvOpcode.GET, spec.tenant_id, request_id, spec.key(key_index))
        else:
            value = self.rng.bytes(spec.value_bytes)
            request = KvRequest(
                KvOpcode.SET, spec.tenant_id, request_id, spec.key(key_index), value
            )
        packet = build_kv_request_frame(
            request,
            src_ip=f"10.{spec.tenant_id % 256}.0.1",
            dscp=spec.tenant_id % 64,
        )
        if spec.wan and self.ipsec is not None and self.spi is not None:
            # The client encrypts before the frame hits the NIC; reuse the
            # engine's cipher so the NIC can decrypt with the same SA.
            packet.meta.annotations["ipsec_spi"] = self.spi
            packet = self.ipsec.encrypt(packet, self.spi)
        packet.meta.annotations["request_ctx"] = request_id
        self._outstanding[request_id] = self.sim.now
        self.requests.add()
        return packet

    # ------------------------------------------------------------------
    # Response collection
    # ------------------------------------------------------------------

    def observe_response(self, response: KvResponse) -> bool:
        """Record latency if this response answers one of our requests."""
        created = self._outstanding.pop(response.request_id, None)
        if created is None:
            return False
        self.responses.add()
        self.latency.observe(created, self.sim.now)
        return True

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)


class KvsWorkload:
    """The full multi-tenant workload bound to one NIC."""

    def __init__(
        self,
        sim: Simulator,
        nic,
        tenants: List[TenantSpec],
        seed: int = 0,
        requests_per_tenant: Optional[int] = 200,
        stop_ps: Optional[int] = None,
        ipsec: Optional[IpsecEngine] = None,
        wan_spi_base: int = 0x1000,
    ):
        self.sim = sim
        self.nic = nic
        self.rng = SeededRng(seed)
        self.clients: Dict[int, KvsClient] = {}
        self.unmatched_responses = Counter("kvs.unmatched")
        for spec in tenants:
            spi = None
            if spec.wan and ipsec is not None:
                spi = wan_spi_base + spec.tenant_id
                ipsec.install_sa(
                    IpsecSa(
                        spi=spi,
                        key=b"key-tenant-%d" % spec.tenant_id,
                        tunnel_src=f"172.16.{spec.tenant_id % 256}.1",
                        tunnel_dst="172.16.255.1",
                    )
                )
            self.clients[spec.tenant_id] = KvsClient(
                sim,
                spec,
                inject=nic.inject,
                rng=self.rng.fork(f"tenant{spec.tenant_id}"),
                ipsec=ipsec,
                spi=spi,
                count=requests_per_tenant,
                stop_ps=stop_ps,
            )
        nic.on_transmit(self._on_transmit)

    def start(self, at_ps: int = 0) -> None:
        for client in self.clients.values():
            client.start(at_ps)

    def _on_transmit(self, packet: Packet) -> None:
        try:
            frame = parse_frame(packet.data)
            if not frame.is_kv or not frame.payload:
                return
            if frame.payload[0] != KvOpcode.RESPONSE:
                return
            response = frame.kv_response()
        except HeaderError:
            return
        client = self.clients.get(response.tenant)
        if client is None or not client.observe_response(response):
            self.unmatched_responses.add()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def populate_store(self, values_per_tenant: int = 100) -> None:
        """Preload host memory so GETs have something to find."""
        for tenant_id, client in self.clients.items():
            spec = client.spec
            for index in range(min(values_per_tenant, spec.key_space)):
                self.nic.host.store(
                    spec.key(index), b"v" * spec.value_bytes
                )

    def warm_nic_cache(self, cache, hot_keys: int = 10) -> None:
        """Preload the on-NIC KV cache with each tenant's hottest keys."""
        for client in self.clients.values():
            spec = client.spec
            for index in range(min(hot_keys, spec.key_space)):
                cache.cache_put(spec.key(index), b"v" * spec.value_bytes)

    def summary(self) -> Dict[int, Dict[str, float]]:
        """Per-tenant latency/throughput summary."""
        out = {}
        for tenant_id, client in self.clients.items():
            entry: Dict[str, float] = {
                "requests": client.requests.value,
                "responses": client.responses.value,
                "outstanding": client.outstanding,
            }
            if client.latency.count:
                entry["latency_us_p50"] = client.latency.percentile(50) / US
                entry["latency_us_p99"] = client.latency.percentile(99) / US
                entry["latency_us_mean"] = client.latency.mean / US
            out[tenant_id] = entry
        return out
