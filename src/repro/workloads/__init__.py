"""Workload generation: traffic sources, the multi-tenant KVS, DoS floods.

These drive every experiment.  Sources inject byte-accurate frames into a
NIC (PANIC or a baseline) through its ``inject`` method; observers parse
egress frames and collect per-tenant latency/throughput statistics.
"""

from repro.workloads.generator import (
    CbrSource,
    PoissonSource,
    TrafficSource,
    simple_udp_factory,
)
from repro.workloads.kvs import (
    KvsClient,
    KvsWorkload,
    TenantSpec,
)
from repro.workloads.dos import DosFlood
from repro.workloads.wire import LinkEnd, PacketCapsule, Wire
from repro.workloads.rack import build_rack_nic, rack_topology

__all__ = [
    "CbrSource",
    "DosFlood",
    "KvsClient",
    "KvsWorkload",
    "LinkEnd",
    "PacketCapsule",
    "PoissonSource",
    "TenantSpec",
    "TrafficSource",
    "Wire",
    "build_rack_nic",
    "rack_topology",
    "simple_udp_factory",
]
