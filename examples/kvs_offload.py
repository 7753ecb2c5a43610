#!/usr/bin/env python
"""The paper's section 3.2 walk-through: a geodistributed multi-tenant
key-value store with per-packet offload chains.

Three tenants share one PANIC NIC:

* tenant 1 -- LAN, latency-sensitive; hot keys served by the NIC cache;
* tenant 2 -- LAN, bulk throughput with larger values;
* tenant 3 -- WAN: its requests arrive ESP-encrypted and are decrypted
  by the IPSec engine before re-entering the RMT pipeline (two
  heavyweight passes, exactly as section 3.1.2 describes).

Cache misses and SETs continue over the chain to the DMA engine, land in
host memory, raise a (coalesced) interrupt, and are answered by the host
software KV server.

Run with::

    python examples/kvs_offload.py
"""

from repro import HostKvServer, PanicConfig, PanicNic, Simulator
from repro.analysis import format_table
from repro.sim.clock import US
from repro.workloads import KvsWorkload, TenantSpec


def main() -> None:
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1))
    HostKvServer(nic.host)  # software path for whatever the NIC can't serve

    # Program the logical switch and scheduler.
    nic.control.enable_kv_cache()
    nic.control.enable_ipsec_rx()
    nic.control.set_tenant_slack(1, 10 * US)     # tight SLO
    nic.control.set_tenant_slack(2, 1000 * US)   # bulk
    nic.control.set_tenant_slack(3, 100 * US)

    tenants = [
        TenantSpec(1, rate_pps=400_000, latency_sensitive=True,
                   key_space=200, get_fraction=0.95),
        TenantSpec(2, rate_pps=800_000, key_space=2000,
                   get_fraction=0.7, value_bytes=512),
        TenantSpec(3, rate_pps=200_000, wan=True, key_space=200),
    ]
    workload = KvsWorkload(sim, nic, tenants, requests_per_tenant=150,
                           ipsec=nic.offload("ipsec"))
    workload.populate_store(values_per_tenant=2000)
    workload.warm_nic_cache(nic.offload("kvcache"), hot_keys=20)
    workload.start()
    sim.run()

    summary = workload.summary()
    print(format_table(
        ["tenant", "profile", "responses", "p50 (us)", "p99 (us)"],
        [
            [1, "LAN latency-sensitive", summary[1]["responses"],
             f"{summary[1]['latency_us_p50']:.1f}",
             f"{summary[1]['latency_us_p99']:.1f}"],
            [2, "LAN bulk", summary[2]["responses"],
             f"{summary[2]['latency_us_p50']:.1f}",
             f"{summary[2]['latency_us_p99']:.1f}"],
            [3, "WAN via IPSec", summary[3]["responses"],
             f"{summary[3]['latency_us_p50']:.1f}",
             f"{summary[3]['latency_us_p99']:.1f}"],
        ],
        title="Per-tenant response latency",
    ))
    cache = nic.offload("kvcache")
    print(f"\nNIC cache        : {cache.hits} hits, "
          f"{cache.misses} misses")
    print(f"IPSec decrypts   : {nic.offload('ipsec').decrypted}")
    print(f"host-served      : {nic.host.rx_delivered} requests")
    print(f"host interrupts  : {nic.host.interrupts_taken} "
          f"(coalesced)")


if __name__ == "__main__":
    main()
