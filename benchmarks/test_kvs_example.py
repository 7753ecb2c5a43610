"""Experiment E1 -- the section 3.2 walk-through: a geodistributed
multi-tenant KVS on PANIC.

Three tenants: a LAN latency-sensitive tenant, a LAN bulk tenant, and a
WAN tenant whose traffic arrives ESP-encrypted.  The NIC cache holds the
hot keys.  Expected shape:

* hot GETs are answered entirely on the NIC (CPU bypass -- host sees
  none of them);
* WAN traffic takes two heavyweight passes (decrypt, then route);
* cache hits are an order of magnitude faster than host-served misses.
"""

from repro.core import HostKvServer, PanicConfig, PanicNic
from repro.analysis import format_table
from repro.sim import Simulator
from repro.sim.clock import US
from repro.workloads import KvsWorkload, TenantSpec

from _util import banner, run_once


def run_kvs():
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1))
    HostKvServer(nic.host)
    nic.control.enable_kv_cache()
    nic.control.enable_ipsec_rx()
    nic.control.set_tenant_slack(1, 10 * US)
    nic.control.set_tenant_slack(2, 1000 * US)
    nic.control.set_tenant_slack(3, 100 * US)

    tenants = [
        TenantSpec(1, rate_pps=400_000, latency_sensitive=True,
                   key_space=200, get_fraction=0.95),
        TenantSpec(2, rate_pps=800_000, key_space=2000, get_fraction=0.7,
                   value_bytes=512),
        TenantSpec(3, rate_pps=200_000, wan=True, key_space=200),
    ]
    workload = KvsWorkload(sim, nic, tenants, requests_per_tenant=120,
                           ipsec=nic.offload("ipsec"))
    workload.populate_store(values_per_tenant=2000)
    workload.warm_nic_cache(nic.offload("kvcache"), hot_keys=20)
    workload.start()
    sim.run()

    cache = nic.offload("kvcache")
    return {
        "summary": workload.summary(),
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "ipsec_decrypted": nic.offload("ipsec").decrypted,
        "host_requests": nic.host.rx_delivered,
        "transmitted": len(nic.transmitted),
        "rmt_packets": nic.rmt.processed,
    }


def test_kvs_multi_tenant_example(benchmark):
    result = run_once(benchmark, run_kvs)
    summary = result["summary"]

    banner("Section 3.2 example: multi-tenant KVS on PANIC")
    print(
        format_table(
            ["tenant", "profile", "requests", "responses", "p50 us", "p99 us"],
            [
                [1, "LAN latency", summary[1]["requests"],
                 summary[1]["responses"], f"{summary[1]['latency_us_p50']:.1f}",
                 f"{summary[1]['latency_us_p99']:.1f}"],
                [2, "LAN bulk", summary[2]["requests"],
                 summary[2]["responses"], f"{summary[2]['latency_us_p50']:.1f}",
                 f"{summary[2]['latency_us_p99']:.1f}"],
                [3, "WAN (IPSec)", summary[3]["requests"],
                 summary[3]["responses"], f"{summary[3]['latency_us_p50']:.1f}",
                 f"{summary[3]['latency_us_p99']:.1f}"],
            ],
        )
    )
    print(f"\ncache hits/misses : {result['cache_hits']}/{result['cache_misses']}")
    print(f"ipsec decrypts    : {result['ipsec_decrypted']}")
    print(f"host-served       : {result['host_requests']}")
    print(f"RMT passes        : {result['rmt_packets']}")

    # Everyone gets an answer.
    for tenant in (1, 2, 3):
        assert summary[tenant]["responses"] == summary[tenant]["requests"]
    # The cache serves a real share of GETs without the CPU.
    assert result["cache_hits"] > 50
    assert result["host_requests"] < result["transmitted"]
    # All WAN requests were decrypted on the NIC.
    assert result["ipsec_decrypted"] == 120
