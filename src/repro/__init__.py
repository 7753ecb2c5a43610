"""PANIC: a programmable NIC architected as a programmable switch.

A behavioural reproduction of Stephens, Akella & Swift, *"Your
Programmable NIC Should be a Programmable Switch"*, HotNets-XVII (2018).

Quick start::

    from repro import PanicNic, PanicConfig, Simulator
    from repro.packet import KvRequest, KvOpcode, build_kv_request_frame

    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1))
    nic.control.enable_kv_cache()
    nic.offload("kvcache").cache_put(b"hot", b"value")
    nic.inject(build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 1, b"hot")))
    sim.run()
    assert len(nic.transmitted) == 1  # answered without touching the CPU

Packages:

* :mod:`repro.core`      -- the PANIC NIC (the paper's contribution)
* :mod:`repro.baselines` -- pipeline / manycore / RMT-only NICs (Fig. 2),
  each a :class:`PanicNic` configuration
* :mod:`repro.engines`   -- offload engines (IPSec, compression, KV
  cache, RDMA, DPI, checksum, DMA, PCIe, Ethernet, RMT, orchestration
  core)
* :mod:`repro.noc`       -- the lossless 2D-mesh on-chip network
* :mod:`repro.rmt`       -- the match+action pipeline substrate
* :mod:`repro.sched`     -- PIFO queues and slack policies
* :mod:`repro.packet`    -- byte-accurate protocol stack
* :mod:`repro.workloads` -- traffic generators and the KVS workload
* :mod:`repro.analysis`  -- Table 2/3 analytical models, reporting
* :mod:`repro.sim`       -- the discrete-event kernel
"""

from repro.core import Host, HostKvServer, PanicConfig, PanicNic
from repro.sim import Simulator

__version__ = "0.1.0"

__all__ = [
    "Host",
    "HostKvServer",
    "PanicConfig",
    "PanicNic",
    "Simulator",
    "__version__",
]
