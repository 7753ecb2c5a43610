"""RMT-resident L4 load balancing (DESIGN.md section 17).

The load balancer is not a middlebox: it is table entries and register
arrays inside the PANIC NIC's own heavyweight RMT pipeline.  A
``vip_steer`` entry matches frames addressed to a virtual IP and runs
the ``affinity_steer`` action -- consistent-hash backend selection with
a Register-backed connection-affinity table -- and ``lb_egress`` turns
the chosen backend into a chain ending at the cable's MAC, so steered
frames never touch the LB host (direct server return).

* :class:`~repro.lb.ring.HashRing` -- the consistent-hash ring.
* :class:`~repro.lb.steering.LbSteering` -- the control plane: versioned
  rule epochs with make-before-break installs, planned ``drain`` and
  failure-driven ``fail``, and garbage collection of masked entries.
* :class:`~repro.lb.monitor.BackendHealthMonitor` -- heartbeat probes
  over the same cables the traffic uses; a silent backend is failed out
  automatically, by the detection rule the engine watchdog runs too
  (:class:`~repro.faults.monitor.Heartbeat`).
* :mod:`repro.lb.rack` -- the rack workload: one LB NIC, N backends
  serving a VIP with direct server return, M clients running a reliable
  transport against the VIP.
"""

from repro.lb.monitor import (
    BackendHealthMonitor,
    DEFAULT_HB_PERIOD_PS,
    DEFAULT_HB_TIMEOUT_PS,
    attach_heartbeat_responder,
)
from repro.lb.rack import DEFAULT_VIP_IP, lb_rack_topology
from repro.lb.ring import DEFAULT_VNODES, HashRing
from repro.lb.steering import DEFAULT_AFFINITY_SLOTS, LbSteering

__all__ = [
    "BackendHealthMonitor",
    "DEFAULT_AFFINITY_SLOTS",
    "DEFAULT_HB_PERIOD_PS",
    "DEFAULT_HB_TIMEOUT_PS",
    "DEFAULT_VIP_IP",
    "DEFAULT_VNODES",
    "HashRing",
    "LbSteering",
    "attach_heartbeat_responder",
    "lb_rack_topology",
]
