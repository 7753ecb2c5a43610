"""Deterministic fault injection and recovery for PANIC simulations.

Three pieces compose a fault experiment:

* :class:`FaultPlan` -- a pure-data, seed-carrying schedule of timed
  faults (engine crash/stall/slowdown, link bit-corruption, flit loss
  with credit leak, PIFO rank scrambles);
* :class:`FaultInjector` -- arms a plan against a
  :class:`~repro.core.panic.PanicNic`, drawing every stochastic choice
  from per-event forks of the plan's seed so runs replay identically;
* :class:`HealthMonitor` -- a mesh-resident watchdog that heartbeats
  engine tiles over the NoC and, on timeout, drives the NIC's failover
  (lookup-table remap + RMT chain recomputation).  Its detection rule,
  :class:`~repro.faults.monitor.Heartbeat`, is the simulator's only
  one: the load balancer's backend monitor (:mod:`repro.lb.monitor`)
  adapts it too.

See ``examples/fault_tolerance.py`` for the end-to-end flow.
"""

from repro.faults.injector import FaultInjector
from repro.faults.monitor import HealthMonitor, attach_health_monitor
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.rack import (
    RackTargetError,
    arm_rack_faults,
    resolve_rack_plan,
    wire_target,
)

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "HealthMonitor",
    "attach_health_monitor",
    "RackTargetError",
    "arm_rack_faults",
    "resolve_rack_plan",
    "wire_target",
]
