"""Rack-scoped fault arming: one plan, armed identically in both
execution modes.

A rack fault plan extends the single-NIC vocabulary with two target
forms:

* ``"<nic>:<target>"`` -- an engine/channel fault scoped to one NIC of
  the topology (``"nic0:ipsec"``, ``"nic2:panic.mesh.inj_0_0"``);
* ``"wire_<i>_<j>"`` -- an external cable between NICs ``i`` and ``j``
  (indices in topology declaration order), the target of the
  ``WIRE_DOWN``/``WIRE_UP``/``WIRE_LOSS`` kinds;
* ``"<nic>"`` (bare) -- a whole NIC, the target of the
  ``NIC_DOWN``/``NIC_UP`` kinds (the NIC goes dark at its MACs).

:func:`resolve_rack_plan` validates the plan against a topology without
building anything; :func:`arm_rack_faults` schedules the events into a
live simulation.  Each process passes the NICs it hosts and their
:class:`~repro.workloads.wire.LinkEnd` s (all of them in a monolithic
run) and arms exactly that subset, with RNG forks salted by the
*plan-global* event index and the wire direction, so the fault
trajectory is bit-identical at any worker count.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.topology import LinkSpec, RackTopology
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultEvent,
    FaultPlan,
    NIC_KINDS,
    WIRE_DOWN,
    WIRE_KINDS,
    WIRE_LINKLAYER,
    WIRE_LOSS,
    WIRE_UP,
)
from repro.sim.rng import SeededRng


class RackTargetError(ValueError):
    """A rack plan names a NIC or wire the topology does not have."""


def wire_target(a: int, b: int) -> str:
    """The canonical fault target for the cable between rack NICs ``a``
    and ``b`` (declaration-order indices): ``wire_<min>_<max>``."""
    if a == b:
        raise RackTargetError(f"a wire needs two distinct NICs, got {a}")
    return f"wire_{min(a, b)}_{max(a, b)}"


def wire_direction_label(index: int, link: LinkSpec, end: str) -> str:
    """Mode-independent name for one transmit direction of link
    ``index``: the monolithic and sharded runs both account (and emit
    telemetry) under this label."""
    if end == "a":
        return f"wire{index}.{link.nic_a}->{link.nic_b}"
    return f"wire{index}.{link.nic_b}->{link.nic_a}"


def resolve_wire_target(target: str, topology: RackTopology) -> int:
    """``"wire_<i>_<j>"`` -> the index of the matching topology link."""
    parts = target.split("_")
    if len(parts) != 3 or parts[0] != "wire":
        raise RackTargetError(
            f"wire target must look like 'wire_<i>_<j>', got {target!r}"
        )
    try:
        a, b = int(parts[1]), int(parts[2])
    except ValueError:
        raise RackTargetError(
            f"wire target indices must be integers, got {target!r}"
        ) from None
    count = len(topology.nics)
    if not (0 <= a < count and 0 <= b < count):
        raise RackTargetError(
            f"{target!r} references NIC indices outside 0..{count - 1}"
        )
    names = {topology.nics[a].name, topology.nics[b].name}
    for index, link in enumerate(topology.links):
        if {link.nic_a, link.nic_b} == names:
            return index
    raise RackTargetError(
        f"{target!r}: no cable between {sorted(names)} in the topology"
    )


def split_nic_target(target: str) -> Tuple[str, str]:
    """``"nic0:ipsec"`` -> ``("nic0", "ipsec")``."""
    nic, sep, local = target.partition(":")
    if not sep or not nic or not local:
        raise RackTargetError(
            f"rack fault targets are '<nic>:<target>', got {target!r}"
        )
    return nic, local


#: One resolved plan entry: the plan-global event index, the event, and
#: either ("wire", link_index) or ("nic", nic_name, local_event).
ResolvedEvent = Tuple[int, FaultEvent, tuple]


def resolve_rack_plan(
    plan: FaultPlan, topology: RackTopology
) -> List[ResolvedEvent]:
    """Validate every event's target against the topology.

    Raises :class:`RackTargetError` for unknown NICs/wires or malformed
    targets.  Engine and channel existence inside a NIC is checked at
    arm time by :meth:`FaultInjector.validate` (the engines only exist
    once the NIC is built).
    """
    known = {spec.name for spec in topology.nics}
    resolved: List[ResolvedEvent] = []
    for index, event in enumerate(plan.events()):
        if event.kind in WIRE_KINDS:
            link_index = resolve_wire_target(event.target, topology)
            resolved.append((index, event, ("wire", link_index)))
        elif event.kind in NIC_KINDS:
            # Whole-NIC faults name the NIC bare; the local event
            # targets the injector's own NIC ("self").
            if event.target not in known:
                raise RackTargetError(
                    f"{event.target!r}: no NIC named {event.target!r} in "
                    f"the topology (have {sorted(known)})"
                )
            local_event = FaultEvent(event.at_ps, event.kind, "self",
                                     event.params)
            resolved.append((index, event, ("nic", event.target,
                                            local_event)))
        else:
            nic, local = split_nic_target(event.target)
            if nic not in known:
                raise RackTargetError(
                    f"{event.target!r}: no NIC named {nic!r} in the "
                    f"topology (have {sorted(known)})"
                )
            local_event = FaultEvent(event.at_ps, event.kind, local,
                                     event.params)
            resolved.append((index, event, ("nic", nic, local_event)))
    return resolved


def wire_ends(wire, index: int) -> Dict[Tuple[int, str], Any]:
    """The two link ends of ``wire``, keyed as link ``index`` of the
    topology for :func:`arm_rack_faults`."""
    return {(index, end): link_end for end, link_end in wire.ends.items()}


class RackFaultSession:
    """Everything armed by :func:`arm_rack_faults` in one process:
    per-NIC injectors (fault counters + applied logs) and the wire
    events this process scheduled."""

    def __init__(self) -> None:
        self.injectors: Dict[str, FaultInjector] = {}
        #: (at_ps, kind, target) of every wire event armed locally.
        self.wire_events: List[Tuple[int, str, str]] = []


def arm_rack_faults(
    plan: Optional[FaultPlan],
    topology: RackTopology,
    sim,
    nics: Dict[str, object],
    ends: Dict[Tuple[int, str], Any],
) -> RackFaultSession:
    """Arm the subset of ``plan`` hosted by this process.

    ``nics`` maps local NIC names to built NICs; ``ends`` maps
    ``(link_index, end)`` to the link end of each locally-transmitting
    wire direction.  Events for NICs/directions not present here are
    skipped -- the process hosting them arms them instead.  Every RNG
    fork is salted with the plan-global event index (and, for wires,
    the direction), so the union over processes reproduces the
    monolithic trajectory exactly.
    """
    session = RackFaultSession()
    if plan is None or not len(plan):
        return session
    base = SeededRng(plan.seed)
    for gidx, event, resolution in resolve_rack_plan(plan, topology):
        if resolution[0] == "wire":
            link_index = resolution[1]
            for (idx, end), link_end in sorted(ends.items()):
                if idx != link_index:
                    continue
                session.wire_events.append(
                    (event.at_ps, event.kind, event.target))
                if event.kind == WIRE_DOWN:
                    sim.schedule_at(event.at_ps, link_end.set_down, True)
                elif event.kind == WIRE_UP:
                    sim.schedule_at(event.at_ps, link_end.set_down, False)
                elif event.kind == WIRE_LOSS:
                    rng = base.fork(f"wire{link_index}.{end}.ev{gidx}")
                    sim.schedule_at(
                        event.at_ps, link_end.set_loss,
                        event.params["drop_p"], event.params["corrupt_p"],
                        rng,
                    )
                elif event.kind == WIRE_LINKLAYER:
                    sim.schedule_at(
                        event.at_ps, link_end.set_linklayer,
                        dict(event.params),
                    )
        else:
            _, nic_name, local_event = resolution
            nic = nics.get(nic_name)
            if nic is None:
                continue  # lives on another shard
            injector = session.injectors.get(nic_name)
            if injector is None:
                injector = FaultInjector(nic, plan)
                session.injectors[nic_name] = injector
            injector.schedule_event(local_event, base.fork(f"fault{gidx}"))
    return session
