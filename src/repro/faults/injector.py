"""Arms a :class:`~repro.faults.plan.FaultPlan` against a running NIC.

The injector translates plan events into concrete mutations of the
simulation -- engine ``fail()``/``recover()`` calls, channel one-shot
corruption/drop arming, PIFO rank scrambles -- scheduled at their exact
timestamps.  Every stochastic choice (which bit flips, which rank a
corrupted entry gets) comes from a per-event fork of the plan's seeded
RNG, so the same plan replays identically.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.engines.base import FAULT_CRASH, FAULT_STALL
from repro.faults.plan import (
    CRASH,
    FaultEvent,
    FaultPlan,
    LINK_CORRUPT,
    LINK_DROP,
    NIC_DOWN,
    NIC_KINDS,
    NIC_UP,
    PIFO_CORRUPT,
    RECOVER,
    SLOW,
    STALL,
    WIRE_KINDS,
)
from repro.sim.rng import SeededRng

#: Kinds whose target is an engine key resolved through ``nic.offload``.
_ENGINE_KINDS = (CRASH, STALL, SLOW, RECOVER, PIFO_CORRUPT)
#: Kinds whose target is a NoC channel resolved through ``nic.mesh``.
_CHANNEL_KINDS = (LINK_CORRUPT, LINK_DROP)


class FaultInjector:
    """Schedules a plan's events into a NIC's simulator.

    Parameters
    ----------
    nic:
        The :class:`~repro.core.panic.PanicNic` under test.
    plan:
        The fault schedule.  Engine targets are resolved through
        ``nic.offload``; channel targets through ``nic.mesh.channel`` --
        both are validated when :meth:`arm` is called, so a typo'd plan
        fails loudly at arm time rather than silently never firing (or
        exploding mid-run at the event's timestamp).
    """

    def __init__(self, nic, plan: FaultPlan):
        self.nic = nic
        self.plan = plan
        self.rng = SeededRng(plan.seed)
        self.injected = 0
        #: (time_ps, kind, target) of every applied event, for reports.
        self.applied: List[Tuple[int, str, str]] = []
        self._armed = False

    def validate(self, event: FaultEvent) -> None:
        """Resolve the event's target now; raise if it does not exist.

        Wire kinds are rejected outright: an external cable is not part
        of any single NIC, so those events need the rack-level arming in
        :mod:`repro.faults.rack` (via ``run_monolithic``/``run_sharded``).
        """
        if event.kind in WIRE_KINDS:
            raise ValueError(
                f"{event.kind!r} targets an external wire; arm the plan "
                f"through repro.faults.rack (run_monolithic/run_sharded "
                f"fault_plan=...), not a single-NIC FaultInjector"
            )
        if event.kind in NIC_KINDS:
            if event.target != "self":
                raise ValueError(
                    f"{event.kind!r} in a single-NIC plan targets the "
                    f"literal 'self' (rack plans use the bare NIC name, "
                    f"armed through repro.faults.rack), got "
                    f"{event.target!r}"
                )
        elif event.kind in _ENGINE_KINDS:
            self.nic.offload(event.target)
        elif event.kind in _CHANNEL_KINDS:
            self.nic.mesh.channel(event.target)

    def schedule_event(self, event: FaultEvent, rng: SeededRng) -> None:
        """Validate and schedule one event with an explicit RNG fork.

        The rack armer calls this directly so that fork salts stay keyed
        by the *plan-global* event index whatever subset of events lands
        on this NIC's shard.
        """
        self.validate(event)
        self.nic.sim.schedule_at(event.at_ps, self._apply, event, rng)

    def arm(self) -> None:
        """Schedule every plan event.  Call once, before running."""
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        for index, event in enumerate(self.plan.events()):
            self.schedule_event(event, self.rng.fork(f"fault{index}"))

    # ------------------------------------------------------------------

    def _apply(self, event: FaultEvent, rng: SeededRng) -> None:
        kind = event.kind
        if kind == CRASH:
            self.nic.offload(event.target).fail(FAULT_CRASH)
        elif kind == STALL:
            self.nic.offload(event.target).fail(FAULT_STALL)
        elif kind == SLOW:
            self.nic.offload(event.target).slowdown = event.params["factor"]
        elif kind == RECOVER:
            self.nic.offload(event.target).recover()
            if self.nic.monitor is not None:
                self.nic.monitor.clear(event.target)
        elif kind == LINK_CORRUPT:
            self.nic.mesh.channel(event.target).inject_corruption(
                rng, bits=event.params["bits"], offset=event.params["offset"]
            )
        elif kind == LINK_DROP:
            self.nic.mesh.channel(event.target).inject_drop(
                leak_credit=event.params["leak_credit"]
            )
        elif kind == PIFO_CORRUPT:
            self.nic.offload(event.target).queue.corrupt_ranks(rng)
        elif kind == NIC_DOWN:
            self.nic.set_power(False)
        elif kind == NIC_UP:
            self.nic.set_power(True)
        else:  # pragma: no cover - FaultEvent validates kinds
            raise ValueError(f"unknown fault kind {kind!r}")
        self.injected += 1
        self.applied.append((self.nic.sim.now, kind, event.target))
