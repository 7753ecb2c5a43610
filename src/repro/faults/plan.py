"""Declarative, seed-reproducible fault schedules.

A :class:`FaultPlan` is a list of timed fault events plus a seed.  It is
pure data: building a plan touches nothing; a
:class:`~repro.faults.injector.FaultInjector` arms it against a NIC.  Two
runs armed with equal plans (same events, same seed) inject bit-identical
faults, so fault experiments are as reproducible as fault-free ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.sim.clock import format_time

#: Fault event kinds (the ``FaultEvent.kind`` vocabulary).
CRASH = "crash"
STALL = "stall"
SLOW = "slow"
RECOVER = "recover"
LINK_CORRUPT = "link_corrupt"
LINK_DROP = "link_drop"
PIFO_CORRUPT = "pifo_corrupt"
WIRE_DOWN = "wire_down"
WIRE_UP = "wire_up"
WIRE_LOSS = "wire_loss"
WIRE_LINKLAYER = "wire_linklayer"
NIC_DOWN = "nic_down"
NIC_UP = "nic_up"

KINDS = (CRASH, STALL, SLOW, RECOVER, LINK_CORRUPT, LINK_DROP, PIFO_CORRUPT,
         WIRE_DOWN, WIRE_UP, WIRE_LOSS, WIRE_LINKLAYER, NIC_DOWN, NIC_UP)

#: Kinds targeting an *external* wire between two NICs (rack scope).
#: These cannot be armed by a single-NIC :class:`FaultInjector`; use
#: :mod:`repro.faults.rack` through ``run_monolithic``/``run_sharded``.
WIRE_KINDS = (WIRE_DOWN, WIRE_UP, WIRE_LOSS, WIRE_LINKLAYER)

#: Kinds targeting a *whole NIC* rather than one of its engines.  In a
#: single-NIC plan the target is the literal ``"self"``; in a rack plan
#: it is the bare NIC name (``"nic2"``), resolved by
#: :func:`repro.faults.rack.resolve_rack_plan`.
NIC_KINDS = (NIC_DOWN, NIC_UP)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: *what* happens to *whom* at *when*.

    ``target`` is an engine key (``"ipsec"``) for engine/PIFO faults and a
    full channel name (``"panic.mesh.ch_0_0_east"``) for link faults.
    """

    at_ps: int
    kind: str
    target: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.at_ps < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at_ps}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {KINDS}")

    def describe(self) -> str:
        extra = ""
        if self.params:
            extra = " " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.params.items())
            )
        return f"@{format_time(self.at_ps)} {self.kind} {self.target}{extra}"


class FaultPlan:
    """A builder for timed fault schedules.

    All methods return ``self`` for chaining::

        plan = (FaultPlan(seed=7)
                .crash_engine(30 * US, "ipsec")
                .corrupt_link(50 * US, "panic.mesh.inj_0_0", offset=20))
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._events: List[FaultEvent] = []

    # -- engine faults ---------------------------------------------------

    def crash_engine(self, at_ps: int, engine: str) -> "FaultPlan":
        """Kill a tile: queued and future traffic is black-holed."""
        return self._add(at_ps, CRASH, engine)

    def stall_engine(self, at_ps: int, engine: str) -> "FaultPlan":
        """Wedge a tile: it accepts messages but never serves them."""
        return self._add(at_ps, STALL, engine)

    def slow_engine(self, at_ps: int, engine: str, factor: float) -> "FaultPlan":
        """Multiply a tile's service time by ``factor`` (> 1 degrades)."""
        if factor <= 0:
            raise ValueError(f"slowdown factor must be > 0, got {factor}")
        return self._add(at_ps, SLOW, engine, factor=factor)

    def recover_engine(self, at_ps: int, engine: str) -> "FaultPlan":
        """Clear an injected engine fault and resume service."""
        return self._add(at_ps, RECOVER, engine)

    # -- link faults -----------------------------------------------------

    def corrupt_link(
        self, at_ps: int, channel: str, bits: int = 1,
        offset: Optional[int] = None,
    ) -> "FaultPlan":
        """Flip ``bits`` payload bits in the next transfer on ``channel``.

        ``offset`` pins the flips inside one payload byte, which makes
        checksum-detection tests deterministic; without it, bit positions
        are drawn from the plan's seeded RNG.
        """
        if bits < 1:
            raise ValueError(f"must corrupt at least one bit, got {bits}")
        return self._add(at_ps, LINK_CORRUPT, channel, bits=bits, offset=offset)

    def drop_on_link(
        self, at_ps: int, channel: str, leak_credit: bool = True
    ) -> "FaultPlan":
        """Vanish the next transfer on ``channel`` mid-flight.

        With ``leak_credit`` the consumed credit never returns -- the
        classic leak that eventually wedges a lossless mesh, which the
        diagnostics in :meth:`repro.noc.mesh.Mesh.stuck_report` surface.
        """
        return self._add(at_ps, LINK_DROP, channel, leak_credit=leak_credit)

    # -- scheduler faults ------------------------------------------------

    def corrupt_pifo(self, at_ps: int, engine: str) -> "FaultPlan":
        """Scramble the ranks of everything queued in a tile's PIFO."""
        return self._add(at_ps, PIFO_CORRUPT, engine)

    # -- whole-NIC faults ------------------------------------------------
    #
    # Targets name the NIC itself: the literal ``"self"`` in a
    # single-NIC plan, the bare NIC name (``"nic2"``) in a rack plan.
    # Unlike engine crashes, a downed NIC goes *dark at its MACs*: every
    # arriving frame is dropped at ingress and every frame reaching a
    # transmit MAC vanishes, both with accounting
    # (``stats()["faults"]["dark_rx_drops"/"dark_tx_drops"]``).  This is
    # what a backend crash looks like from the rest of the rack -- the
    # failure the load balancer's health monitor must detect.

    def nic_down(self, at_ps: int, nic: str = "self") -> "FaultPlan":
        """Power a NIC's MACs off: dark to the rack until
        :meth:`nic_up`."""
        return self._add(at_ps, NIC_DOWN, nic)

    def nic_up(self, at_ps: int, nic: str = "self") -> "FaultPlan":
        """Restore a NIC downed by :meth:`nic_down`."""
        return self._add(at_ps, NIC_UP, nic)

    def flap_nic(self, down_ps: int, up_ps: int,
                 nic: str = "self") -> "FaultPlan":
        """Convenience: a dark interval ``[down_ps, up_ps)``."""
        if up_ps <= down_ps:
            raise ValueError(
                f"flap must come back up after it goes down "
                f"({down_ps} .. {up_ps})"
            )
        return self.nic_down(down_ps, nic).nic_up(up_ps, nic)

    # -- external wire faults (rack scope) -------------------------------
    #
    # Targets name a cable between two rack NICs: ``wire_<i>_<j>`` where
    # ``i < j`` index the NICs in topology declaration order (see
    # :func:`repro.faults.rack.wire_target`).  Engine/link kinds in a
    # rack plan take ``"<nic>:<target>"`` instead (e.g. ``"nic0:ipsec"``).

    def wire_down(self, at_ps: int, wire: str) -> "FaultPlan":
        """Cut a cable: every frame offered to it vanishes until
        :meth:`wire_up`.  Frames already in flight still arrive (the
        photons left before the backhoe)."""
        return self._add(at_ps, WIRE_DOWN, wire)

    def wire_up(self, at_ps: int, wire: str) -> "FaultPlan":
        """Restore a cable cut by :meth:`wire_down`."""
        return self._add(at_ps, WIRE_UP, wire)

    def flap_wire(self, down_ps: int, up_ps: int, wire: str) -> "FaultPlan":
        """Convenience: a down interval ``[down_ps, up_ps)``."""
        if up_ps <= down_ps:
            raise ValueError(
                f"flap must come back up after it goes down "
                f"({down_ps} .. {up_ps})"
            )
        return self.wire_down(down_ps, wire).wire_up(up_ps, wire)

    def wire_loss(
        self, at_ps: int, wire: str,
        drop_p: float = 0.01, corrupt_p: float = 0.0,
    ) -> "FaultPlan":
        """Make a cable lossy from ``at_ps`` on: each transmitted frame
        is independently dropped with ``drop_p`` or bit-corrupted with
        ``corrupt_p``, drawn from a per-wire-direction fork of the
        plan's seed (so runs replay identically at any shard count).
        Probabilities of 0 restore a clean wire."""
        for label, p in (("drop_p", drop_p), ("corrupt_p", corrupt_p)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {p}")
        return self._add(at_ps, WIRE_LOSS, wire,
                         drop_p=drop_p, corrupt_p=corrupt_p)

    def link_local(self, at_ps: int, wire: str) -> "FaultPlan":
        """Arm LinkGuardian-style sub-RTT repair on both directions of a
        cable from ``at_ps`` on: the receiver NACKs dropped/corrupted
        frames, the sender retransmits from a bounded hold buffer, and
        repaired frames hand off to the next hop in order.  See
        :mod:`repro.reliability.linklayer`."""
        return self._add(at_ps, WIRE_LINKLAYER, wire)

    # -- introspection ---------------------------------------------------

    def events(self) -> List[FaultEvent]:
        """All events, time-sorted (stable for equal timestamps)."""
        return sorted(self._events, key=lambda e: e.at_ps)

    def describe(self) -> str:
        if not self._events:
            return "fault plan: empty"
        lines = [f"fault plan (seed={self.seed}, {len(self._events)} events):"]
        lines += [f"  {event.describe()}" for event in self.events()]
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._events)

    def _add(self, at_ps: int, kind: str, target: str, **params) -> "FaultPlan":
        self._events.append(FaultEvent(int(at_ps), kind, target, params))
        return self
