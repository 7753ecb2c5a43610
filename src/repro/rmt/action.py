"""Action primitives and stateful registers.

Actions are the per-stage compute of an RMT pipeline.  Each is a named
function over ``(phv, ctx, **params)``; the standard library below covers
what the PANIC reference program needs: field writes, chain construction,
slack computation, queue selection, drops, and stateful counters.

The paper's constraint that "the actions possible at each stage are
limited to relatively simple atoms" (section 2.3.3) is preserved in
spirit: every standard action is O(1) over PHV fields and registers; no
action can loop over the payload, which is exactly why IPSec cannot be an
RMT action and must be an offload engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.rmt.phv import Phv


class ActionError(RuntimeError):
    """Raised when an action is misused (unknown name, bad params)."""


class Register:
    """A stateful register array, as in RMT switch designs.

    Supports the read / modify / write patterns actions need (counters,
    round-robin pointers, sequence numbers).
    """

    def __init__(self, name: str, size: int):
        if size <= 0:
            raise ValueError(f"register {name!r} needs positive size, got {size}")
        self.name = name
        self._cells: List[int] = [0] * size
        self._listeners: List[Callable[[], None]] = []

    def on_mutate(self, fn: Callable[[], None]) -> None:
        """Register a callback fired on any cell write.

        Used by the flow memo to invalidate cached traversals whenever
        register state changes (whether from the control plane or from a
        stateful action)."""
        if fn not in self._listeners:
            self._listeners.append(fn)

    def read(self, index: int) -> int:
        return self._cells[self._check(index)]

    def write(self, index: int, value: int) -> None:
        self._cells[self._check(index)] = value
        for fn in self._listeners:
            fn()

    def add(self, index: int) -> int:
        """Count one at ``index``; returns the new value."""
        i = self._check(index)
        self._cells[i] += 1
        for fn in self._listeners:
            fn()
        return self._cells[i]

    def _check(self, index: int) -> int:
        if not 0 <= index < len(self._cells):
            raise IndexError(
                f"register {self.name!r} index {index} out of range "
                f"[0, {len(self._cells)})"
            )
        return index

    def __len__(self) -> int:
        return len(self._cells)


@dataclass
class ActionContext:
    """Shared state actions may touch: registers and the pipeline clock.

    ``now_ps`` is the time the packet entered the pipeline -- the only
    notion of time an action gets, used for computing absolute slack
    deadlines.
    """

    registers: Dict[str, Register] = field(default_factory=dict)
    now_ps: int = 0
    #: Set whenever an action fetches a register during the current
    #: packet; the flow memo uses it to mark stages whose actions depend
    #: on mutable state (see :class:`repro.rmt.pipeline.TrajectoryMemo`).
    touched_state: bool = False

    def register(self, name: str) -> Register:
        reg = self.registers.get(name)
        if reg is None:
            raise ActionError(f"unknown register {name!r}")
        self.touched_state = True
        return reg


#: The signature of every action primitive.
Action = Callable[..., None]


# ----------------------------------------------------------------------
# Standard action library
# ----------------------------------------------------------------------


def no_op(phv: Phv, ctx: ActionContext) -> None:
    """Do nothing (the default default-action)."""


def drop(phv: Phv, ctx: ActionContext) -> None:
    """Mark the packet for dropping by the scheduler (lossy traffic)."""
    phv.set("meta.drop", 1)


def set_field(phv: Phv, ctx: ActionContext, *, field: str, value: Any) -> None:
    """Write a constant into a PHV field."""
    phv.set(field, value)


def set_chain(phv: Phv, ctx: ActionContext, *, chain: bytes) -> None:
    """Replace the packet's offload chain with ``chain``, the wire bytes
    :meth:`~repro.rmt.pipeline.RmtProgram.encode_chain` made at install."""
    phv.set("meta.chain", chain)


def set_slack(phv: Phv, ctx: ActionContext, *, slack_ps: int) -> None:
    """Set the scheduler deadline to ``now + slack_ps`` (section 3.1.3)."""
    phv.set("meta.slack_deadline_ps", ctx.now_ps + slack_ps)


#: The register ``wfq_slack`` keeps each tenant's last virtual finish
#: time in, one cell per 16-bit ``kv.tenant``.
WFQ_REGISTER = "wfq_finish"
WFQ_CELLS = 1 << 16


def wfq_increment(cost_ps: int, weight: float) -> int:
    """``wfq_slack``'s action data for a tenant: its per-message cost
    over its weight, rounded to a whole picosecond (ties to even).
    Raises ``ValueError`` unless cost and weight are positive and the
    increment is at least 1 ps."""
    increment = round(cost_ps / weight) if cost_ps > 0 and weight > 0 else 0
    if increment < 1:
        raise ValueError(
            f"WFQ needs cost > 0, weight > 0 and cost / weight >= 1 ps; "
            f"got cost {cost_ps} ps, weight {weight}")
    return increment


def wfq_slack(phv: Phv, ctx: ActionContext, *, increment_ps: int) -> None:
    """Start-time fair queueing as one register transaction (the PIFO
    paper's ``last_finish``): the deadline is the tenant's virtual finish
    time, ``increment_ps`` (its per-message cost over its weight) past
    the later of its previous finish and now."""
    finish_times = ctx.register(WFQ_REGISTER)
    tenant = phv.get("kv.tenant")
    finish = max(finish_times.read(tenant), ctx.now_ps) + increment_ps
    finish_times.write(tenant, finish)
    phv.set("meta.slack_deadline_ps", finish)


def set_queue(phv: Phv, ctx: ActionContext, *, queue: int) -> None:
    """Steer to a host receive queue (RSS-style)."""
    phv.set("meta.rx_queue", queue)


def count(phv: Phv, ctx: ActionContext, *, register: str, index: int = 0) -> None:
    """Increment a register cell (stateful counter)."""
    ctx.register(register).add(index)


def hash_select(
    phv: Phv,
    ctx: ActionContext,
    *,
    fields: List[str],
    ways: int,
    dst: str = "meta.rx_queue",
) -> None:
    """Hash PHV fields into [0, ways) (RSS-style flow-stable steering)."""
    if ways <= 0:
        raise ActionError(f"hash_select needs positive ways, got {ways}")
    acc = 0x811C9DC5
    for name in fields:
        value = phv.get(name)
        data = (value if isinstance(value, bytes)
                else value.to_bytes(8, "big"))
        for byte in data:
            acc = ((acc ^ byte) * 0x01000193) & 0xFFFFFFFF
    phv.set(dst, acc % ways)


def decrement_ttl(phv: Phv, ctx: ActionContext) -> None:
    ttl = phv.get("ipv4.ttl")
    assert isinstance(ttl, int)
    if ttl <= 1:
        phv.set("meta.drop", 1)
    phv.set("ipv4.ttl", max(0, ttl - 1))


# ----------------------------------------------------------------------
# L4 load balancing: consistent hashing + connection affinity
# ----------------------------------------------------------------------

#: Affinity-table stats register layout (cells of the ``stats`` register
#: an ``affinity_steer`` entry names).
LB_STAT_STEERED = 0    # every packet the action steered
LB_STAT_INSERTS = 1    # affinity entries created (first packet of a flow)
LB_STAT_HITS = 2       # packets pinned by an existing entry
LB_STAT_EVICTIONS = 3  # stale entries overwritten by a new flow
LB_STAT_BYPASS = 4     # collisions with a live entry (ring-only steering)
LB_STAT_CELLS = 5


def flow_key64(values: tuple) -> int:
    """FNV-1a 64-bit over PHV field values, never zero (zero is the
    affinity table's empty-slot sentinel)."""
    acc = 0xCBF29CE484222325
    for value in values:
        data = (value if isinstance(value, bytes)
                else value.to_bytes(8, "big"))
        for byte in data:
            acc = ((acc ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc or 1


def ring_lookup(ring, key: int) -> int:
    """Pick the ring point owning ``key``: first point clockwise from the
    key's 32-bit position, wrapping to the lowest point.  ``ring`` is a
    sorted sequence of ``(point, backend)`` pairs (see
    :class:`repro.lb.ring.HashRing`)."""
    if not ring:
        raise ActionError("consistent ring is empty (no live backends)")
    point = key & 0xFFFFFFFF
    lo, hi = 0, len(ring)
    while lo < hi:
        mid = (lo + hi) // 2
        if ring[mid][0] < point:
            lo = mid + 1
        else:
            hi = mid
    if lo == len(ring):
        lo = 0
    return ring[lo][1]


def affinity_steer(
    phv: Phv,
    ctx: ActionContext,
    *,
    fields: List[str],
    ring,
    key_reg: str,
    backend_reg: str,
    stamp_reg: str,
    epoch_reg: str,
    stats_reg: str,
    epoch: int,
    idle_ps: int,
    dst: str = "meta.lb_backend",
) -> None:
    """Consistent-hash steering with Register-backed connection affinity.

    The first packet of a flow hashes onto ``ring`` and inserts an
    affinity entry (flow key, chosen backend, rule epoch, last-seen
    stamp) into the bounded register arrays; every later packet of the
    flow is pinned to the recorded backend *regardless of the ring the
    current epoch carries* -- which is exactly what keeps established
    flows on their backend while the control plane drains or migrates
    the backend set underneath them (make-before-break, DESIGN.md
    section 17).

    The table is direct-indexed by ``key % slots`` with no chaining (the
    O(1)-atom constraint of section 2.3.3).  A slot whose entry has gone
    idle for ``idle_ps`` is reclaimed by the next colliding flow; a
    collision with a *live* entry falls back to ring-only steering --
    still flow-stable, but unpinned across epochs -- and is counted in
    the stats register so operators can size the table
    (``LB_STAT_BYPASS``).
    """
    values = tuple(phv.get(name) for name in fields)
    key = flow_key64(values)
    keys = ctx.register(key_reg)
    stats = ctx.register(stats_reg)
    stats.add(LB_STAT_STEERED)
    slot = key % len(keys)
    current = keys.read(slot)
    now = ctx.now_ps
    stamps = ctx.register(stamp_reg)
    if current == key:
        backend = ctx.register(backend_reg).read(slot)
        stamps.write(slot, now)
        stats.add(LB_STAT_HITS)
    elif current == 0 or now - stamps.read(slot) > idle_ps:
        backend = ring_lookup(ring, key)
        if current != 0:
            stats.add(LB_STAT_EVICTIONS)
        keys.write(slot, key)
        ctx.register(backend_reg).write(slot, backend)
        ctx.register(epoch_reg).write(slot, epoch)
        stamps.write(slot, now)
        stats.add(LB_STAT_INSERTS)
    else:
        # Live collision: steer by the ring without pinning.
        backend = ring_lookup(ring, key)
        stats.add(LB_STAT_BYPASS)
    phv.set(dst, backend)


def standard_actions() -> Dict[str, Action]:
    """The default action registry installed in every pipeline."""
    return {
        "no_op": no_op,
        "drop": drop,
        "set_field": set_field,
        "set_chain": set_chain,
        "set_slack": set_slack,
        "wfq_slack": wfq_slack,
        "set_queue": set_queue,
        "count": count,
        "hash_select": hash_select,
        "decrement_ttl": decrement_ttl,
        "affinity_steer": affinity_steer,
    }


def decode_chain(blob: bytes) -> List[int]:
    """Decode the ``meta.chain`` byte string back to engine addresses."""
    if len(blob) % 2:
        raise ActionError(f"chain blob has odd length {len(blob)}")
    return [
        int.from_bytes(blob[i : i + 2], "big") for i in range(0, len(blob), 2)
    ]
