"""The event-driven simulation kernel.

A :class:`Simulator` owns an event heap.  RMT stages, offload engines,
workload generators and hosts are each a :class:`Component` of one
simulator, with a name unique in it; NoC routers and channels are not
(a mesh derives their names).  All schedule callbacks at future
picosecond timestamps.

Determinism: events that share a timestamp fire in scheduling order (a
monotonic sequence number breaks ties), so a run with a fixed RNG seed is
exactly reproducible.

One queue, one loop
-------------------

Every event, zero-delay ones included, is one record on one heap: the
list ``[when, seq, fn, args]`` that :meth:`Simulator.schedule` pushes
and returns as the event's handle.  The (when, seq) firing order holds
by construction, and ``heapq`` compares the records' C-level ints
(``(when, seq)`` is unique, so ``fn`` is never compared).
:meth:`Simulator.run` has one drain loop -- peek the head, stop on the
deadline or the event budget, pop, fire -- that serves unbounded,
bounded, observed and single-step (:meth:`Simulator.step`) execution
alike.

A record whose ``fn`` is ``None`` is dead: cancelled
(:meth:`Simulator.cancel`) or fired.  The loop clears ``fn`` and
``args`` *before* calling, so a fired record keeps only its ``when``
and ``seq`` and pins nothing, whoever holds the handle -- an owner's
handle never closes a reference cycle through the callback's bound
object.  Lazily-cancelled records are compacted out of the heap once
they dominate it, keeping pushes/pops logarithmic in *live* events.
(Until EXPERIMENTS.md E34 each entry carried an ``Event`` object,
recycled through a refcount-gated free list (E22): a kept handle
stayed live, and a flight holding its delivery event was cyclic
garbage.)
"""

from __future__ import annotations

import heapq
from time import perf_counter as _perf_counter
from typing import Any, Callable, Dict, List, Optional, Set

from repro.sim.clock import format_time

#: Compaction triggers once the heap holds at least this many entries and
#: more than half of them are cancelled.
_COMPACT_MIN = 1024


class SimError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, duplicate names, ...)."""


class DeadlockError(SimError):
    """``run`` exhausted its event budget with work still pending.

    The message carries :meth:`Simulator.pending_summary`, naming the
    callbacks that keep firing -- usually enough to spot a credit leak or
    a component rescheduling itself forever.
    """


class Simulator:
    """Discrete-event simulator with integer picosecond time."""

    def __init__(self) -> None:
        self.now: int = 0
        # Bound once: every component stores this one object, and
        # ``sim.schedule(...)`` makes no bound method per call.
        self.schedule = self.schedule
        # Event records [when, seq, fn, args]; fn None = dead.
        self._heap: List[list] = []
        self._seq: int = 0
        # Names of the components built on this simulator: each unique.
        self._names: Set[str] = set()
        self._events_fired: int = 0
        self._cancelled_pending = 0
        # Deadline of the run() call currently executing (None when the
        # run is unbounded).  The batched train lane reads it through
        # :meth:`train_horizon` so a train never commits state beyond the
        # window a caller asked for -- in the sharded runner that window
        # is the conservative shard sync window, which is exactly
        # why trains can never leak across shard barriers.
        self._run_until: Optional[int] = None
        # Optional caller-owned list of the distinct timestamps of fired
        # events.  The speculative shard runtime installs one to detect
        # execution past a commit point.
        self._fired_log: Optional[List[int]] = None
        # Optional caller-owned wall-time attribution sink: component
        # name -> [calls, seconds]; None (default) times nothing.
        self._profile: Optional[Dict[str, list]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay_ps: int, fn: Callable[..., None], *args: Any) -> list:
        """Schedule ``fn(*args)`` to run ``delay_ps`` picoseconds from now.

        Returns the event's record, ``[when, seq, fn, args]``: the handle
        :meth:`cancel` and :meth:`move_earlier` take.  Read it, never
        write it.

        Body duplicated from :meth:`schedule_at` (with ``when >= now`` by
        construction): this is the hottest scheduling entry point, and the
        extra call level is measurable.
        """
        if delay_ps < 0:
            raise SimError(f"cannot schedule in the past (delay {delay_ps} ps)")
        seq = self._seq
        self._seq = seq + 1
        record = [self.now + int(delay_ps), seq, fn, args]
        heapq.heappush(self._heap, record)
        return record

    def schedule_at(self, when_ps: int, fn: Callable[..., None], *args: Any) -> list:
        """Schedule ``fn(*args)`` at an absolute timestamp; returns its
        record, as :meth:`schedule` does."""
        when = int(when_ps)
        if when < self.now:
            raise SimError(
                f"cannot schedule at {when} ps; current time is {self.now} ps"
            )
        seq = self._seq
        self._seq = seq + 1
        record = [when, seq, fn, args]
        heapq.heappush(self._heap, record)
        return record

    def cancel(self, record: list) -> None:
        """Prevent a scheduled event from firing.  Idempotent, and a no-op
        on an event that already fired (its ``fn`` is ``None`` already);
        the dead record stays in the heap until popped or compacted."""
        if record[2] is not None:
            record[2] = None
            record[3] = ()
            self._cancelled_pending += 1
            if (self._cancelled_pending > _COMPACT_MIN
                    and self._cancelled_pending * 2 > len(self._heap)):
                self._compact()

    def move_earlier(self, record: list, when_ps: int,
                     fn: Callable[..., None], *args: Any) -> list:
        """Cancel the pending ``record`` and schedule ``fn(*args)`` in its
        place at ``when_ps``, in ``[now, record's when)``, under its
        sequence number: among same-instant events it fires where
        ``record`` would have.  (Strictly earlier, so the two heap entries
        never tie.)  Returns the new record."""
        when = int(when_ps)
        if record[2] is None or not self.now <= when < record[0]:
            raise SimError(f"cannot move the event at {record[0]} ps "
                           f"to {when} ps")
        self.cancel(record)
        moved = [when, record[1], fn, args]
        heapq.heappush(self._heap, moved)
        return moved

    def _compact(self) -> None:
        """Drop lazily-cancelled events so heap ops track live work.

        Mutates the heap list *in place*: the drain loop in :meth:`run`
        holds a local alias to it across callback invocations.
        """
        live = [record for record in self._heap if record[2] is not None]
        heapq.heapify(live)
        self._heap[:] = live
        self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def next_event_ps(self) -> Optional[int]:
        """Timestamp of the next live event, or None when drained.

        Cancelled events at the head of the heap are discarded on the
        way.  Used by the sharded runner (:mod:`repro.sim.shard`) to
        compute conservative synchronization windows: a shard whose next
        event is at ``t`` cannot emit anything onto a cross-shard wire
        before ``t``, so every shard may safely run to
        ``min_t + lookahead``.
        """
        heap = self._heap
        while heap:
            if heap[0][2] is not None:
                return heap[0][0]
            heapq.heappop(heap)
            if self._cancelled_pending:
                self._cancelled_pending -= 1
        return None

    def train_horizon(self) -> Optional[float]:
        """First instant a train ride may *not* touch.

        The train lane (:mod:`repro.core.train`) may only commit state
        mutations with timestamps **strictly below** this horizon: at the
        horizon itself a pending event (necessarily carrying an older
        sequence number) would fire first under scalar execution and
        could observe the pre-mutation state.  Returns ``None`` when the
        simulator is not quiescent: the next live event is due at
        ``now`` itself.  Returns ``inf`` for a fully drained, unbounded
        run.

        ``run(until_ps=...)`` fires events *at* ``until_ps``, so the
        horizon inside a bounded window is ``until_ps + 1``.
        """
        nxt = self.next_event_ps()
        if nxt == self.now:
            return None
        horizon: float = float("inf") if nxt is None else nxt
        if self._run_until is not None and self._run_until + 1 < horizon:
            horizon = self._run_until + 1
        return horizon

    def set_fired_log(self, log: Optional[List[int]]) -> None:
        """Install (or remove, with ``None``) a fired-timestamp log.

        While installed, the kernel appends each fired event's ``when``
        -- every *distinct* value, in non-decreasing order -- and
        nothing else.  A train-lane ride (:mod:`repro.core.train`)
        assigns ``now`` directly while it replays later hops inside one
        event, so the log holds the instant the ride's event fired, not
        the instants the ride went on to touch.  The speculative shard
        runtime uses the log to decide whether a shard executed past a
        commit point and must roll back (``log[-1] >= commit_ps``), and
        to locate the first rolled-back timestamp; a ride that boards
        below the commit point and runs past it escapes that check
        (DESIGN.md section 15, "Known hole").  The caller owns the list
        and may clear it between windows; ``run()`` reads the setting on
        entry.
        """
        self._fired_log = log

    def set_profile(self, sink: Optional[Dict[str, list]]) -> None:
        """Install (or remove, with ``None``) a wall-time profile sink.

        While installed, every fired event is timed with
        ``perf_counter`` and attributed to the component that handled it
        (the bound method's owner, falling back to the callback's
        qualname): ``sink[name] = [calls, seconds]``, accumulated in
        place.  The caller owns the dict.  Wall times are measurements
        of *this* process, not simulated state -- they are
        nondeterministic and must never feed reports that are compared
        across execution modes.  Simulated results are bit-identical
        with a sink installed or not (the timing wraps the callback; it
        does not touch firing order).  ``run()`` reads the setting on
        entry.
        """
        self._profile = sink

    def profile_report(self) -> List[tuple]:
        """The installed sink as ``(seconds, calls, name)`` rows, most
        expensive first; empty when no sink is installed."""
        if not self._profile:
            return []
        return sorted(
            ((cell[1], cell[0], name)
             for name, cell in self._profile.items()),
            reverse=True)

    def rewind_clock(self, when_ps: int) -> None:
        """Move ``now`` *backward* to a quiescent instant.

        Only legal when nothing separates the two clock readings: no
        pending event earlier than the target (an event due at the old
        ``now`` is an ordinary future event once the clock is back at
        the target).  The speculative shard runtime rewinds a
        cleanly-committed shard from its speculation horizon back to the
        commit point so the next window's cross-shard deliveries (all at
        or beyond the commit point) schedule onto a consistent clock.
        State is untouched -- by the clean-commit check, no component
        mutated anything past the target.
        """
        when = int(when_ps)
        if when > self.now:
            raise SimError(
                f"rewind_clock cannot move forwards ({when} > {self.now})"
            )
        nxt = self.next_event_ps()
        if nxt is not None and nxt < when:
            raise SimError(
                f"rewind_clock past a pending event ({nxt} < {when})"
            )
        self.now = when

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if none remain."""
        return self.run(max_events=1) == 1

    def run(
        self,
        until_ps: Optional[int] = None,
        max_events: Optional[int] = None,
        on_max_events: str = "return",
    ) -> int:
        """Run until the heap drains, ``until_ps`` is reached, or
        ``max_events`` more events have fired.

        Returns the number of events fired by this call.  When ``until_ps``
        is given, simulated time is advanced to exactly ``until_ps`` even if
        the heap drains earlier, so back-to-back ``run`` calls see a
        consistent clock.  (A budget spent with an event still due inside
        the window leaves the clock at the last fired event instead, so
        the same call can be repeated to resume.)

        ``on_max_events`` controls what happens when the event budget is
        exhausted with live events still pending: ``"return"`` (default)
        stops quietly, ``"raise"`` raises :class:`DeadlockError` carrying
        :meth:`pending_summary` -- a budget exhausted with work pending is
        almost always a deadlock or a credit leak, and the summary names
        the callbacks keeping the heap alive.

        The fired log and the profile sink are read on entry: one
        installed by a callback takes effect at the next ``run()``.
        """
        if on_max_events not in ("return", "raise"):
            raise SimError(
                f"on_max_events must be 'return' or 'raise', got {on_max_events!r}"
            )
        fired = 0
        bounded = until_ps is not None
        budget = -1 if max_events is None else max(max_events, 0)
        # ``_compact`` mutates the heap in place, keeping the alias valid.
        heap = self._heap
        log = self._fired_log
        profile = self._profile
        watched = log is not None or profile is not None
        heappop = heapq.heappop
        # Expose the window deadline to the train lane for the duration
        # of this call (None = unbounded); see train_horizon().
        self._run_until = until_ps
        try:
            while heap:
                if fired == budget:
                    head_when = self.next_event_ps()
                    if head_when is not None:
                        if on_max_events == "raise":
                            raise DeadlockError(
                                f"run() exhausted max_events={max_events} at "
                                f"{format_time(self.now)} with work still "
                                f"pending (likely deadlock or livelock)\n"
                                + self.pending_summary()
                            )
                        if not bounded or head_when <= until_ps:
                            # Window unfinished: the clock stays at the
                            # last fired event for a resumption.
                            return fired
                    break
                if bounded and heap[0][0] > until_ps:
                    break
                record = heappop(heap)
                when, _, fn, args = record
                if fn is None:
                    if self._cancelled_pending:
                        self._cancelled_pending -= 1
                    continue
                # Dead before it runs: a kept handle pins nothing, and a
                # callback cancelling its own event changes nothing.
                record[2] = None
                record[3] = ()
                if when < self.now:
                    raise SimError("event heap corrupted: time went backwards")
                self.now = when
                self._events_fired += 1
                fired += 1
                if not watched:
                    fn(*args)
                else:
                    if log is not None and (not log or log[-1] != when):
                        log.append(when)
                    if profile is None:
                        fn(*args)
                    else:
                        t0 = _perf_counter()
                        fn(*args)
                        elapsed = _perf_counter() - t0
                        try:
                            key = fn.__self__.name
                        except AttributeError:
                            key = getattr(fn, "__qualname__", repr(fn))
                        cell = profile.get(key)
                        if cell is None:
                            profile[key] = [1, elapsed]
                        else:
                            cell[0] += 1
                            cell[1] += elapsed
        finally:
            self._run_until = None
        if bounded and self.now < until_ps:
            self.now = until_ps
        return fired

    def pending_summary(self, limit: int = 8) -> str:
        """Human-readable digest of the live events still in the heap.

        Events are grouped by callback qualname with counts and earliest
        firing time, so a wedged run reports *who* is stuck (e.g. a channel
        ``_complete`` that never delivers) rather than a bare number.
        """
        groups: Dict[str, List[int]] = {}
        for when, _, fn, _ in self._heap:
            if fn is None:
                continue
            name = getattr(fn, "__qualname__", repr(fn))
            groups.setdefault(name, []).append(when)
        if not groups:
            return "pending events: none"
        lines = [f"pending events: {sum(len(w) for w in groups.values())}"]
        ranked = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        for name, whens in ranked[:limit]:
            lines.append(
                f"  {len(whens):>5} x {name} (earliest @{format_time(min(whens))})"
            )
        if len(ranked) > limit:
            lines.append(f"  ... and {len(ranked) - limit} more callback kinds")
        return "\n".join(lines)

    @property
    def events_fired(self) -> int:
        """Total number of events executed since construction."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    def __repr__(self) -> str:
        return (
            f"Simulator(now={format_time(self.now)}, "
            f"pending={self.pending_events}, fired={self._events_fired})"
        )


class Component:
    """Base class for everything that lives inside a simulation.

    Subclasses get a back-reference to the simulator (``self.sim``), a unique
    ``name``, and convenience wrappers around scheduling.
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        # The simulator's one bound method: ``self.schedule(...)``
        # dispatches straight into the kernel, with no Python frame of
        # its own.
        self.schedule = sim.schedule
        if name in sim._names:
            raise SimError(f"duplicate component name: {name!r}")
        sim._names.add(name)

    @property
    def now(self) -> int:
        """Current simulated time in picoseconds."""
        return self.sim.now

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
