"""Rack-scale sharded execution: one window protocol, parameterised by horizon.

Runs a :class:`~repro.core.topology.RackTopology` either **monolithically**
(every NIC in one :class:`~repro.sim.kernel.Simulator` -- the reference
semantics) or **sharded** across worker processes, one ``Simulator`` per
worker.  Both go through :func:`_build_shard` and cable their NICs with
the same :class:`~repro.workloads.wire.LinkEnd`; the monolithic run is
the build with every NIC on shard 0, run to completion in this process.

Sharded runs synchronize in rounds.  ``L`` is the **lookahead** -- the
minimum propagation delay over all cross-shard wires -- and ``H >= 1``
the round's **horizon** in lookaheads:

1. Every shard reports the timestamp of its earliest pending event.
2. The coordinator opens the window ``[m, m + H * L)`` where ``m`` is the
   global minimum over those timestamps and any in-flight cross-shard
   arrivals.  Windows are half-open on purpose: shards run ``until
   m + H * L - 1`` so that a frame arriving exactly at the window end is
   scheduled *before* any local event at that instant fires.
3. Egress frames (parked per window in the outbox of each
   :class:`~repro.workloads.wire.LinkEnd` whose far NIC is on another
   shard) come back as serialized batches.  The **commit point** ``W``
   is the low-water mark of every new cross-shard arrival, capped at
   the window end.  A frame sent at ``tx >= m`` arrives at
   ``tx + prop >= m + L``, so ``W >= m + L``: every round commits at
   least one lookahead and progress is guaranteed.
4. Capsules created below ``W`` are scheduled at their exact arrival
   timestamps before the next window opens; ``W`` rides along on that
   window's message.

**Conservative** runs (``speculative=False``) pin ``H = 1``.  Then
``W`` is the window end by construction, no shard can have received
anything it should already have processed, and nothing is ever undone:
no checkpoint, no ``os.fork``, no fired-timestamp log.  With no
cross-shard wires at all (``L == 0``) the run is one unbounded round.

**Speculative** runs (``speculative=True``) let ``H`` adapt between 1
and :data:`SPEC_HORIZON` (halved after a round that rolled back,
doubled after a clean one) and, whenever ``H > 1``, checkpoint every
shard first with a copy-on-write ``os.fork`` (the parent freezes as the
checkpoint; the child speculates).  A shard that mutated state at or
past ``W`` (detected through the kernel's fired-timestamp log; batched
train rides never reach it, so speculative runs refuse NICs that carry
a train lane) is a *straggler victim*: it hands the
unprocessed message to its frozen checkpoint and exits; the parent
wakes, replays deterministically to ``W - 1`` (its RNG, heap, and
sequence state are the exact pre-speculation bits, so the replay is
bit-identical and its re-emitted capsules are dropped as duplicates),
and carries on.  Clean shards release the checkpoint and rewind their
clock to ``W - 1``.  Capsules created at or past ``W`` are discarded at
the barrier -- the rolled-back sender will re-emit them.

Either way the sharded run reproduces the monolithic run bit-for-bit
(identical per-NIC ``stats()`` trees and delivery timestamps, enforced
by ``tests/test_shard_equivalence.py`` and ``tests/test_speculative.py``):
every event below ``W`` fired with complete information, exactly once,
in the surviving process lineage.  See DESIGN.md section 10 for the
determinism argument and its one residual tie-breaking caveat, and
section 15 for speculation.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.topology import LinkSpec, RackTopology
from repro.sim.kernel import DeadlockError, SimError, Simulator

#: Default per-window event budget: a backstop against deadlocks and
#: livelocks inside one shard.  A window that fires this many events with
#: work still pending aborts the whole rack run with the shard's pending
#: summary instead of hanging the barrier forever.
DEFAULT_WINDOW_EVENT_BUDGET = 50_000_000

#: Speculation horizon cap: how many lookaheads a speculative round may
#: span.  The coordinator adapts the live horizon between 1 (a
#: conservative window) and this cap: halved after any rollback, doubled
#: after an all-clean round.
SPEC_HORIZON = 8


class ShardError(SimError):
    """A worker process failed or the shard protocol was misused."""


class ShardDeadlockError(ShardError):
    """A shard exhausted its per-window event budget with work pending.

    Carries the offending shard id and a ``summary`` that survives the
    worker process: the kernel's ``pending_summary`` (which callbacks
    keep the heap alive) plus the shard's per-NIC engine state naming
    the component that starved -- not just the worker index.
    """

    def __init__(self, shard: int, summary: str):
        super().__init__(
            f"shard {shard} exhausted its window event budget with work "
            f"still pending (likely deadlock or livelock)\n{summary}"
        )
        self.shard = shard
        self.summary = summary


def _shard_pending_detail(nics: Dict[str, Any]) -> str:
    """Name the starved components of a wedged shard: every engine with
    a backlog, busy lanes, or an active fault, per NIC.  Shipped inside
    :class:`ShardDeadlockError` alongside the kernel pending summary."""
    lines: List[str] = [f"shard NICs: {', '.join(sorted(nics)) or '(none)'}"]
    for name in sorted(nics):
        engines = getattr(nics[name], "engines", None) or {}
        stuck = []
        for key in sorted(engines):
            engine = engines[key]
            backlog = getattr(engine, "backlog", 0)
            busy = getattr(engine, "_busy_lanes", 0)
            fault = getattr(engine, "fault_mode", None)
            if backlog or busy or fault:
                note = f"{key}(backlog={backlog}, busy_lanes={busy}"
                note += f", fault={fault})" if fault else ")"
                stuck.append(note)
        if stuck:
            lines.append(f"  {name} starved engines: " + ", ".join(stuck))
    if len(lines) == 1:
        lines.append("  no engine holds work; suspect wires or host timers")
    return "\n".join(lines)


@dataclass
class ShardRunResult:
    """Outcome of one rack run (either execution mode)."""

    mode: str                      # "monolithic" | "sharded"
    workers: int
    reports: Dict[str, dict]       # nic name -> its builder's report()
    events_fired: int              # summed across shards
    wall_seconds: float
    rounds: int = 0                # sync barriers (0 for monolithic)
    lookahead_ps: int = 0
    #: Merged telemetry: nic name -> canonical span list, or None when no
    #: NIC ran with telemetry.  Span ids are execution-mode independent,
    #: so this merge is comparable between monolithic and sharded runs.
    trace: Optional[Dict[str, list]] = None
    #: Per-direction external-wire fault accounting, keyed by the
    #: mode-independent direction label (``wire0.nic0->nic1``), merged
    #: across shards.  Comparable between execution modes like reports.
    wire_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: True when the run used (or requested) the speculative protocol.
    speculative: bool = False
    #: Horizon cap the coordinator adapted under: :data:`SPEC_HORIZON`
    #: when speculation engaged, 0 otherwise (conservative run, or no
    #: cross-shard wires to speculate past).
    spec_horizon: int = 0
    #: Speculation outcome counters, summed across shards: checkpoints
    #: abandoned (rollbacks), events re-fired during deterministic replay,
    #: and optimistically-fired events thrown away with their checkpoint.
    rollbacks: int = 0
    replayed_events: int = 0
    discarded_events: int = 0
    #: One entry per bounded synchronization round:
    #: ``(commit_ps, dirty_shards, cumulative_rollbacks,
    #: cumulative_replayed_events)``; a conservative round commits its
    #: whole window, ``(window_end + 1, 0, 0, 0)``.  Feeds the Perfetto
    #: counter track
    #: (:func:`repro.telemetry.export.shard_window_counters`).
    window_log: List[Tuple[int, int, int, int]] = field(default_factory=list)
    #: Speculation cost profile (zero/empty unless speculation engaged):
    #: duplicate cross-shard capsules re-emitted and discarded during
    #: deterministic replays, wall seconds the woken parents spent
    #: replaying, and the horizon (in lookaheads) each round speculated
    #: under -- the adaptation trajectory, one entry per round.
    capsules_replayed: int = 0
    rollback_wall_seconds: float = 0.0
    horizon_history: Tuple[int, ...] = ()
    #: Wall-time attribution (``profile=True`` runs only): merged
    #: ``(seconds, calls, component)`` rows, most expensive first, plus
    #: the per-shard breakdown ``{shard: {"busy_seconds", "profile"}}``
    #: where ``busy_seconds`` is time spent inside ``sim.run`` windows
    #: (barrier waits excluded, so imbalance is visible).  Wall times are
    #: measurements of this host, not simulated state -- nondeterministic,
    #: never part of mode-compared reports.
    profile: Optional[List[tuple]] = None
    shard_profiles: Optional[Dict[int, dict]] = None


def _merge_profile_rows(rows_per_shard) -> List[tuple]:
    """Sum per-shard ``(seconds, calls, name)`` profile rows into one
    report (component names are NIC-prefixed, so cross-shard collisions
    only happen for genuinely shared names like qualname fallbacks)."""
    merged: Dict[str, list] = {}
    for rows in rows_per_shard:
        for seconds, calls, name in rows:
            cell = merged.setdefault(name, [0, 0.0])
            cell[0] += calls
            cell[1] += seconds
    return sorted(
        ((cell[1], cell[0], name) for name, cell in merged.items()),
        reverse=True)


def _mp_context():
    """Fork when the platform offers it (cheap, inherits the import
    state); builders are module-level functions, so spawn works too."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


# ---------------------------------------------------------------------------
# Shard build (shared by every execution mode)
# ---------------------------------------------------------------------------

# A link end is keyed by (link index, end) where end is "a" or "b", the
# side it transmits from; a capsule that end "a" of link 7 parks in its
# outbox is delivered by the end keyed (7, "b").

_OTHER_END = {"a": "b", "b": "a"}


def _link_end(link: LinkSpec, end: str) -> Tuple[str, int]:
    return (link.nic_a, link.port_a) if end == "a" else (link.nic_b, link.port_b)


def _build_shard(
    sim: Simulator,
    shard: int,
    topology: RackTopology,
    assignment: Dict[str, int],
    fault_plan=None,
):
    """Construct shard ``shard``'s slice of the topology inside ``sim``:
    its NICs, one :class:`~repro.workloads.wire.LinkEnd` per cable end
    those NICs hold, and armed faults.  An end whose far NIC was built
    here delivers to it directly; one whose far NIC was not has no peer
    and fills its outbox.  Returns ``(nics, reports, ends)``."""
    from repro.faults.rack import arm_rack_faults, wire_direction_label
    from repro.workloads.wire import LinkEnd

    nics: Dict[str, Any] = {}
    reports: Dict[str, Callable[[], dict]] = {}
    for spec in topology.nics:
        if assignment[spec.name] != shard:
            continue
        nic, report = spec.builder(sim, spec.name, **spec.params)
        nics[spec.name] = nic
        reports[spec.name] = report

    ends: Dict[Tuple[int, str], Any] = {}
    for index, link in enumerate(topology.links):
        for end in ("a", "b"):
            nic_name, port = _link_end(link, end)
            if nic_name not in nics:
                continue
            peer_name, peer_port = _link_end(link, _OTHER_END[end])
            ends[(index, end)] = LinkEnd(
                sim, nics[nic_name], port, nics.get(peer_name), peer_port,
                link.propagation_ps,
                name=f"wire{index}.{nic_name}.p{port}",
                fault_label=wire_direction_label(index, link, end),
            )
    arm_rack_faults(fault_plan, topology, sim, nics, ends)
    return nics, reports, ends


def _shard_wire_stats(ends) -> Dict[str, Dict[str, int]]:
    wire_stats: Dict[str, Dict[str, int]] = {}
    for link_end in ends.values():
        wire_stats.update(link_end.wire_stats())
    return wire_stats


# ---------------------------------------------------------------------------
# Monolithic reference run
# ---------------------------------------------------------------------------


def run_monolithic(
    topology: RackTopology,
    fault_plan=None,
    profile: bool = False,
) -> ShardRunResult:
    """Run the whole topology in this process: the reference semantics
    every sharded run must reproduce bit-for-bit.

    The build is :func:`_build_shard` with every NIC on shard 0, so
    every link end has its far NIC beside it and no outbox ever fills.

    ``fault_plan`` is an optional rack-scoped
    :class:`~repro.faults.plan.FaultPlan` (targets ``"<nic>:<target>"``
    and ``"wire_<i>_<j>"``) armed through :mod:`repro.faults.rack`.
    ``profile=True`` installs the kernel's per-component wall-time sink
    (:meth:`~repro.sim.kernel.Simulator.set_profile`) and surfaces the
    attribution rows in ``result.profile`` -- simulated results stay
    bit-identical, only this process's wall time is measured.
    """
    from repro.telemetry.export import merge_trace_reports

    t0 = time.perf_counter()
    sim = Simulator()
    _nics, reports, ends = _build_shard(
        sim, 0, topology, topology.assign_shards(1), fault_plan
    )
    if profile:
        sim.set_profile({})
    run_t0 = time.perf_counter()
    fired = sim.run()
    done = time.perf_counter()
    gathered = {name: report() for name, report in reports.items()}
    return ShardRunResult(
        mode="monolithic",
        workers=1,
        reports=gathered,
        events_fired=fired,
        wall_seconds=done - t0,
        trace=merge_trace_reports(gathered),
        wire_stats=_shard_wire_stats(ends),
        profile=sim.profile_report() if profile else None,
        shard_profiles=(
            {0: {"busy_seconds": done - run_t0,
                 "profile": sim.profile_report()}}
            if profile else None
        ),
    )


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


#: The speculation cost counters each worker accumulates and the
#: coordinator sums into :class:`ShardRunResult` fields of the same names.
_NO_SPECULATION_COST = {
    "rollbacks": 0, "replayed_events": 0, "discarded_events": 0,
    "capsules_replayed": 0, "rollback_wall_seconds": 0.0,
}


def _send_verdict(fd: int, verdict: tuple) -> None:
    """Deliver the speculator's verdict to its frozen checkpoint and
    close the pipe."""
    data = pickle.dumps(verdict, protocol=pickle.HIGHEST_PROTOCOL)
    with os.fdopen(fd, "wb") as fh:
        fh.write(data)


def _spec_checkpoint():
    """Checkpoint this worker process with a copy-on-write fork.

    Returns ``(None, verdict_fd)`` in the **child**, which speculates
    onward and must eventually deliver exactly one verdict through
    ``verdict_fd``:

    * ``("release",)`` -- the speculation committed cleanly; the frozen
      parent exits and the child is authoritative.
    * ``("rollback", payload)`` -- the child executed past the commit
      point; it exits right after sending, and this call returns
      ``(payload, None)`` **in the parent**, which resumes as the live
      worker from the exact pre-speculation state (heap, RNG streams,
      sequence counters, reliability timers -- every object bit-for-bit,
      which is what makes the replay deterministic).

    The parent never touches the coordinator pipe while frozen, so the
    duplex connection needs no locking.  A child that dies without a
    verdict (coordinator abort, crash) EOFs the pipe and the parent
    exits quietly.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        return None, write_fd
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        try:
            verdict = pickle.load(fh)
        except Exception:
            os._exit(1)
    if verdict[0] == "release":
        os._exit(0)
    os.waitpid(pid, 0)
    return verdict[1], None


def _worker_main(
    conn,
    shard: int,
    topology: RackTopology,
    assignment: Dict[str, int],
    window_budget: Optional[int],
    fault_plan=None,
    profile: bool = False,
    speculative: bool = False,
) -> None:
    """Entry point of one shard process.

    Protocol (tuples over a duplex pipe):

    * -> ``("ready", next_ps)`` after construction.
    * <- ``("window", commit_ps, until_ps, checkpoint, ingress)``: first
      resolve the *previous* round at the piggybacked commit point
      (release the frozen checkpoint and rewind, or roll back to it and
      replay; nothing to do when that round ran without a checkpoint),
      then schedule ``ingress`` -- a list of ``(boundary_key,
      [PacketCapsule, ...])`` -- fork a fresh checkpoint when
      ``checkpoint`` is set (the coordinator clears it when the round
      provably commits whole, i.e. at horizon 1), and run to ``until_ps``
      (``None``: to completion).  Replies ``("window_done", next_ps,
      fired_times, outbox, counters)`` where ``fired_times`` is the
      kernel's distinct mutation-timestamp log for a checkpointed window
      (empty otherwise -- the log is only installed while a checkpoint
      is live), ``outbox`` is keyed by *destination* boundary, and
      ``counters`` are the cumulative speculation counters.
    * <- ``("finish", commit_ps)``: resolve (necessarily clean -- the
      coordinator only finishes after a round with no new cross-shard
      capsules), then reply ``("reports", {nic: report}, wire_stats,
      counters, events_fired, profile_rows, busy_seconds)``.
      ``events_fired`` counts the surviving process lineage only, i.e.
      each committed event exactly once; the last two carry the kernel's
      wall-time attribution (empty unless ``profile``) and the time this
      worker spent inside ``sim.run`` windows.
    * Budget exhaustion replies ``("deadlock", summary)``; any other
      failure replies ``("error", traceback)``.
    """
    nics: Dict[str, Any] = {}
    try:
        sim = Simulator()
        nics, reports, ends = _build_shard(
            sim, shard, topology, assignment, fault_plan
        )
        # The ends whose outboxes fill: their far NIC is on another shard.
        boundaries = {key: link_end for key, link_end in ends.items()
                      if link_end.peer_nic is None}
        if speculative:
            # A train ride moves sim.now inside one event and never
            # reaches the fired log the dirty check reads, so a ride
            # across a commit point would commit as clean.
            for name, nic in nics.items():
                if getattr(nic, "train_lane", None) is not None:
                    asked = nic.config.batch_execution
                    how = ("batch_execution=True" if asked else
                           "a train lane (batch_execution=None, the "
                           "default, builds one wherever a train can "
                           "board)")
                    raise ShardError(
                        f"{name} was built with {how}, which speculative "
                        "windows cannot run soundly; use speculative=False "
                        "or build it with batch_execution=False"
                    )
        if profile:
            sim.set_profile({})
        busy = 0.0
        # Cumulative speculation counters.  Copy-on-write keeps these
        # lineage-consistent: a child that commits carries its increments
        # forward; a child that rolls back dies and the woken parent's
        # pre-fork copy resumes, so only surviving work is ever counted
        # (the parent itself adds the rollback costs below).
        counters = dict(_NO_SPECULATION_COST)
        verdict_fd: Optional[int] = None  # pipe to the frozen checkpoint
        fired_log: List[int] = []  # installed only while verdict_fd is live
        window_fired = 0  # events fired by this process's last window

        def run_to(until_ps: Optional[int]) -> int:
            # Batched execution (repro.core.train) needs no shard
            # awareness: run(until_ps=...) sets the kernel's
            # train_horizon to until_ps + 1, so a train can never commit
            # state beyond the window a cross-shard delivery could land in.
            return sim.run(
                until_ps=until_ps,
                max_events=window_budget,
                on_max_events="raise",
            )

        conn.send(("ready", sim.next_event_ps()))
        message = conn.recv()
        while True:
            kind = message[0]
            commit_ps = message[1]
            # Phase A: resolve the previous round at commit_ps.  Only a
            # process holding a frozen checkpoint has anything to
            # resolve; a parent resuming after rollback already sits at
            # the commit point with no checkpoint behind it.
            if verdict_fd is not None:
                if fired_log and fired_log[-1] >= commit_ps:
                    # Straggler: state mutated at or past the commit
                    # point.  Forward the unprocessed message to the
                    # checkpoint and vanish; the parent takes over.
                    _send_verdict(
                        verdict_fd, ("rollback", (message, window_fired))
                    )
                    os._exit(0)
                _send_verdict(verdict_fd, ("release",))
                verdict_fd = None
                sim.set_fired_log(None)
                del fired_log[:]
                if commit_ps - 1 < sim.now:
                    sim.rewind_clock(commit_ps - 1)
            if kind == "finish":
                conn.send((
                    "reports",
                    {name: report() for name, report in reports.items()},
                    _shard_wire_stats(ends),
                    counters,
                    sim.events_fired,
                    sim.profile_report(),
                    busy,
                ))
                return
            if kind != "window":  # pragma: no cover - protocol misuse
                raise ShardError(f"shard {shard}: unexpected {kind!r}")
            _, _, until_ps, checkpoint, ingress = message

            # Phase B: schedule this round's cross-shard arrivals (all at
            # or beyond the commit point), checkpoint, run the window.
            for key, capsules in ingress:
                boundaries[key].schedule_deliveries(capsules)
            if checkpoint:
                payload, verdict_fd = _spec_checkpoint()
                if payload is not None:
                    # Parent, woken by a rollback: replay deterministically
                    # to the commit point the child could not honour, drop
                    # the duplicate capsules the replay re-emits (the
                    # coordinator kept the originals), and process the
                    # forwarded message as the live worker.
                    message, dirty_fired = payload
                    counters["rollbacks"] += 1
                    counters["discarded_events"] += dirty_fired
                    replay_t0 = time.perf_counter()
                    counters["replayed_events"] += run_to(message[1] - 1)
                    for boundary in boundaries.values():
                        # Count the re-serialization work the rollback
                        # forced.
                        counters["capsules_replayed"] += len(
                            boundary.take_outbox())
                    replay_elapsed = time.perf_counter() - replay_t0
                    counters["rollback_wall_seconds"] += replay_elapsed
                    busy += replay_elapsed
                    continue
                # Child: speculate past the safe point, logging where.
                sim.set_fired_log(fired_log)
            window_t0 = time.perf_counter()
            window_fired = run_to(until_ps)
            busy += time.perf_counter() - window_t0
            outbox = [
                ((index, _OTHER_END[end]), batch)
                for (index, end), boundary in boundaries.items()
                for batch in (boundary.take_outbox(),)
                if batch
            ]
            conn.send((
                "window_done", sim.next_event_ps(), fired_log, outbox,
                counters,
            ))
            message = conn.recv()
    except DeadlockError as exc:
        conn.send(("deadlock", f"{exc}\n{_shard_pending_detail(nics)}"))
    except (EOFError, BrokenPipeError):
        # Coordinator went away (abort path); frozen ancestors unwind
        # through their verdict-pipe EOFs.
        pass
    except Exception:  # pragma: no cover - ships the traceback out
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


def run_sharded(
    topology: RackTopology,
    workers: int,
    window_event_budget: Optional[int] = DEFAULT_WINDOW_EVENT_BUDGET,
    fault_plan=None,
    speculative: bool = False,
    profile: bool = False,
) -> ShardRunResult:
    """Run ``topology`` partitioned across ``workers`` processes.

    With one worker (or no cross-shard links) every shard runs one
    unbounded window -- no barriers, identical to monolithic semantics in
    a child process.  Raises :class:`ShardDeadlockError` when a shard
    exhausts ``window_event_budget`` with work pending,
    :class:`ShardError` when a worker fails or dies, and
    :class:`~repro.core.topology.TopologyError` when a cross-shard wire
    is shorter than the minimum lookahead.

    ``fault_plan`` is an optional rack-scoped fault schedule; every
    worker arms its local subset with plan-global RNG salts (see
    :mod:`repro.faults.rack`), so a faulty sharded run reproduces the
    faulty monolithic run bit-for-bit.

    ``speculative=True`` lets the round horizon grow past one lookahead
    (up to :data:`SPEC_HORIZON`) with fork-checkpoint rollback (module
    docstring).  Results stay bit-identical to the monolithic run; the
    :class:`ShardRunResult` additionally carries rollback/replay
    counters and the horizon trajectory.  Requires POSIX ``os.fork``.
    When the topology has no cross-shard wires there is nothing to
    speculate past (the result still reports ``speculative=True`` with
    zero counters and ``spec_horizon == 0``).  A NIC that carries a train
    lane -- ``batch_execution=True``, or the default None wherever a
    train can board -- is refused (:class:`ShardError`, before the first
    window): train rides are invisible to the dirty check.  Build it
    with ``batch_execution=False`` to speculate.

    ``profile=True`` installs each worker's kernel wall-time sink and
    gathers the merged attribution plus per-shard busy seconds into
    ``result.profile`` / ``result.shard_profiles`` (nondeterministic
    wall measurements; simulated results are unaffected).
    """
    assignment = topology.assign_shards(workers)
    lookahead = topology.lookahead_ps(assignment)
    spec_horizon = SPEC_HORIZON if speculative and lookahead else 0
    if spec_horizon and not hasattr(os, "fork"):  # pragma: no cover
        raise ShardError(
            "speculative mode requires POSIX fork for copy-on-write "
            "checkpoints"
        )

    # Destination boundary key -> owning shard, for routing outboxes.
    key_shard: Dict[Tuple[int, str], int] = {}
    for index, link in enumerate(topology.links):
        if assignment[link.nic_a] != assignment[link.nic_b]:
            key_shard[(index, "a")] = assignment[link.nic_a]
            key_shard[(index, "b")] = assignment[link.nic_b]

    ctx = _mp_context()
    pipes = []
    procs = []
    t0 = time.perf_counter()
    try:
        for shard in range(workers):
            parent, child = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child, shard, topology, assignment,
                      window_event_budget, fault_plan, profile, speculative),
                name=f"repro-shard-{shard}",
                daemon=True,
            )
            proc.start()
            child.close()
            pipes.append(parent)
            procs.append(proc)

        def expect(shard: int, kind: str):
            try:
                reply = pipes[shard].recv()
            except (EOFError, ConnectionError):
                procs[shard].join(timeout=5)
                raise ShardError(
                    f"shard {shard} worker died without replying "
                    f"(exit code {procs[shard].exitcode}) while the "
                    f"coordinator waited for {kind!r}"
                ) from None
            if reply[0] == "deadlock":
                raise ShardDeadlockError(shard, reply[1])
            if reply[0] == "error":
                raise ShardError(f"shard {shard} failed:\n{reply[1]}")
            if reply[0] != kind:  # pragma: no cover
                raise ShardError(
                    f"shard {shard}: expected {kind!r}, got {reply[0]!r}"
                )
            return reply

        next_ps: List[Optional[int]] = [
            expect(shard, "ready")[1] for shard in range(workers)
        ]
        inbox: List[Dict[Tuple[int, str], list]] = [
            {} for _ in range(workers)
        ]
        rounds = 0
        window_log: List[Tuple[int, int, int, int]] = []
        horizon_history: List[int] = []
        commit_ps: Optional[int] = None
        horizon = horizon_cap = spec_horizon or 1
        while True:
            candidates = [t for t in next_ps if t is not None]
            candidates.extend(
                capsule.arrival_ps
                for shard_inbox in inbox
                for batch in shard_inbox.values()
                for capsule in batch
            )
            if not candidates:
                break
            # Half-open window: run to E - 1 so a frame arriving at
            # exactly E is scheduled before any local event at E fires.
            # No cross-shard wires: one unbounded round drains every shard.
            until = (min(candidates) + horizon * lookahead - 1
                     if lookahead else None)
            rounds += 1
            if spec_horizon:
                horizon_history.append(horizon)
            # At horizon 1 every new arrival lands at or beyond
            # until + 1, so the round provably commits whole and needs
            # no checkpoint: a conservative window.
            checkpoint = horizon > 1
            for shard in range(workers):
                pipes[shard].send((
                    "window", commit_ps, until, checkpoint,
                    sorted(inbox[shard].items()),
                ))
                inbox[shard] = {}
            replies = [
                expect(shard, "window_done") for shard in range(workers)
            ]
            if until is None:
                # Unbounded round: nothing crossed, nothing to commit.
                next_ps = [reply[1] for reply in replies]
                continue
            # Commit point: low-water mark of every new cross-shard
            # arrival, capped at the window end.  Conservative on
            # purpose -- arrivals of capsules that will themselves be
            # rolled back still lower it; that only costs extra
            # replay, never correctness, and W >= m + lookahead
            # keeps each round committing at least one lookahead.
            commit_ps = until + 1
            for _, _, _, outbox, _ in replies:
                for _key, batch in outbox:
                    for capsule in batch:
                        if capsule.arrival_ps < commit_ps:
                            commit_ps = capsule.arrival_ps
            dirty = rollbacks = replayed = 0
            for shard, reply in enumerate(replies):
                _, next_at_s, fired_times, outbox, ctrs = reply
                # The shard's corrected next event after the commit
                # sweep: the first rolled-back timestamp, if any,
                # else its post-window head.
                first_rolled = next(
                    (t for t in fired_times if t >= commit_ps), None
                )
                if first_rolled is not None:
                    dirty += 1
                    next_ps[shard] = (
                        first_rolled if next_at_s is None
                        else min(first_rolled, next_at_s)
                    )
                else:
                    next_ps[shard] = next_at_s
                rollbacks += ctrs["rollbacks"]
                replayed += ctrs["replayed_events"]
                for key, batch in outbox:
                    kept = [
                        c for c in batch if c.created_ps < commit_ps
                    ]
                    if kept:
                        inbox[key_shard[key]].setdefault(
                            key, []
                        ).extend(kept)
            # Counters lag one round: a rollback forced by this W
            # shows up in the next reply.  Good enough for a gauge.
            window_log.append((commit_ps, dirty, rollbacks, replayed))
            horizon = (
                max(1, horizon // 2) if dirty
                else min(horizon_cap, horizon * 2)
            )

        for shard in range(workers):
            pipes[shard].send(("finish", commit_ps))
        reports: Dict[str, dict] = {}
        wire_stats: Dict[str, Dict[str, int]] = {}
        totals = dict(_NO_SPECULATION_COST)
        total_fired = 0
        shard_profiles: Dict[int, dict] = {}
        for shard in range(workers):
            (_, shard_reports, shard_wires, ctrs, lineage_fired,
             profile_rows, busy) = expect(shard, "reports")
            reports.update(shard_reports)
            wire_stats.update(shard_wires)
            for name, value in ctrs.items():
                totals[name] += value
            # The surviving lineage fired each committed event exactly
            # once; per-round sums would double-count rolled-back work.
            total_fired += lineage_fired
            shard_profiles[shard] = {
                "busy_seconds": busy, "profile": profile_rows,
            }
        wall = time.perf_counter() - t0
        for proc in procs:
            proc.join(timeout=30)
        from repro.telemetry.export import merge_trace_reports

        return ShardRunResult(
            mode="sharded",
            workers=workers,
            reports=reports,
            events_fired=total_fired,
            wall_seconds=wall,
            rounds=rounds,
            lookahead_ps=lookahead,
            trace=merge_trace_reports(reports),
            wire_stats=wire_stats,
            speculative=speculative,
            spec_horizon=spec_horizon,
            rollbacks=totals["rollbacks"],
            replayed_events=totals["replayed_events"],
            discarded_events=totals["discarded_events"],
            window_log=window_log,
            capsules_replayed=totals["capsules_replayed"],
            rollback_wall_seconds=totals["rollback_wall_seconds"],
            horizon_history=tuple(horizon_history),
            profile=(
                _merge_profile_rows(
                    entry["profile"] for entry in shard_profiles.values()
                ) if profile else None
            ),
            shard_profiles=shard_profiles if profile else None,
        )
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for pipe in pipes:
            pipe.close()
