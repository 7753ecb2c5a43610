"""The match+action pipeline: stages, programs, and the pure dataplane.

An :class:`RmtProgram` bundles a parse graph, an ordered list of stages
(one table each), an action registry and stateful registers -- the moral
equivalent of a compiled P4 program.  :class:`RmtPipeline` executes it as
a pure function: ``process(packet_bytes, metadata, now_ps) -> Phv``.

Timing (the paper's F*P packets per second, one packet per cycle per
pipeline, section 4.2) is layered on by the engine wrapper
(:mod:`repro.engines.rmt_engine`); keeping the dataplane pure makes it
directly unit-testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.packet.panic_hdr import PanicHeader
from repro.rmt.action import (
    Action,
    ActionContext,
    ActionError,
    Register,
    no_op,
    standard_actions,
)
from repro.rmt.parser import ParseGraph, default_parse_graph
from repro.rmt.phv import Phv
from repro.rmt.table import MatchKey, Table


@dataclass
class Stage:
    """One pipeline stage holding a single match+action table.

    Real RMT stages can hold several small tables; modelling one table per
    stage keeps the latency accounting simple (stage count == table count)
    without losing expressiveness -- a program needing two tables in one
    stage just declares two stages.
    """

    table: Table
    #: Optional guard: only run this stage when the PHV field is valid.
    requires: Optional[str] = None

    @property
    def name(self) -> str:
        return self.table.name


class RmtProgram:
    """A complete pipeline program (parser + stages + actions + registers)."""

    def __init__(
        self,
        name: str = "program",
        parse_graph: Optional[ParseGraph] = None,
    ):
        self.name = name
        self.parse_graph = parse_graph if parse_graph is not None else default_parse_graph()
        self.stages: List[Stage] = []
        self.actions: Dict[str, Action] = standard_actions()
        self.registers: Dict[str, Register] = {}
        #: Hops of every chain installed, by ``meta.chain`` bytes.
        self.chains: Dict[bytes, Tuple[int, ...]] = {b"": ()}
        #: Whether an entry writing a parsed header field has bound.
        self.writes_headers = False

    # -- program construction -------------------------------------------

    def add_stage(self, table: Table, requires: Optional[str] = None) -> Table:
        """Append a stage holding ``table``; returns the table for chaining.
        The table's actions resolve here, so an unknown one raises now."""
        table.bind(self)
        self.stages.append(Stage(table, requires))
        return table

    def add_table(
        self,
        name: str,
        keys: Sequence[MatchKey],
        default_action: str = "no_op",
        default_params: Optional[Dict[str, Any]] = None,
        requires: Optional[str] = None,
    ) -> Table:
        """Create a table and append it as a new stage."""
        table = Table(name, keys, default_action, default_params)
        return self.add_stage(table, requires)

    def add_action(self, name: str, fn: Action) -> None:
        if name in self.actions:
            raise ActionError(f"action {name!r} already registered")
        self.actions[name] = fn

    def add_register(self, name: str, size: int) -> Register:
        if name in self.registers:
            raise ActionError(f"register {name!r} already declared")
        register = Register(name, size)
        self.registers[name] = register
        return register

    def encode_chain(self, chain: Sequence[int]) -> bytes:
        """The ``meta.chain`` bytes of ``chain`` (the inverse of
        ``decode_chain``), for a chain action's data: validated, so a bad
        address raises at install, and registered in :attr:`chains`."""
        hops = tuple(PanicHeader(chain=list(chain)).chain)
        blob = b"".join([hop.to_bytes(2, "big") for hop in hops])
        self.chains[blob] = hops
        return blob

    def table(self, name: str) -> Table:
        for stage in self.stages:
            if stage.table.name == name:
                return stage.table
        raise KeyError(f"program {self.name!r} has no table {name!r}")

    @property
    def num_stages(self) -> int:
        return len(self.stages)


#: Per-stage slot markers in a recorded trajectory (entries are stored as
#: live :class:`~repro.rmt.table.TableEntry` references).
_SKIP = object()      # requires-guard failed: stage did not run
_DEFAULT = object()   # table miss: default action ran
#: Placeholder for a PHV field absent from the flow key.
_ABSENT = object()


class TrajectoryMemo:
    """Flow-keyed cache of full RMT traversals (trajectory replay).

    A packet's *flow key* is the tuple of every match-relevant PHV field
    after parsing: all table key fields plus all ``requires`` guards
    (absent fields are part of the key too, so requires-validity is
    captured).  A flow's first pass is the stage walk
    (:meth:`RmtPipeline._run_stages`) with a recording hook; for a known
    key the memo replays the recorded per-stage slots -- skip, default,
    or a live table entry -- **re-executing each slot's resolved action
    on the live PHV**, so all it saves is the matches.  Re-execution
    keeps everything that is not a table match exact by construction:
    time-dependent slack deadlines (``ctx.now_ps``), register reads,
    stateful policies, header rewrites, and drop marking all happen
    precisely as in a full traversal.  Entry hit counters are
    bumped on replay, so control-plane-visible accounting is identical.

    Safety rules:

    * Any :class:`~repro.rmt.table.Table` mutation or
      :class:`~repro.rmt.action.Register` write invalidates the whole
      cache (listeners installed by :meth:`_wire`).  A register write
      *during* a recording marks it dirty, so flows running
      register-writing actions (``count``, ``affinity_steer``) are simply
      never cached.
    * A recording is abandoned when an action changes a match-relevant
      field mid-traversal (the trajectory would be input-dependent) or
      when the packet is dropped (the slot list would be truncated).
    * Stages whose action fetched a register (``ctx.touched_state``) are
      re-verified on replay: if the replayed action disturbed a relevant
      field, the memo falls back to full lookups for the remaining
      stages.  Residual caveat: a custom action that writes a relevant
      field from hidden (non-register) state, while coincidentally
      preserving the recorded packet's value, could be mis-replayed;
      no standard action does this, and ``tests/test_rmt_memo.py``
      enforces memo-on/off equivalence for the shipped programs.
    """

    def __init__(self, program: RmtProgram, max_entries: int = 4096):
        self.program = program
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._cache: Dict[tuple, tuple] = {}
        self._uncacheable: set = set()
        self._fields: tuple = ()
        self._wired: set = set()
        self._n_stages = -1
        self._n_registers = -1
        self._dirty = False

    # -- wiring ---------------------------------------------------------

    def _invalidate(self) -> None:
        self._dirty = True
        if self._cache or self._uncacheable:
            self._cache.clear()
            self._uncacheable.clear()
            self.invalidations += 1

    def _wire(self) -> None:
        """(Re)attach invalidation listeners and recompute the flow-key
        field list; called whenever the program gained stages/registers."""
        fields = []
        for stage in self.program.stages:
            if stage.requires is not None and stage.requires not in fields:
                fields.append(stage.requires)
            for name in stage.table._key_fields:
                if name not in fields:
                    fields.append(name)
            if id(stage.table) not in self._wired:
                stage.table.on_mutate(self._invalidate)
                self._wired.add(id(stage.table))
        for register in self.program.registers.values():
            if id(register) not in self._wired:
                register.on_mutate(self._invalidate)
                self._wired.add(id(register))
        self._fields = tuple(fields)
        self._absent = (_ABSENT,) * len(self._fields)
        self._n_stages = len(self.program.stages)
        self._n_registers = len(self.program.registers)
        self._cache.clear()
        self._uncacheable.clear()

    def key_of(self, phv: Phv) -> tuple:
        # map() with the parallel defaults tuple keeps the walk in C.
        return tuple(map(phv._fields.get, self._fields, self._absent))

    # -- record / replay ------------------------------------------------

    def process(self, pipeline: "RmtPipeline", phv: Phv) -> None:
        if (len(self.program.stages) != self._n_stages
                or len(self.program.registers) != self._n_registers):
            self._wire()
        key = self.key_of(phv)
        if key in self._uncacheable:
            pipeline._run_stages(phv, 0)
            return
        cached = self._cache.get(key)
        if cached is not None:
            self._replay(pipeline, phv, key, cached)
            self.hits += 1
            return
        self.misses += 1
        self._record(pipeline, phv, key)

    def _replay(
        self, pipeline: "RmtPipeline", phv: Phv, key: tuple, cached: tuple
    ) -> None:
        slots, stateful = cached
        stages = self.program.stages
        ctx = pipeline._ctx
        fields = phv._fields
        for index, slot in enumerate(slots):
            if slot is _SKIP:
                continue
            if slot is _DEFAULT:
                # Default params are read live off the table, entry
                # params off the entry, so in-place control-plane
                # updates keep showing through.
                table = stages[index].table
                fn = table.default_fn
                params = table.default_params
            else:
                slot.hits += 1
                fn = slot.fn
                params = slot.params
            if fn is not no_op:
                fn(phv, ctx, **params)
            if index in stateful and self.key_of(phv) != key:
                # The stateful action disturbed a match-relevant field:
                # the rest of the trajectory is stale.  The prefix ran
                # exactly as a full traversal would have, so finish with
                # real lookups and drop the cached flow -- unless its
                # register write already cleared the cache.
                self._cache.pop(key, None)
                pipeline._run_stages(phv, index + 1)
                return
            if "meta.drop" in fields and fields["meta.drop"]:
                return

    def _record(self, pipeline: "RmtPipeline", phv: Phv, key: tuple) -> None:
        ctx = pipeline._ctx
        slots = [_SKIP] * len(self.program.stages)
        stateful = set()
        cacheable = True

        def ran(index: int, slot) -> None:
            nonlocal cacheable
            slots[index] = slot
            if ctx.touched_state:
                stateful.add(index)
                ctx.touched_state = False
            if cacheable and self.key_of(phv) != key:
                # An action rewrote a match-relevant field: this flow's
                # trajectory depends on more than the flow key.
                cacheable = False
                self._uncacheable.add(key)

        self._dirty = False
        ctx.touched_state = False
        dropped = pipeline._run_stages(phv, 0, ran)
        # A dropped packet's slot list is truncated: never cache it.
        if cacheable and not dropped and not self._dirty:
            if len(self._cache) >= self.max_entries:
                self._cache.clear()
            if len(self._uncacheable) >= self.max_entries:
                self._uncacheable.clear()
            self._cache[key] = (tuple(slots), frozenset(stateful))


class RmtPipeline:
    """Executes an :class:`RmtProgram` over packets (pure, untimed).

    With ``memo=True`` a :class:`TrajectoryMemo` caches the per-flow
    stage trajectory, skipping the match machinery for repeat flows while
    re-executing every action -- observable behaviour (PHV, hit counters,
    register state, drops) is bit-identical with the memo on or off.
    """

    def __init__(self, program: RmtProgram, memo: bool = False):
        self.program = program
        self._ctx = ActionContext(registers=program.registers)
        self.packets_processed = 0
        self.memo = TrajectoryMemo(program) if memo else None

    def process(
        self,
        data: bytes,
        metadata: Optional[Dict[str, Any]] = None,
        now_ps: int = 0,
    ) -> Phv:
        """Parse ``data``, run every stage, return the final PHV.

        ``metadata`` seeds ``meta.*`` fields (ingress port, direction...)
        before parsing, mirroring intrinsic metadata in P4.
        """
        phv = Phv()
        fields = phv._fields
        for key, value in (metadata or {}).items():
            if not isinstance(value, (int, bytes)):
                phv.set("meta." + key, value)  # raises Phv's TypeError
            fields["meta." + key] = value
        self.run(phv, data, now_ps)
        return phv

    def run(self, phv: Phv, data: bytes, now_ps: int) -> None:
        """Parse ``data`` into ``phv``, which already holds its intrinsic
        ``meta.*`` fields under their full names, then run every stage."""
        self.program.parse_graph.parse(data, phv)
        self._ctx.now_ps = now_ps
        if self.memo is not None:
            self.memo.process(self, phv)
        else:
            self._run_stages(phv, 0)
        self.packets_processed += 1

    def _run_stages(self, phv: Phv, start: int, ran=None) -> bool:
        """The one stage walk, from stage ``start``; True when a stage
        dropped the packet (the walk stops there).  ``ran(index, slot)``,
        the memo's recording hook, follows each stage that ran, with the
        entry that hit or ``_DEFAULT``."""
        fields = phv._fields
        ctx = self._ctx
        stages = self.program.stages
        for index in range(start, len(stages)):
            stage = stages[index]
            requires = stage.requires
            if requires is not None and requires not in fields:
                continue
            table = stage.table
            entry = table.match(phv)
            if entry is None:
                fn = table.default_fn
                params = table.default_params
            else:
                entry.hits += 1
                fn = entry.fn
                params = entry.params
            if fn is not no_op:
                fn(phv, ctx, **params)
            if ran is not None:
                ran(index, _DEFAULT if entry is None else entry)
            if "meta.drop" in fields and fields["meta.drop"]:
                return True
        return False
