"""Match tables: exact, ternary, longest-prefix and range matching.

A :class:`Table` is a list of entries over a composite key built from PHV
fields.  Exact entries are indexed in a dict for O(1) lookup; ternary /
LPM / range entries fall back to priority order, exactly like a TCAM with
entry priorities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.rmt.action import Action, ActionError, decrement_ttl, set_field
from repro.rmt.parser import HEADER_BYTES
from repro.rmt.phv import Phv


class TableError(ValueError):
    """Raised for malformed table programming."""


class MatchKind(enum.Enum):
    EXACT = "exact"
    TERNARY = "ternary"
    LPM = "lpm"
    RANGE = "range"


@dataclass(frozen=True)
class MatchKey:
    """One component of a table's composite key."""

    field: str
    kind: MatchKind = MatchKind.EXACT


def ternary_match(value: int, mask: int) -> Tuple[int, int]:
    """Helper making ternary patterns explicit at call sites."""
    return (value & mask, mask)


@dataclass
class TableEntry:
    """One table entry: per-key patterns, action name, action arguments.

    Pattern forms by match kind:

    * EXACT   -- the value itself (int or bytes)
    * TERNARY -- ``(value, mask)``
    * LPM     -- ``(prefix, prefix_len)`` over a 32-bit field
    * RANGE   -- ``(low, high)`` inclusive
    """

    patterns: Tuple[Any, ...]
    action: str
    params: Dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    #: Hit counter, mirroring P4 direct counters.
    hits: int = 0
    #: ``action`` resolved in the program's registry (``None`` until the
    #: table joins a program; see :meth:`Table.bind`).
    fn: Optional[Action] = field(default=None, repr=False, compare=False)


class Table:
    """A match+action table."""

    def __init__(
        self,
        name: str,
        keys: Sequence[MatchKey],
        default_action: str = "no_op",
        default_params: Optional[Dict[str, Any]] = None,
        max_entries: int = 65536,
    ):
        if not keys:
            raise TableError(f"table {name!r} needs at least one match key")
        self.name = name
        self.keys = tuple(keys)
        self._key_fields = tuple([key.field for key in self.keys])
        self.default_action = default_action
        #: ``default_action`` resolved by :meth:`bind`.
        self.default_fn: Optional[Action] = None
        self._program = None  # the program it joined (see bind)
        self.default_params = dict(default_params or {})
        self.max_entries = max_entries
        self._exact_index: Dict[Tuple[Any, ...], TableEntry] = {}
        self._scan_entries: List[TableEntry] = []
        self._all_exact = all([k.kind == MatchKind.EXACT for k in self.keys])
        self._listeners: List[Any] = []

    def on_mutate(self, fn) -> None:
        """Register a callback fired on any entry add/remove/clear.

        Used by the flow memo (:class:`repro.rmt.pipeline.TrajectoryMemo`)
        to invalidate cached traversals when the control plane reprograms
        the table."""
        if fn not in self._listeners:
            self._listeners.append(fn)

    def _notify(self) -> None:
        for fn in self._listeners:
            fn()

    def bind(self, program) -> None:
        """Resolve the default's, every entry's and every later
        :meth:`add`'s action function in the registry of ``program``, the
        program the table joins; an unknown name raises
        :class:`ActionError`.  Exact, since a registry never replaces an
        action and nothing reassigns an entry's action or the default.
        An entry that writes a header field sets ``writes_headers``."""
        self._program = program
        self.default_fn = self._resolve(self.default_action,
                                        self.default_params)
        for entry in self.entries():
            entry.fn = self._resolve(entry.action, entry.params)

    def _resolve(self, name: str, params: Dict[str, Any]) -> Action:
        program = self._program
        fn = program.actions.get(name)
        if fn is None:
            raise ActionError(
                f"table {self.name!r} names unknown action {name!r}")
        if fn is decrement_ttl or (
                fn is set_field and params.get("field") in HEADER_BYTES):
            program.writes_headers = True  # its tile must deparse
        return fn

    # ------------------------------------------------------------------
    # Programming interface (the "control plane")
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._exact_index) + len(self._scan_entries)

    def add(
        self,
        patterns: Sequence[Any],
        action: str,
        params: Optional[Dict[str, Any]] = None,
        priority: int = 0,
    ) -> TableEntry:
        """Install an entry; returns it (useful for reading hit counts)."""
        if len(patterns) != len(self.keys):
            raise TableError(
                f"table {self.name!r}: entry has {len(patterns)} patterns "
                f"for {len(self.keys)} keys"
            )
        if self.size >= self.max_entries:
            raise TableError(f"table {self.name!r} is full ({self.max_entries})")
        self._validate_patterns(patterns)
        params = dict(params or {})
        fn = (None if self._program is None
              else self._resolve(action, params))
        entry = TableEntry(tuple(patterns), action, params, priority, fn=fn)
        if self._all_exact:
            key = tuple(patterns)
            if key in self._exact_index:
                raise TableError(f"table {self.name!r}: duplicate exact entry {key}")
            self._exact_index[key] = entry
        else:
            self._scan_entries.append(entry)
            # Highest priority first; stable for equal priorities.
            self._scan_entries.sort(key=lambda e: -e.priority)
        self._notify()
        return entry

    def remove_entry(self, entry: TableEntry) -> None:
        """Remove one installed entry by identity (the object returned
        by :meth:`add`).

        Identity, not patterns, names the entry: several entries may
        share patterns and differ only by priority -- exactly the shape
        of versioned rule epochs (a new epoch masks the old one until
        the control plane garbage-collects it).
        """
        if self._all_exact:
            key = entry.patterns
            if self._exact_index.get(key) is entry:
                del self._exact_index[key]
                self._notify()
                return
        else:
            for i, existing in enumerate(self._scan_entries):
                if existing is entry:
                    del self._scan_entries[i]
                    self._notify()
                    return
        raise TableError(
            f"table {self.name!r}: entry {entry.patterns} not installed"
        )

    def entries(self) -> List[TableEntry]:
        """All installed entries (control-plane inspection / rewriting)."""
        return list(self._exact_index.values()) + list(self._scan_entries)

    def _validate_patterns(self, patterns: Sequence[Any]) -> None:
        for key, pattern in zip(self.keys, patterns):
            if key.kind == MatchKind.EXACT:
                if not isinstance(pattern, (int, bytes)):
                    raise TableError(
                        f"table {self.name!r}: exact pattern for {key.field} "
                        f"must be int or bytes"
                    )
            elif key.kind in (MatchKind.TERNARY, MatchKind.LPM, MatchKind.RANGE):
                if not (isinstance(pattern, tuple) and len(pattern) == 2):
                    raise TableError(
                        f"table {self.name!r}: {key.kind.value} pattern for "
                        f"{key.field} must be a 2-tuple"
                    )

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def match(self, phv: Phv) -> Optional[TableEntry]:
        """The entry the PHV matches, or ``None`` on a miss.

        The one matcher.  A PHV missing any key field is a miss (invalid
        headers cannot match): ``dict.get`` reads it as ``None``, which
        no pattern equals, since PHV values are int or bytes.  The hit
        counter is left to the caller (the stage walk bumps it).
        """
        values = tuple(map(phv._fields.get, self._key_fields))
        if self._all_exact:
            return self._exact_index.get(values)
        if None in values:
            return None
        for entry in self._scan_entries:
            if self._entry_matches(entry, values):
                return entry
        return None

    def _entry_matches(self, entry: TableEntry, values: Tuple[Any, ...]) -> bool:
        for key, pattern, value in zip(self.keys, entry.patterns, values):
            if key.kind == MatchKind.EXACT:
                if value != pattern:
                    return False
            elif key.kind == MatchKind.TERNARY:
                want, mask = pattern
                if not isinstance(value, int):
                    return False
                if (value & mask) != (want & mask):
                    return False
            elif key.kind == MatchKind.LPM:
                prefix, prefix_len = pattern
                if not isinstance(value, int):
                    return False
                if prefix_len == 0:
                    continue
                mask = ((1 << prefix_len) - 1) << (32 - prefix_len)
                if (value & mask) != (prefix & mask):
                    return False
            elif key.kind == MatchKind.RANGE:
                low, high = pattern
                if not isinstance(value, int) or not low <= value <= high:
                    return False
        return True

    def __repr__(self) -> str:
        kinds = "/".join(k.kind.value for k in self.keys)
        return f"Table({self.name!r}, keys={kinds}, entries={self.size})"
