"""The packet header vector (PHV).

The PHV is the working state of an RMT pipeline: every parsed header field
plus per-packet metadata, addressed by dotted names such as ``ipv4.dst``
or ``meta.tenant``.  Actions read and write PHV fields, and the engine
that runs the pipeline reads its decisions back out of them.

Values are integers (the common case for match keys) or bytes (keys,
payload digests).  A field that was never parsed/set reads as *invalid*,
matching P4's header-validity semantics.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Union

FieldValue = Union[int, bytes]

_INVALID = object()


class PhvError(KeyError):
    """Raised when reading an invalid (unparsed) PHV field."""


class Phv:
    """A packet header vector: dotted-name fields plus validity bits."""

    __slots__ = ("_fields",)

    def __init__(self, initial: Optional[Dict[str, FieldValue]] = None):
        self._fields: Dict[str, FieldValue] = {}
        if initial:
            for name, value in initial.items():
                self.set(name, value)

    # ------------------------------------------------------------------
    # Field access
    # ------------------------------------------------------------------

    def set(self, name: str, value: FieldValue) -> None:
        """Set a field, making it valid."""
        if not isinstance(value, (int, bytes)):
            raise TypeError(
                f"PHV field {name!r} must be int or bytes, got "
                f"{type(value).__name__}"
            )
        self._fields[name] = value

    def get(self, name: str) -> FieldValue:
        """Read a field; raises :class:`PhvError` if invalid."""
        value = self._fields.get(name, _INVALID)
        if value is _INVALID:
            raise PhvError(f"PHV field {name!r} is not valid")
        return value

    def get_or(self, name: str, default: FieldValue) -> FieldValue:
        """Read a field, falling back to ``default`` when invalid."""
        value = self._fields.get(name, _INVALID)
        return default if value is _INVALID else value

    def is_valid(self, name: str) -> bool:
        return name in self._fields

    def invalidate(self, name: str) -> None:
        """Remove a field (e.g. after decapsulation).  Idempotent."""
        self._fields.pop(name, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def fields(self) -> Iterator[Tuple[str, FieldValue]]:
        return iter(sorted(self._fields.items()))

    def copy(self) -> "Phv":
        clone = Phv()
        clone._fields = dict(self._fields)
        return clone

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def __len__(self) -> int:
        return len(self._fields)

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v!r}" for k, v in list(self.fields())[:8])
        suffix = ", ..." if len(self._fields) > 8 else ""
        return f"Phv({parts}{suffix})"
