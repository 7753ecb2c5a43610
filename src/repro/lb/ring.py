"""The consistent-hash ring behind ``vip_steer``.

Each live backend contributes ``vnodes`` points on a 32-bit ring; a flow
key owns the first point clockwise from ``key & 0xFFFFFFFF``.  Removing
a backend deletes only its points, so at most ``1/len(backends)`` of the
keyspace changes owner -- the property that makes live drain cheap: the
affinity table pins established flows anyway, but new flows that *would*
have hashed to a surviving backend still do.

The ring is pure data.  :meth:`HashRing.as_param` renders it as the
sorted point tuple the ``affinity_steer`` action binary-searches per
packet (see :mod:`repro.rmt.action`); the control
plane snapshots it into a table entry's params, so mutating the ring
never changes an installed epoch retroactively.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.rmt.action import flow_key64, ring_lookup

#: Virtual nodes per backend.  32 keeps the per-drain churn within a few
#: percent of ideal while the per-packet binary search stays shallow
#: (128 points for 4 backends -> 7 comparisons).
DEFAULT_VNODES = 32


def ring_points(backends: Iterable[int],
                vnodes: int = DEFAULT_VNODES) -> Tuple[Tuple[int, int], ...]:
    """The sorted ``(point, backend)`` tuple for a backend set.

    Points are the low 32 bits of the FNV-1a 64 hash of
    ``(backend, replica)`` -- the same hash family the data plane keys
    flows with, so the point layout is reproducible from the backend
    indices alone (no RNG, no insertion-order dependence).
    """
    points = []
    for backend in sorted(set(backends)):
        for replica in range(vnodes):
            point = flow_key64((backend, replica)) & 0xFFFFFFFF
            points.append((point, backend))
    points.sort()
    return tuple(points)


class HashRing:
    """A mutable backend set rendering consistent-hash ring snapshots."""

    def __init__(self, backends: Iterable[int] = (),
                 vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._backends = set(int(b) for b in backends)
        self._points: Tuple[Tuple[int, int], ...] = ()
        self._dirty = True

    @property
    def backends(self) -> Tuple[int, ...]:
        return tuple(sorted(self._backends))

    def add(self, backend: int) -> None:
        if backend in self._backends:
            raise ValueError(f"backend {backend} already on the ring")
        self._backends.add(int(backend))
        self._dirty = True

    def remove(self, backend: int) -> None:
        if backend not in self._backends:
            raise ValueError(f"backend {backend} not on the ring")
        self._backends.discard(backend)
        self._dirty = True

    def as_param(self) -> Tuple[Tuple[int, int], ...]:
        """The sorted point tuple for the *current* backend set.

        Callers must treat the result as immutable: installed table
        entries hold a reference to exactly this snapshot.
        """
        if self._dirty:
            self._points = ring_points(self._backends, self.vnodes)
            self._dirty = False
        return self._points

    def owner(self, key: int) -> int:
        """The backend owning ``key`` on the current ring (the same
        lookup the data-plane action performs; for tests and sizing)."""
        return ring_lookup(self.as_param(), key)

    def __len__(self) -> int:
        return len(self._backends)

    def __contains__(self, backend: int) -> bool:
        return backend in self._backends
