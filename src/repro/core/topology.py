"""Multi-NIC rack topologies and their partitioning into shards.

A :class:`RackTopology` is a declarative description of a rack-scale
experiment: which NICs exist (each built by a picklable builder
function), and which external wires cable them together.  The same
description drives every execution mode in :mod:`repro.sim.shard`
through one build: every NIC gets a
:class:`~repro.workloads.wire.LinkEnd` per cable it holds, and the shard
assignment only decides which ends find their far NIC beside them:

* **monolithic** -- every NIC on one shard in the calling process, so
  every end delivers to its peer directly (the reference semantics);
* **sharded** -- NICs partitioned across worker processes, cross-shard
  ends handing their frames over at the barriers of one window
  protocol whose rounds span ``H``
  lookaheads: ``H = 1`` is the conservative run, ``H > 1`` (opt-in
  ``speculative=True``) adds fork checkpoints and rollback.

Builders must be module-level functions (picklable by reference) with
signature ``builder(sim, name, **params) -> (nic, report)`` where
``report()`` returns a picklable dict of per-NIC results.  Keeping the
builder inside the topology guarantees the monolithic and sharded runs
construct bit-identical NICs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.sim.clock import NS

#: Minimum lookahead a rack-local cross-shard wire may offer: anything
#: shorter than rack-scale propagation (a few meters of fibre + PHY)
#: would force synchronization windows comparable to single events,
#: erasing the point of sharding.
MIN_LOOKAHEAD_PS = 500 * NS


class TopologyError(ValueError):
    """Raised for malformed topologies or shard assignments."""


#: ``builder(sim, name, **params) -> (nic, report)``.
NicBuilder = Callable[..., Tuple[Any, Callable[[], dict]]]


@dataclass(frozen=True)
class NicSpec:
    """One NIC in the rack: a name plus the recipe to build it."""

    name: str
    builder: NicBuilder
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class LinkSpec:
    """A full-duplex cable between two NICs' Ethernet ports."""

    nic_a: str
    nic_b: str
    port_a: int = 0
    port_b: int = 0
    propagation_ps: int = MIN_LOOKAHEAD_PS

    def __post_init__(self) -> None:
        if self.nic_a == self.nic_b:
            raise TopologyError(f"link connects {self.nic_a!r} to itself")
        if self.propagation_ps <= 0:
            raise TopologyError(
                f"link {self.nic_a}<->{self.nic_b}: propagation must be "
                f"positive, got {self.propagation_ps}"
            )


class RackTopology:
    """A named set of NICs plus the wires cabling them together."""

    def __init__(self, nics: Sequence[NicSpec], links: Sequence[LinkSpec]):
        self.nics: List[NicSpec] = list(nics)
        self.links: List[LinkSpec] = list(links)
        if not self.nics:
            raise TopologyError("topology needs at least one NIC")
        names = [spec.name for spec in self.nics]
        if len(set(names)) != len(names):
            raise TopologyError(f"duplicate NIC names in {names}")
        known = set(names)
        seen_ports = set()
        for link in self.links:
            for nic, port in ((link.nic_a, link.port_a),
                              (link.nic_b, link.port_b)):
                if nic not in known:
                    raise TopologyError(f"link references unknown NIC {nic!r}")
                if (nic, port) in seen_ports:
                    raise TopologyError(
                        f"port {port} of {nic!r} is cabled twice"
                    )
                seen_ports.add((nic, port))

    # ------------------------------------------------------------------
    # Shard assignment
    # ------------------------------------------------------------------

    def assign_shards(self, workers: int) -> Dict[str, int]:
        """Partition NICs into ``workers`` contiguous shards.

        Blocks in declaration order -- declaration order is the user's
        locality hint (put chatty NICs next to each other to keep their
        wire intra-shard) -- of ``ceil(n / workers)`` NICs each, cut
        short where needed to leave one NIC for every later shard.
        Every NIC weighs the same: no builder states how busy a NIC is.
        """
        if workers < 1:
            raise TopologyError(f"need at least one worker, got {workers}")
        count = len(self.nics)
        if workers > count:
            raise TopologyError(
                f"{workers} workers for only {count} NICs"
            )
        size = -(-count // workers)
        assignment: Dict[str, int] = {}
        index = 0
        for shard in range(workers):
            later = workers - shard - 1
            end = min(index + size, count - later)
            for spec in self.nics[index:end]:
                assignment[spec.name] = shard
            index = end
        return assignment

    def cross_links(self, assignment: Dict[str, int]) -> List[LinkSpec]:
        """The links whose endpoints live in different shards."""
        return [
            link for link in self.links
            if assignment[link.nic_a] != assignment[link.nic_b]
        ]

    def lookahead_ps(self, assignment: Dict[str, int]) -> int:
        """Conservative lookahead: the minimum cross-shard propagation.

        No event can cross a shard boundary faster than the slowest-case
        (i.e. minimum-delay) wire, so every shard may run ``lookahead``
        beyond the globally earliest pending event without missing an
        incoming message.  Raises when a cross-shard wire is shorter than
        :data:`MIN_LOOKAHEAD_PS` -- assign those NICs to the same shard
        instead.
        """
        missing = set(assignment) ^ {spec.name for spec in self.nics}
        if missing:
            raise TopologyError(f"assignment does not cover NICs: {missing}")
        cross = self.cross_links(assignment)
        if not cross:
            # Single shard (or disconnected shards): windows are unbounded.
            return 0
        lookahead = min(link.propagation_ps for link in cross)
        if lookahead < MIN_LOOKAHEAD_PS:
            offenders = [
                f"{l.nic_a}<->{l.nic_b} ({l.propagation_ps} ps)"
                for l in cross if l.propagation_ps < MIN_LOOKAHEAD_PS
            ]
            raise TopologyError(
                "cross-shard wires shorter than the minimum lookahead "
                f"({MIN_LOOKAHEAD_PS} ps): {', '.join(offenders)}; "
                "co-locate those NICs in one shard"
            )
        return lookahead

    def __repr__(self) -> str:
        return (
            f"RackTopology({len(self.nics)} NICs, {len(self.links)} links)"
        )
