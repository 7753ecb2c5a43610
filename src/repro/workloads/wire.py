"""A point-to-point external wire connecting two NICs.

Lets experiments build the full picture the paper's introduction sketches
-- clients talking to a PANIC-equipped server across a network -- by
cabling the TX side of one NIC to the RX side of another, with a
configurable one-way propagation delay (rack-local ~500 ns, cross-DC
~micro/milliseconds for the WAN tenants of section 2.2).

Both ends expose the common NIC surface this library uses everywhere
(``on_transmit`` to observe egress, ``inject`` to offer ingress), so any
pair of PANIC/baseline NICs can be cabled.

:class:`ShardBoundary` is the sharded-execution variant (see
:mod:`repro.sim.shard`): one *half* of a wire whose far end lives in
another worker process.  Egress frames are captured into per-window
batches of picklable :class:`PacketCapsule` records instead of being
scheduled locally; ingress capsules received at a window barrier are
scheduled for delivery at exactly the timestamp the monolithic
:class:`Wire` would have used, so the sharded run stays bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.packet.packet import MessageKind, Packet
from repro.sim.clock import NS
from repro.sim.kernel import Component, Simulator
from repro.sim.stats import Counter

#: Rack-local one-way propagation (a few meters of fibre + PHY).
DEFAULT_PROPAGATION_PS = 500 * NS


class LinkFaults:
    """Fault state for one transmit direction of an external wire.

    Holds the seeded Bernoulli loss model (armed by a ``WIRE_LOSS``
    fault event) and the scheduled-outage flag (``WIRE_DOWN``/
    ``WIRE_UP``).  Both :class:`Wire` directions and each
    :class:`ShardBoundary` own one, and both call :meth:`process` at
    *transmit* time -- the one instant that happens in identical
    per-direction FIFO order in monolithic and sharded execution, so
    the RNG draw sequence (and therefore every drop and bit flip) is
    bit-identical at any worker count.
    """

    __slots__ = ("label", "down", "drop_p", "corrupt_p", "rng",
                 "offered", "forwarded", "loss_drops", "corruptions",
                 "down_drops", "linklayer")

    def __init__(self, label: str):
        #: Execution-mode-independent name used in stats and telemetry.
        self.label = label
        self.down = False
        self.drop_p = 0.0
        self.corrupt_p = 0.0
        self.rng = None
        #: Optional :class:`~repro.reliability.linklayer.LinkLayer`
        #: repairing this direction sub-RTT (armed by WIRE_LINKLAYER).
        self.linklayer = None
        self.offered = Counter(f"{label}.offered")
        self.forwarded = Counter(f"{label}.forwarded")
        self.loss_drops = Counter(f"{label}.loss_drops")
        self.corruptions = Counter(f"{label}.corruptions")
        self.down_drops = Counter(f"{label}.down_drops")

    def set_loss(self, drop_p: float, corrupt_p: float, rng) -> None:
        """Arm (or clear, with zero probabilities) the loss model.

        ``rng`` must be a fork derived purely from the fault plan's seed
        and this direction's stable name -- never a stream the
        simulation itself draws from.
        """
        self.drop_p = drop_p
        self.corrupt_p = corrupt_p
        self.rng = rng if (drop_p or corrupt_p) else None

    def judge(self, data: bytes) -> Tuple[str, Optional[bytes]]:
        """Pass ``data`` through the faulty segment, naming the outcome.

        Returns ``(outcome, payload)`` where ``outcome`` is ``"ok"``
        (payload unchanged), ``"corrupt"`` (payload with a flipped bit),
        ``"drop"`` (Bernoulli loss, payload None), or ``"down"`` (outage,
        payload None).  The link layer keys its NACK/repair model off the
        outcome; :meth:`process` collapses it back to bytes-or-None.
        """
        self.offered.add()
        if self.down:
            self.down_drops.add()
            return "down", None
        rng = self.rng
        if rng is not None:
            if rng.random() < self.drop_p:
                self.loss_drops.add()
                return "drop", None
            if self.corrupt_p and rng.random() < self.corrupt_p:
                bit = rng.randint(0, len(data) * 8 - 1)
                corrupted = bytearray(data)
                corrupted[bit >> 3] ^= 1 << (bit & 7)
                self.corruptions.add()
                self.forwarded.add()
                return "corrupt", bytes(corrupted)
        self.forwarded.add()
        return "ok", data

    def process(self, data: bytes) -> Optional[bytes]:
        """Pass ``data`` through the faulty segment.

        Returns None when the frame is lost (outage or Bernoulli drop),
        the corrupted bytes when a bit flips, or ``data`` unchanged.
        """
        return self.judge(data)[1]

    def stats(self) -> Dict[str, int]:
        out = {
            "offered": self.offered.value,
            "forwarded": self.forwarded.value,
            "loss_drops": self.loss_drops.value,
            "corruptions": self.corruptions.value,
            "down_drops": self.down_drops.value,
        }
        if self.linklayer is not None:
            out["linklayer"] = self.linklayer.stats()
        return out


def arm_linklayer(faults: LinkFaults, nic, propagation_ps: int,
                  params: dict) -> None:
    """Attach a :class:`~repro.reliability.linklayer.LinkLayer` to one
    transmit direction (the WIRE_LINKLAYER arming path).

    ``nic`` is the *transmitting* NIC: its tracer (when telemetry is on)
    records the ``ll_*`` repair instants on a flow context of its own,
    exactly like the host transport's ``rel_*`` instants.  Re-arming
    replaces the previous link layer (fresh counters and hold buffer).
    """
    from repro.reliability.linklayer import LinkLayer

    tracer = ctx = None
    telemetry = getattr(nic, "telemetry", None)
    if telemetry is not None:
        tracer = telemetry.tracer
        ctx = tracer.flow_ctx()
    faults.linklayer = LinkLayer(
        faults, propagation_ps, tracer=tracer, trace_ctx=ctx, **params
    )


def _trace_wire_drop(nic, packet: Packet, label: str, now: int,
                     reason: str) -> None:
    """Record a traced packet vanishing on an external wire.

    ``label`` is the :class:`LinkFaults` label, identical between
    execution modes, so traced runs stay mono==sharded comparable.
    """
    telemetry = getattr(nic, "telemetry", None)
    if telemetry is None:
        return
    ctx = packet.meta.annotations.get("__trace__")
    if ctx is not None:
        telemetry.tracer.instant(ctx, "ext_wire_drop", label, now,
                                 (("reason", reason),))


@dataclass
class PacketCapsule:
    """A frame in transit on an external wire: what :func:`_egress` let
    through, in picklable form.  A :class:`Wire` turns it straight back
    into a packet; a :class:`ShardBoundary` ships it to the peer shard.

    ``arrival_ps`` is the absolute delivery timestamp (TX time plus the
    wire's propagation delay); ``link_seq`` is the per-boundary transmit
    sequence number, used to keep same-instant deliveries on one wire in
    FIFO order after the batch crosses process boundaries.

    ``request_ctx`` and ``e2e_t0`` mirror the annotations a monolithic
    :class:`Wire` preserves; in a sharded run they must be picklable.
    ``int_state`` carries the side-channel INT hop stack (a plain tuple
    of record tuples -- picklable by construction); in-band INT stacks
    ride inside ``data`` instead.
    """

    data: bytes
    kind: str
    created_ps: int
    arrival_ps: int
    link_seq: int
    tenant: Optional[int] = None
    request_ctx: Any = None
    e2e_t0: Any = None
    int_state: Any = None


def _egress(faults: LinkFaults, nic, packet: Packet, now: int,
            propagation_ps: int, link_seq: int = 0,
            ) -> Optional[PacketCapsule]:
    """Judge one frame ``nic`` transmits at ``now`` onto the direction
    ``faults`` guards: the single egress decision of :class:`Wire` and
    :class:`ShardBoundary`, so both execution modes draw the same RNG
    sequence, drop for the same reason and carry the same annotations.

    Returns the frame as it will reach the far end -- surviving bytes,
    handoff timestamp (propagation, plus repair delay when a link layer
    is armed), carried annotations -- or None when it is lost, after
    recording the drop on the packet's trace."""
    linklayer = faults.linklayer
    if linklayer is None:
        data = faults.process(packet.data)
        handoff_ps = now + propagation_ps
    else:
        carried = linklayer.transmit(packet.data, now)
        data, handoff_ps = carried if carried is not None else (None, 0)
    if data is None:
        reason = ("down" if faults.down
                  else "ll_gave_up" if linklayer is not None else "loss")
        _trace_wire_drop(nic, packet, faults.label, now, reason)
        return None
    meta = packet.meta
    annotations = meta.annotations
    return PacketCapsule(
        data=data,
        kind=packet.kind.value,
        created_ps=now,
        arrival_ps=handoff_ps,
        link_seq=link_seq,
        tenant=meta.tenant,
        request_ctx=annotations.get("request_ctx"),
        e2e_t0=annotations.get("e2e_t0"),
        int_state=getattr(annotations.get("__int__"), "carry", None),
    )


def _refresh_packet(capsule: PacketCapsule) -> Packet:
    """A frame entering a new NIC is a new packet life: fresh metadata,
    same bytes.  Shared by :class:`Wire` and :class:`ShardBoundary` so
    both execution modes hand the receiving NIC an identical packet.

    ``int_state`` is the side-channel INT hop stack (a plain tuple of
    records, see :mod:`repro.telemetry.int_`); the receiving NIC's
    ``inject`` normalizes it into live per-packet state.  In-band INT
    stacks travel inside ``data`` and need no side-channel."""
    fresh = Packet(capsule.data, MessageKind(capsule.kind))
    fresh.meta.created_ps = capsule.created_ps
    fresh.meta.tenant = capsule.tenant
    if capsule.request_ctx is not None:
        fresh.meta.annotations["request_ctx"] = capsule.request_ctx
    if capsule.e2e_t0 is not None:
        fresh.meta.annotations["e2e_t0"] = capsule.e2e_t0
    if capsule.int_state is not None:
        fresh.meta.annotations["__int__"] = capsule.int_state
    return fresh


class Wire(Component):
    """A full-duplex cable between two NICs.

    Perfect by default; a rack fault plan (``WIRE_LOSS``/``WIRE_DOWN``,
    see :mod:`repro.faults.rack`) arms the per-direction
    :class:`LinkFaults` via :meth:`set_loss`/:meth:`set_down`.
    ``fault_labels`` overrides the labels used for loss accounting and
    telemetry so a sharded run's :class:`ShardBoundary` halves can
    report under identical names.
    """

    def __init__(
        self,
        sim: Simulator,
        nic_a,
        nic_b,
        name: str = "wire",
        propagation_ps: int = DEFAULT_PROPAGATION_PS,
        port_a: int = 0,
        port_b: int = 0,
        fault_labels: Optional[Dict[str, str]] = None,
    ):
        super().__init__(sim, name)
        if propagation_ps < 0:
            raise ValueError(f"{name}: negative propagation delay")
        self.nic_a = nic_a
        self.nic_b = nic_b
        self.propagation_ps = propagation_ps
        self.port_a = port_a
        self.port_b = port_b
        self.a_to_b = Counter(f"{name}.a_to_b")
        self.b_to_a = Counter(f"{name}.b_to_a")
        labels = fault_labels or {}
        self.faults: Dict[str, LinkFaults] = {
            "a": LinkFaults(labels.get("a", f"{name}.a")),
            "b": LinkFaults(labels.get("b", f"{name}.b")),
        }
        nic_a.on_transmit(self._from_a)
        nic_b.on_transmit(self._from_b)

    # -- fault arming (repro.faults.rack) -------------------------------

    def set_loss(self, end: str, drop_p: float, corrupt_p: float,
                 rng) -> None:
        """Arm Bernoulli loss on the direction transmitting at ``end``."""
        self.faults[end].set_loss(drop_p, corrupt_p, rng)

    def set_down(self, down: bool) -> None:
        """Cut (or restore) the whole cable, both directions."""
        self.faults["a"].down = down
        self.faults["b"].down = down

    def set_linklayer(self, end: str, params: dict) -> None:
        """Arm sub-RTT link-local repair on the direction transmitting
        at ``end`` (the ``WIRE_LINKLAYER`` fault kind)."""
        nic = self.nic_a if end == "a" else self.nic_b
        arm_linklayer(self.faults[end], nic, self.propagation_ps, params)

    def wire_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-direction fault accounting, keyed by the fault label."""
        return {f.label: f.stats() for f in self.faults.values()}

    # -- transfer --------------------------------------------------------

    def _from_a(self, packet: Packet) -> None:
        if (packet.meta.egress_port or 0) != self.port_a:
            return  # a different cable serves that port
        self.a_to_b.add()
        self._transfer(packet, self.faults["a"], self.nic_a,
                       self.nic_b, self.port_b)

    def _from_b(self, packet: Packet) -> None:
        if (packet.meta.egress_port or 0) != self.port_b:
            return
        self.b_to_a.add()
        self._transfer(packet, self.faults["b"], self.nic_b,
                       self.nic_a, self.port_a)

    def _transfer(self, packet: Packet, faults: LinkFaults, src_nic,
                  dst_nic, dst_port: int) -> None:
        capsule = _egress(faults, src_nic, packet, self.now,
                          self.propagation_ps)
        if capsule is not None:
            self.sim.schedule_at(capsule.arrival_ps, self._deliver, dst_nic,
                                 dst_port, _refresh_packet(capsule))

    @staticmethod
    def _deliver(nic, port: int, packet: Packet) -> None:
        nic.inject(packet, port)


class ShardBoundary(Component):
    """One shard's half of a cross-shard wire.

    The egress side observes the local NIC's transmissions on the cabled
    port and buffers them as :class:`PacketCapsule` batches; the shard
    runner drains :meth:`take_outbox` at every window barrier and ships
    the batch to the peer shard.  The ingress side receives the peer's
    capsules via :meth:`schedule_deliveries` and injects each frame at
    its exact arrival timestamp.

    Because the conservative window protocol guarantees every capsule
    arrives at the consumer before its ``arrival_ps`` window opens, the
    receiving NIC cannot distinguish a :class:`ShardBoundary` from a real
    :class:`Wire`.
    """

    def __init__(
        self,
        sim: Simulator,
        nic,
        port: int,
        peer_nic: str,
        propagation_ps: int = DEFAULT_PROPAGATION_PS,
        name: Optional[str] = None,
        fault_label: Optional[str] = None,
    ):
        super().__init__(sim, name or f"boundary.{peer_nic}.p{port}")
        if propagation_ps <= 0:
            raise ValueError(f"{self.name}: propagation must be positive")
        self.nic = nic
        self.port = port
        self.peer_nic = peer_nic
        self.propagation_ps = propagation_ps
        self._outbox: List[PacketCapsule] = []
        self._tx_seq = 0
        self.tx_captured = Counter(f"{self.name}.tx")
        self.rx_delivered = Counter(f"{self.name}.rx")
        #: TX-direction fault state; ``fault_label`` must match the
        #: monolithic Wire's label for this direction so fault stats and
        #: telemetry stay mode-independent.
        self.faults = LinkFaults(fault_label or self.name)
        nic.on_transmit(self._capture)

    # -- fault arming (repro.faults.rack) -------------------------------

    def set_loss(self, drop_p: float, corrupt_p: float, rng) -> None:
        """Arm Bernoulli loss on the locally-transmitting direction."""
        self.faults.set_loss(drop_p, corrupt_p, rng)

    def set_down(self, down: bool) -> None:
        """Cut (or restore) the locally-transmitting direction.

        The peer shard arms its own half at the same fault timestamp, so
        the whole cable goes down exactly as in the monolithic run.
        """
        self.faults.down = down

    def set_linklayer(self, params: dict) -> None:
        """Arm link-local repair on the locally-transmitting direction.

        The repair trajectory is computed entirely at TX time (see
        :mod:`repro.reliability.linklayer`), so the capsule simply ships
        with the post-repair handoff timestamp -- the peer shard needs
        no protocol state at all, and conservative windows stay safe
        because repair only ever *adds* delay beyond the propagation
        lookahead.
        """
        arm_linklayer(self.faults, self.nic, self.propagation_ps, params)

    def wire_stats(self) -> Dict[str, Dict[str, int]]:
        return {self.faults.label: self.faults.stats()}

    # -- egress ---------------------------------------------------------

    def _capture(self, packet: Packet) -> None:
        if (packet.meta.egress_port or 0) != self.port:
            return
        capsule = _egress(self.faults, self.nic, packet, self.now,
                          self.propagation_ps, self._tx_seq)
        if capsule is not None:
            self._outbox.append(capsule)
            self._tx_seq += 1
            self.tx_captured.add()

    def take_outbox(self) -> List[PacketCapsule]:
        """Drain the egress batch accumulated during the last window."""
        batch, self._outbox = self._outbox, []
        return batch

    # -- ingress --------------------------------------------------------

    def schedule_deliveries(self, capsules: List[PacketCapsule]) -> None:
        """Schedule every received capsule at its exact arrival time.

        Capsules are ordered by ``(arrival_ps, link_seq)`` before
        scheduling so simultaneous arrivals on this wire fire in the FIFO
        order the monolithic wire would have produced.
        """
        for capsule in sorted(
            capsules, key=lambda c: (c.arrival_ps, c.link_seq)
        ):
            self.sim.schedule_at(capsule.arrival_ps, self._deliver, capsule)

    def _deliver(self, capsule: PacketCapsule) -> None:
        self.rx_delivered.add()
        self.nic.inject(_refresh_packet(capsule), self.port)
