"""The external cable between two NICs, as two link ends.

Lets experiments build the full picture the paper's introduction sketches
-- clients talking to a PANIC-equipped server across a network -- by
cabling the TX side of one NIC to the RX side of another, with a
configurable one-way propagation delay (rack-local ~500 ns, cross-DC
~micro/milliseconds for the WAN tenants of section 2.2).  An end takes
every frame one port of a PANIC NIC transmits (``attach_cable``) and
offers ingress through the far NIC's ``inject``.

:class:`LinkEnd` is the one class that moves a frame: one per NIC per
cable, in every execution mode.  It judges what its NIC transmits
(:class:`LinkFaults`, :func:`_egress`), then either schedules the
delivery at the far NIC or, when that NIC lives in another shard
worker (:mod:`repro.sim.shard`), parks the picklable
:class:`PacketCapsule` for the window barrier -- which delivers it at
the very timestamp, so a sharded run stays bit-identical.
:class:`Wire` is the two ends of a cable whose NICs share a process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.packet.packet import MessageKind, Packet
from repro.sim.clock import NS
from repro.sim.kernel import Component, Simulator
from repro.telemetry.tracer import TraceCtx

#: Rack-local one-way propagation (a few meters of fibre + PHY).
DEFAULT_PROPAGATION_PS = 500 * NS


class LinkFaults:
    """Fault state for one transmit direction of an external wire.

    Holds the seeded Bernoulli loss model (armed by a ``WIRE_LOSS``
    fault event) and the scheduled-outage flag (``WIRE_DOWN``/
    ``WIRE_UP``).  Every :class:`LinkEnd` owns one and consults it at
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
        self.offered = 0
        self.forwarded = 0
        self.loss_drops = 0
        self.corruptions = 0
        self.down_drops = 0

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
        self.offered += 1
        if self.down:
            self.down_drops += 1
            return "down", None
        rng = self.rng
        if rng is not None:
            if rng.random() < self.drop_p:
                self.loss_drops += 1
                return "drop", None
            if self.corrupt_p and rng.random() < self.corrupt_p:
                bit = rng.randint(0, len(data) * 8 - 1)
                corrupted = bytearray(data)
                corrupted[bit >> 3] ^= 1 << (bit & 7)
                self.corruptions += 1
                self.forwarded += 1
                return "corrupt", bytes(corrupted)
        self.forwarded += 1
        return "ok", data

    def process(self, data: bytes) -> Optional[bytes]:
        """Pass ``data`` through the faulty segment.

        Returns None when the frame is lost (outage or Bernoulli drop),
        the corrupted bytes when a bit flips, or ``data`` unchanged.
        """
        return self.judge(data)[1]

    def stats(self) -> Dict[str, int]:
        out = {
            "offered": self.offered,
            "forwarded": self.forwarded,
            "loss_drops": self.loss_drops,
            "corruptions": self.corruptions,
            "down_drops": self.down_drops,
        }
        if self.linklayer is not None:
            out["linklayer"] = self.linklayer.stats()
        return out


@dataclass(slots=True)
class PacketCapsule:
    """A frame in transit on an external wire: what :func:`_egress` let
    through, in picklable form, until :func:`_refresh_packet` turns it
    back into a packet at the far NIC.

    ``arrival_ps`` is the absolute delivery timestamp (TX time plus the
    wire's propagation delay); ``link_seq`` is the per-direction transmit
    sequence number, used to keep same-instant deliveries on one wire in
    FIFO order after the batch crosses process boundaries.

    ``request_ctx`` is the one annotation a cable preserves; in a
    sharded run it must be picklable.
    ``int_stack`` carries the side-channel INT hop stack (a plain tuple
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
    int_stack: Any = None


def _egress(faults: LinkFaults, packet: Packet, now: int,
            propagation_ps: int, link_seq: int) -> Optional[PacketCapsule]:
    """Judge one frame transmitted at ``now`` onto the direction
    ``faults`` guards: the single egress decision, so every execution
    mode draws the same RNG sequence, drops for the same reason and
    carries the same annotations.

    Returns the frame as it will reach the far end -- surviving bytes,
    handoff timestamp (propagation, plus repair delay when a link layer
    is armed), carried annotations -- or None when it is lost, after
    recording the drop on the packet's trace (under the direction's
    label, so traced runs stay comparable between execution modes)."""
    linklayer = faults.linklayer
    if linklayer is None:
        data = faults.process(packet.data)
        handoff_ps = now + propagation_ps
    else:
        carried = linklayer.transmit(packet.data, now)
        data, handoff_ps = carried if carried is not None else (None, 0)
    ctx = packet.trace
    agent = None if ctx is None else ctx.int_
    if data is None:
        if ctx is not None and ctx.tracer is not None:
            reason = ("down" if faults.down
                      else "ll_gave_up" if linklayer is not None else "loss")
            ctx.tracer.instant(ctx, "ext_wire_drop", faults.label, now,
                               (("reason", reason),))
        return None
    meta = packet.meta
    return PacketCapsule(
        data=data,
        kind=packet.kind.value,
        created_ps=now,
        arrival_ps=handoff_ps,
        link_seq=link_seq,
        tenant=meta.tenant,
        request_ctx=meta.peek("request_ctx"),
        # A side-channel stack; an in-band one rides in ``data``.
        int_stack=(None if agent is None or agent.inband
                   else ctx.records),
    )


def _refresh_packet(capsule: PacketCapsule) -> Packet:
    """A frame entering a new NIC is a new packet life: fresh metadata,
    same bytes.

    A side-channel INT stack (see :mod:`repro.telemetry.int_`) rides
    into the new life on a trace context, which the receiving NIC's INT
    agent adopts at ``inject``."""
    fresh = Packet(capsule.data, MessageKind(capsule.kind))
    fresh.meta.created_ps = capsule.created_ps
    fresh.meta.tenant = capsule.tenant
    if capsule.request_ctx is not None:
        fresh.meta.annotations["request_ctx"] = capsule.request_ctx
    if capsule.int_stack is not None:
        fresh.trace = TraceCtx(records=capsule.int_stack)
    return fresh


class LinkEnd(Component):
    """One end of one cable: the frames ``nic`` transmits on ``port``,
    and the delivery of the frames the far end sends back.

    Every frame the NIC transmits on the cabled port is counted
    (:attr:`transmitted`) and judged by :func:`_egress` against this
    direction's own :class:`LinkFaults`.  What becomes of a surviving
    :class:`PacketCapsule` depends on the one thing the end can see,
    where the far NIC lives:

    * ``peer_nic`` is in this process: its delivery is scheduled there
      and then, at the capsule's ``arrival_ps``;
    * ``peer_nic`` is None (a cross-shard cable): the capsule waits in
      the outbox.  The shard runner drains :meth:`take_outbox` at every
      window barrier and hands the batch to the far shard's end of the
      cable, whose :meth:`schedule_deliveries` does the scheduling.

    Both routes end in :meth:`_deliver`, and the window protocol gets a
    capsule to the far shard before its arrival window opens, so the
    receiving NIC cannot tell them apart: the link layer of monolithic
    == sharded holds because this is the only copy of it.

    A zero-length cable is legal only in-process; between processes the
    propagation delay is the lookahead.  ``fault_label`` (default: the
    name) is this direction in fault accounting and telemetry; racks
    pass :func:`repro.faults.rack.wire_direction_label`, which does not
    depend on the shard assignment.
    """

    def __init__(
        self,
        sim: Simulator,
        nic,
        port: int,
        peer_nic,
        peer_port: int,
        propagation_ps: int,
        name: str,
        fault_label: Optional[str] = None,
    ):
        super().__init__(sim, name)
        if propagation_ps < 0:
            raise ValueError(f"{name}: negative propagation delay")
        if peer_nic is None and propagation_ps == 0:
            raise ValueError(
                f"{name}: a cable between processes needs a positive "
                "propagation delay")
        self.nic = nic
        self.port = port
        self.peer_nic = peer_nic
        self.peer_port = peer_port
        self.propagation_ps = propagation_ps
        self.faults = LinkFaults(fault_label or name)
        #: Frames the NIC offered on this port, lost or not.
        self.transmitted = 0
        self._outbox: List[PacketCapsule] = []
        self._tx_seq = 0
        nic.attach_cable(port, self._transmit)

    # -- fault arming (repro.faults.rack) -------------------------------

    def set_loss(self, drop_p: float, corrupt_p: float, rng) -> None:
        """Arm Bernoulli loss on this transmit direction."""
        self.faults.set_loss(drop_p, corrupt_p, rng)

    def set_down(self, down: bool) -> None:
        """Cut (or restore) this transmit direction; a cable cut arms
        both ends at the same instant, wherever they live."""
        self.faults.down = down

    def set_linklayer(self, params: dict) -> None:
        """Arm sub-RTT link-local repair on this transmit direction
        (``WIRE_LINKLAYER``); re-arming replaces the previous link
        layer, counters and hold buffer included.

        The repair trajectory is computed entirely at TX time (see
        :mod:`repro.reliability.linklayer`), so a capsule just carries
        the post-repair handoff timestamp and the far end needs no
        protocol state; windows stay safe because repair only *adds*
        delay beyond the lookahead.  With telemetry on, the transmitting
        NIC's tracer records the ``ll_*`` instants on a flow context of
        their own, like the host transport's ``rel_*`` instants.
        """
        from repro.reliability.linklayer import LinkLayer

        ctx = None
        telemetry = getattr(self.nic, "telemetry", None)
        if telemetry is not None:
            ctx = telemetry.tracer.flow_ctx()
        self.faults.linklayer = LinkLayer(
            self.faults, self.propagation_ps, trace_ctx=ctx, **params
        )

    def wire_stats(self) -> Dict[str, Dict[str, int]]:
        """This direction's fault accounting, keyed by its label."""
        return {self.faults.label: self.faults.stats()}

    # -- egress ---------------------------------------------------------

    def _transmit(self, packet: Packet) -> None:
        self.transmitted += 1
        capsule = _egress(self.faults, packet, self.sim.now,
                          self.propagation_ps, self._tx_seq)
        if capsule is None:
            return
        self._tx_seq += 1
        if self.peer_nic is None:
            self._outbox.append(capsule)
        else:
            self.sim.schedule_at(capsule.arrival_ps, self._deliver,
                                 self.peer_nic, self.peer_port, capsule)

    def take_outbox(self) -> List[PacketCapsule]:
        """Drain the capsules bound for another process."""
        batch, self._outbox = self._outbox, []
        return batch

    # -- ingress --------------------------------------------------------

    def schedule_deliveries(self, capsules: List[PacketCapsule]) -> None:
        """Schedule capsules the far end shipped here, each at its exact
        arrival time, in ``(arrival_ps, link_seq)`` order: simultaneous
        arrivals then fire in transmit order, as they do when the far
        end schedules them itself one transmission at a time."""
        for capsule in sorted(
            capsules, key=lambda c: (c.arrival_ps, c.link_seq)
        ):
            self.sim.schedule_at(capsule.arrival_ps, self._deliver,
                                 self.nic, self.port, capsule)

    @staticmethod
    def _deliver(nic, port: int, capsule: PacketCapsule) -> None:
        nic.inject(_refresh_packet(capsule), port)


class Wire:
    """A full-duplex cable between two NICs of one process: two
    :class:`LinkEnd` s, each with the other's NIC as its peer.

    Perfect by default; a rack fault plan (``WIRE_LOSS``/``WIRE_DOWN``/
    ``WIRE_LINKLAYER``, see :mod:`repro.faults.rack`) arms the ends.
    ``ends`` is keyed ``"a"`` / ``"b"`` by the transmitting NIC;
    ``fault_labels`` overrides the per-direction labels used in loss
    accounting and telemetry (default ``<name>.a`` / ``<name>.b``).
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
        labels = fault_labels or {}
        self.ends: Dict[str, LinkEnd] = {
            "a": LinkEnd(sim, nic_a, port_a, nic_b, port_b, propagation_ps,
                         f"{name}.a", labels.get("a")),
            "b": LinkEnd(sim, nic_b, port_b, nic_a, port_a, propagation_ps,
                         f"{name}.b", labels.get("b")),
        }

    def wire_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-direction fault accounting, keyed by the fault label."""
        return {label: stats for link_end in self.ends.values()
                for label, stats in link_end.wire_stats().items()}
