"""Cut-through (express) transfers across an idle mesh path.

The behavioural slow path charges every hop one kernel event: a channel
serializes the flit, ``_complete`` delivers it into the next router, the
router pumps it into the next channel, and so on.  All of that Python work
is pure overhead when the path is *idle*: arrival times are then an exact
analytic sum of per-channel serialization delays (``ceil(bits / width)``
cycles plus :data:`~repro.noc.channel.ROUTER_HOP_CYCLES` per hop).

An :class:`ExpressFlight` exploits that: when a message alone on its mesh
starts on an idle channel, and every channel on its dimension-ordered
route has a credit and no armed fault, the whole traversal collapses into
**one** kernel event at the precomputed arrival time (beside traffic, it
would pay for a materialization too).  Final delivery goes through the real
``Router.on_deliver``, so endpoint backpressure, round-robin state, and the
``delivered``/credit bookkeeping at the destination stay genuine.

Equivalence contract
--------------------

The fast path must be *invisible* in simulated terms: same delivery
timestamps, same delivery order, same quiesced statistics as the slow
path.  Two mechanisms enforce that:

* **Reservation.**  A flight marks every channel it will cross and every
  router it will cross *through*.  While reserved, those resources carry
  no other traffic -- any interference would change timing, so it must
  de-speculate first.
* **De-speculation.**  The moment anything touches a reserved resource
  (a ``submit`` on a reserved channel, a foreign delivery into a reserved
  router whose crossing is still pending, a fault armed on a reserved
  channel), the flight *materializes*: hops already completed are
  retroactively accounted, the in-flight hop is reconstructed as a genuine
  serializing transfer with a real ``_complete`` event, and the remainder
  of the route continues through the slow path.  The interferer then
  proceeds against exactly the state the slow path would have shown it.
  A foreign delivery into a router the flight has already crossed merely
  *commits* that crossing's accounting and drops the reservation -- the
  flight stays collapsed.

Statistics counters for intermediate hops are applied when the flight
finishes (or materializes) rather than hop-by-hop, so *mid-flight*
introspection of an express path can briefly read collapsed values; all
quiesced totals are identical.  Round-robin arbitration state is kept
bit-identical by advancing each forwarding router's fairness offset
(``Router._rr_shift``) by the number of rotations the slow path's
arbitration passes would have performed: two per forwarding router.

Because every channel in a mesh shares one width and clock, all hops of a
flight take the same serialization time: hop ``i`` occupies its channel
during ``[start + i*ser, start + (i+1)*ser]``, which the flight computes
arithmetically instead of materializing a per-hop schedule.
"""

from __future__ import annotations

from typing import Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:
    from repro.noc.channel import Channel
    from repro.noc.router import Router
    from repro.packet.packet import Packet
    from repro.sim.kernel import Simulator


def account_hops(channels: Sequence["Channel"], bits: int, start: int,
                 ser: int) -> None:
    """Retroactively apply collapsed hops' channel statistics.

    Hop ``i`` occupied ``channels[i]`` during
    ``[start + i*ser, start + (i+1)*ser]``; its credit was consumed at
    the window's start and returned at its end by the downstream router's
    forward, so the net effect on credits is zero.
    """
    end = start
    for channel in channels:
        end += ser
        channel.sent += 1
        channel.bits_sent += bits
        channel._busy_accum_ps += ser
        if end > channel._busy_until:
            channel._busy_until = end


def account_forwards(routers: Sequence["Router"]) -> None:
    """Retroactively apply one collapsed forward per router.

    Replays exactly what an uncontended slow-path forward does to a
    router's observable state: one ``forwarded`` count and two
    round-robin rotations (the arbitration pass's own, and the one its
    output channel's immediate start asks for), each one step of the
    router's fairness offset -- keeping future arbitration order
    bit-identical.
    """
    for router in routers:
        router.forwarded += 1
        router._rr_shift += 2


class ExpressFlight:
    """One packet cut-through-routed over a reserved idle path.

    Parameters
    ----------
    sim:
        The simulation kernel.
    packet:
        The packet in flight; its ``bits`` cannot change in flight.
    channels:
        The channels on the route, in traversal order.
    routers:
        The forwarding routers the packet crosses *through* (one per
        channel except the last, whose router delivers locally).
    final_router:
        The destination router; delivery goes through its genuine
        ``on_deliver``.
    start:
        Simulated time the first hop starts serializing.
    ser:
        Per-hop serialization time (uniform across a mesh's channels).
    """

    __slots__ = ("sim", "packet", "channels", "routers", "final_router",
                 "done", "event", "start", "ser", "committed")

    def __init__(self, sim: "Simulator", packet: "Packet",
                 channels: Tuple["Channel", ...],
                 routers: Tuple["Router", ...],
                 final_router: "Router", start: int, ser: int):
        self.sim = sim
        self.packet = packet
        self.channels = channels
        self.routers = routers
        self.final_router = final_router
        self.start = start
        self.ser = ser
        self.done = False
        # Forwarding routers whose crossing has been retroactively
        # accounted already (a prefix of ``routers``; see interfere()).
        self.committed = 0
        for channel in channels:
            channel._express_flight = self
        for router in routers:
            router._express_flights.append(self)
        self.event = sim.schedule_at(
            start + len(channels) * ser, self._finish
        )

    # ------------------------------------------------------------------

    def _unregister(self) -> None:
        self.done = True
        for channel in self.channels:
            channel._express_flight = None
        for router in self.routers[self.committed:]:
            router._express_flights.remove(self)

    def _finish(self) -> None:
        """Deliver at the destination: account the collapsed hops, then
        hand the packet to the final router's genuine slow path."""
        if self.done:
            return
        self._unregister()
        packet = self.packet
        channels = self.channels
        account_hops(channels, packet.bits, self.start, self.ser)
        ctx = packet.trace
        if ctx is not None and ctx.tracer is not None:
            self._trace_hops(ctx, len(channels))
        packet.hops += len(channels)
        account_forwards(self.routers[self.committed:])
        final_channel = channels[-1]
        # The delivery below releases (or parks) this credit exactly as a
        # slow-path arrival would.
        final_channel._credits -= 1
        self.final_router.on_deliver(packet, final_channel)

    def _trace_hops(self, ctx, count: int) -> None:
        """Emit the first ``count`` hops' spans for a sampled packet,
        synthesized from the arithmetic hop windows: identical to the
        spans a slow-path walk would have emitted."""
        end = self.start
        for channel in self.channels[:count]:
            begin = end
            end += self.ser
            ctx.tracer.hop(ctx, channel.name, begin, end)

    def materialize(self) -> None:
        """De-speculate: reconstruct the exact slow-path state at ``now``.

        Hops that finished strictly before ``now`` are accounted as done
        (their forwarding routers included); the hop whose serialization
        window covers ``now`` becomes a genuine in-progress transfer with
        a real ``_complete`` event, after which the packet continues on
        the slow path.  Hop 0's ``_complete`` keeps the sequence number of
        the flight's event, which is the one the per-hop ``_start`` drew at
        launch, so it meets same-instant ties as on the per-hop path; a
        later hop's draws a fresh one.  A hop ending exactly at ``now`` is
        treated as still completing: it fires after the current event.
        """
        if self.done:
            return
        self._unregister()
        start = self.start
        ser = self.ser
        channels = self.channels
        # Hop i ends at start + (i+1)*ser: those strictly before now.
        done = max(0, (self.sim.now - start - 1) // ser)
        if done >= len(channels):
            raise RuntimeError(
                "express flight outlived its delivery event"
            )  # pragma: no cover - _finish fires at the last hop's end
        packet = self.packet
        account_hops(channels[:done], packet.bits, start, ser)
        ctx = packet.trace
        if ctx is not None and ctx.tracer is not None:
            self._trace_hops(ctx, done)
        packet.hops += done
        account_forwards(self.routers[self.committed:done])
        begin = start + done * ser
        channel = channels[done]
        channel._materialize_transfer(packet, begin, begin + ser)
        if done:
            self.sim.cancel(self.event)
            self.sim.schedule_at(begin + ser, channel._complete, packet)
        else:
            self.sim.move_earlier(self.event, begin + ser, channel._complete,
                                  packet)

    def interfere(self, router: "Router") -> None:
        """A foreign packet was delivered into a router this flight
        crosses.

        If this flight already crossed ``router`` (its incoming hop ended
        strictly before ``now``), the slow path would have completed that
        forward before the interfering delivery: commit the crossing's
        accounting retroactively and drop the reservation, keeping the
        flight alive.  Crossing ends increase along the route, so every
        earlier crossing is committed too, maintaining ``committed`` as a
        prefix.  A crossing still pending (or tied at ``now``) genuinely
        contends, so the whole flight de-speculates.
        """
        if self.done:
            return
        index = self.routers.index(router)
        if self.start + (index + 1) * self.ser >= self.sim.now:
            self.materialize()
            return
        crossed = self.routers[self.committed:index + 1]
        account_forwards(crossed)
        for passed in crossed:
            passed._express_flights.remove(self)
        self.committed = index + 1
