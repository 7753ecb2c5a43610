"""A 5-port input-queued mesh router with dimension-ordered routing.

Every PANIC engine contains a router (Figure 3a); routers connect to their
north/south/east/west neighbours and to the local engine.  Routing is XY
(dimension-ordered): a message first travels along the X axis to the
destination column, then along Y -- deadlock-free on a mesh without
virtual channels.  The mesh renders that rule once, into each router's
static next-hop table (see ``Mesh._build_routes``).

Input buffering is per-upstream-channel FIFO with credits (see
:mod:`repro.noc.channel`); the router moves head-of-line messages to output
channels whenever the output can accept, and stalls otherwise, propagating
backpressure toward the source.

Arbitration is round-robin: every pass (a delivery, a ``pump``) ends
with one rotation of the service order, which is the input channels in
registration order rotated by an integer, ``_rr_shift``.  A rotation is
one increment, and a pass over empty queues is its rotation alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.noc.channel import Channel
from repro.noc.message import NocMessage
from repro.sim.kernel import Component, Simulator

if TYPE_CHECKING:
    from repro.noc.mesh import Mesh


class Endpoint:
    """Anything attachable to a router's local port (engines, MACs, ...)."""

    #: NoC address; assigned when the endpoint is bound to a mesh.
    address: int = -1

    #: Set by the fabric at bind time: call it when the endpoint frees
    #: input space, so a router holding refused messages retries.
    notify_space = None

    def receive(self, message: NocMessage) -> None:
        """Accept a message delivered by the local router."""
        raise NotImplementedError

    def try_receive(self, message: NocMessage) -> bool:
        """Accept a message, or refuse it to exert backpressure.

        The default accepts unconditionally.  Endpoints with bounded
        lossless input (section 6's flow-control question) override this
        to return False when full; the router then parks the message in
        its input buffer, stalling the upstream credit loop, and retries
        when :attr:`notify_space` fires.
        """
        self.receive(message)
        return True


class Router(Component):
    """One tile's router.

    Parameters
    ----------
    sim, name:
        Kernel plumbing.
    x, y:
        Tile coordinates in the mesh.
    address:
        NoC address of the endpoint attached to this tile.
    mesh:
        Counts the messages inside it; a local delivery takes one out.
    """

    DIRECTIONS = ("east", "west", "north", "south")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        x: int,
        y: int,
        address: int,
        mesh: "Mesh",
    ):
        super().__init__(sim, name)
        self.x = x
        self.y = y
        self.address = address
        self._mesh = mesh
        self.endpoint: Optional[Endpoint] = None
        self._out: Dict[str, Channel] = {}
        # Destination address -> output channel toward it, None for this
        # tile's own endpoint; filled in by the mesh once it is wired.
        self._next_hop: List[Optional[Channel]] = []
        # One FIFO per upstream channel, at most its credit pool deep.
        self._inputs: Dict[Channel, List[NocMessage]] = {}
        # Served in this order rotated by ``_rr_shift`` (see module doc).
        self._rr_inputs: List[Channel] = []
        self._rr_shift = 0
        self._pumping = False
        self._pump_again = False
        # Express flights currently cut-through-routed *through* this
        # router (see repro.noc.express); a foreign delivery while any are
        # reserved must de-speculate them before entering the queues.
        self._express_flights: list = []
        self._buffered = 0
        self.forwarded = 0
        self.delivered = 0

    # ------------------------------------------------------------------
    # Wiring (done by the Mesh builder)
    # ------------------------------------------------------------------

    def attach_output(self, direction: str, channel: Channel) -> None:
        if direction not in self.DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
        if direction in self._out:
            raise ValueError(f"{self.name}: output {direction} already wired")
        self._out[direction] = channel

    def attach_endpoint(self, endpoint: Endpoint) -> None:
        if self.endpoint is not None:
            raise ValueError(f"{self.name}: endpoint already attached")
        self.endpoint = endpoint

    def register_input(self, channel: Channel) -> None:
        """Declare an upstream channel (its deliveries arrive here)."""
        if channel in self._inputs:
            raise ValueError(f"{self.name}: input channel already registered")
        self._inputs[channel] = []
        if self._rr_shift:
            # Keep the current service order; the newcomer joins last.
            self._rr_inputs = self._rr_order
            self._rr_shift = 0
        self._rr_inputs.append(channel)

    @property
    def _rr_order(self) -> List[Channel]:
        """The current round-robin service order (a fresh list)."""
        order = self._rr_inputs
        start = self._rr_shift % len(order) if order else 0
        return order[start:] + order[:start]

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def on_deliver(self, message: NocMessage, channel: Channel) -> None:
        """Channel delivery callback: forward the message, or buffer it."""
        if self._express_flights:
            # Arriving traffic can contend with flights crossing this
            # router: commit crossings already past, de-speculate the rest.
            for flight in list(self._express_flights):
                flight.interfere(self)
        try:
            queue = self._inputs[channel]
        except KeyError:
            raise RuntimeError(
                f"{self.name}: delivery from unregistered channel") from None
        if self._buffered or self._pumping:
            queue.append(message)
            self._buffered += 1
            self.pump()
            return
        # A sole message into an idle router: the arbitration pass is one
        # forward attempt, so the message skips the FIFO unless it has to
        # park.  It counts as buffered while the attempt runs, as it would
        # sitting at the head of its queue.
        self._pumping = True
        self._buffered = 1
        try:
            if self._forward(message):
                self._buffered = 0
                channel.release_credit()
            else:
                queue.append(message)
            self._rr_shift += 1
            if self._pump_again:
                if self._buffered:
                    self._pump_passes()
                else:
                    # Nothing parked to retry: the pass that was asked
                    # for comes down to its fairness rotation.
                    self._pump_again = False
                    self._rr_shift += 1
        finally:
            self._pumping = False

    def pump(self) -> None:
        """Move head-of-line messages onward while progress is possible.

        Re-entrant calls (an endpoint's ``notify_space`` firing while this
        router is already pumping) are coalesced into one extra pass.
        """
        if self._pumping:
            self._pump_again = True
            return
        if not self._buffered:
            # One pass over empty queues: its fairness rotation alone.
            self._rr_shift += 1
            return
        self._pumping = True
        self._pump_again = True
        try:
            self._pump_passes()
        finally:
            self._pumping = False

    def _pump_passes(self) -> None:
        """Arbitration passes, one per request (``_pump_again``) made
        before or during the last; each ends with the round-robin
        fairness rotation of the service order."""
        order = self._rr_inputs
        count = len(order)
        while self._pump_again:
            self._pump_again = False
            # Scanning empty queues has no side effects, so an idle
            # router skips straight to the rotation.
            while self._buffered:
                progress = False
                start = self._rr_shift % count
                # Negative indices wrap: order[start:], then order[:start].
                for index in range(start - count, start):
                    channel = order[index]
                    queue = self._inputs[channel]
                    if queue and self._forward(queue[0]):
                        del queue[0]
                        self._buffered -= 1
                        channel.release_credit()
                        progress = True
                if not progress:
                    break
            self._rr_shift += 1

    def _forward(self, message: NocMessage) -> bool:
        """Try to move one message toward its destination.

        Returns True when the message was consumed (delivered locally or
        handed to an output channel).
        """
        try:
            out = self._next_hop[message.dest_addr]
        except IndexError:
            raise ValueError(
                f"{self.name}: address {message.dest_addr} outside the "
                f"{len(self._next_hop)}-tile mesh"
            ) from None
        if out is None:
            if self.endpoint is None:
                raise RuntimeError(
                    f"{self.name}: message for local endpoint but none attached"
                )
            if not self.endpoint.try_receive(message):
                # Endpoint full: hold the message here; its credit stays
                # consumed, backpressuring the upstream path.
                ctx = message.packet.trace
                if ctx is not None and ctx.tracer is not None:
                    ctx.tracer.instant(ctx, "refused", self.name, self.now,
                                       (("dest", message.dest_addr),))
                return False
            self.delivered += 1
            self._mesh._inside -= 1
            return True
        if out._pending:
            # Moving the message would only relocate a queue; holding it
            # propagates backpressure toward the source instead.
            return False
        self.forwarded += 1
        if out.submit(message):
            # It went straight out, so the sender slot is free already:
            # what the channel's on_drain would come back to say.
            self._pump_again = True
        return True

    @property
    def buffered_messages(self) -> int:
        """Messages currently waiting in this router's input buffers."""
        return self._buffered
