"""The self-contained offload engine abstraction (Figure 3a).

Every PANIC engine tile couples four things:

* a **compute engine** -- the subclass's ``handle`` method plus its
  ``service_time_ps`` cost model;
* **local memory** -- whatever state the offload keeps (cache entries,
  cipher state), bounded by ``local_memory_bytes``;
* a **local lookup table** -- steers messages whose chain is exhausted or
  unknown without another heavyweight RMT traversal (section 3.1.2);
* a **local scheduling queue** -- a PIFO ranked by the slack deadline the
  RMT pipeline stamped into the message header (section 3.1.3).

Engines are :class:`~repro.noc.router.Endpoint`\\ s: the mesh delivers
messages to :meth:`receive`; processed messages leave through the engine's
port, its tile's injection :class:`~repro.noc.channel.Channel`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.noc.router import Endpoint
from repro.packet.packet import MessageKind, Packet
from repro.sched.pifo import PifoFullError, PifoQueue
from repro.sim.clock import Clock
from repro.sim.kernel import Component, Simulator
from repro.sim.stats import LatencyTracker

#: Cycles charged for a local lookup-table match (section 3.1.2: "the
#: lightweight tables also add another cycle of latency").
LOOKUP_CYCLES = 1

#: An engine's output: the packet plus an explicit destination address, or
#: ``None`` to route by the packet's chain header / local lookup table.
EngineOutput = Tuple[Packet, Optional[int]]

#: Injected fault modes (see :meth:`Engine.fail` and :mod:`repro.faults`).
FAULT_CRASH = "crash"
FAULT_STALL = "stall"


class LocalLookupTable:
    """The lightweight per-engine lookup table.

    Steers a message whose chain is exhausted or unknown to its default
    route -- typically back to the heavyweight RMT pipeline, per section
    3.1.2: "either a default route back to the heavyweight RMT pipeline
    is installed at the engine or the RMT pipeline includes itself as a
    nexthop".
    """

    def __init__(self) -> None:
        self.default_next: Optional[int] = None
        self.lookups = 0

    def lookup(self) -> Optional[int]:
        self.lookups += 1
        return self.default_next

    def remap(self, old_addr: int, new_addr: Optional[int]) -> int:
        """Failover re-steering: a default route to ``old_addr`` now
        leads to ``new_addr`` (``None`` removes it).  Returns the number
        of rewritten routes."""
        if self.default_next != old_addr:
            return 0
        self.default_next = new_addr
        return 1


class Engine(Component, Endpoint):
    """Base class for every PANIC tile (offloads, MACs, DMA, PCIe, RMT).

    Parameters
    ----------
    sim, name:
        Kernel plumbing.  Service times are quoted in cycles of the
        500 MHz :attr:`clock` every tile shares.
    queue_capacity:
        PIFO capacity.  ``None`` (default) models a generously sized
        buffer; bounded values exercise the paper's memory-pressure and
        drop discussions.
    lanes:
        Independent service lanes (a 4-lane crypto block serves four
        messages concurrently).
    """

    #: What to do when a lossless message meets a full queue:
    #: ``"raise"`` surfaces the overflow loudly; ``"backpressure"``
    #: refuses the delivery so the router holds it, stalling the
    #: upstream credit loop (section 6's lossless flow control).
    OVERFLOW_POLICIES = ("raise", "backpressure")

    #: The NIC's birth hook, called as ``(frame, tile_name)``, which
    #: offers a frame a tile builds itself (a host TX frame, a KV-cache
    #: or RDMA reply) to the tracer and INT; set on those tiles while
    #: telemetry or INT is on.
    _frame_born = None

    #: Idle admission (see :meth:`receive`); clearing it sends every
    #: message through the PIFO's push and pop, which must change nothing.
    _IDLE_ADMISSION = True

    #: Every tile runs at 500 MHz, so all share one clock: it holds no
    #: state a run changes (its conversion is a pure function).
    clock = Clock()

    #: A local-table lookup's penalty.
    _lookup_ps = clock.cycles_to_ps(LOOKUP_CYCLES)

    def __init__(
        self,
        sim: Simulator,
        name: str,
        queue_capacity: Optional[int] = None,
        lanes: int = 1,
        overflow: str = "raise",
    ):
        Component.__init__(self, sim, name)
        if lanes < 1:
            raise ValueError(f"{name}: lanes must be >= 1, got {lanes}")
        if overflow not in self.OVERFLOW_POLICIES:
            raise ValueError(
                f"{name}: overflow must be one of {self.OVERFLOW_POLICIES}, "
                f"got {overflow!r}"
            )
        self.queue: PifoQueue[Packet] = PifoQueue(name, queue_capacity)
        self.lookup_table = LocalLookupTable()
        self.port = None  # type: ignore[assignment]  # set by bind_port
        self.lanes = lanes
        self.overflow = overflow
        #: Shared packet buffer in pointer mode (section 6); engines that
        #: process a pointer-carried payload pay for port access.
        self.payload_buffer = None
        self._busy_lanes = 0
        # Only the stock service loop pops an arrival straight back.
        self._admits_idle = (self._IDLE_ADMISSION
                             and type(self)._try_start is Engine._try_start)
        #: Injected fault state (see repro.faults): ``None`` = healthy,
        #: ``"crash"`` = dead tile (black-holes all traffic), ``"stall"``
        #: = accepts but never serves.
        self.fault_mode: Optional[str] = None
        #: Service-time multiplier for injected slowdowns (1.0 = nominal).
        self.slowdown: float = 1.0
        # Statistics every experiment reads.
        self.processed = 0
        self.rejected = 0
        self.blackholed = 0
        self.queue_latency = LatencyTracker(name)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def bind_port(self, port) -> None:
        """Attach the NoC port ``mesh.bind`` returns: the tile's
        injection channel."""
        self.port = port

    def send(self, packet: Packet, dest_addr: int) -> None:
        """Inject a packet toward another engine."""
        if self.port is None:
            raise RuntimeError(f"{self.name}: engine has no NoC port")
        self.port.send(packet, dest_addr)

    # ------------------------------------------------------------------
    # NoC-facing receive path
    # ------------------------------------------------------------------

    def _rank_of(self, packet: Packet):
        if packet.panic is not None:
            return packet.panic.slack_ps, packet.panic.droppable
        return self.now, False

    def try_receive(self, packet: Packet) -> bool:
        """Router delivery with backpressure support.

        Under the ``"backpressure"`` overflow policy a lossless message
        meeting a full queue is *refused*: the router parks it, the
        upstream credit loop stalls, and :attr:`notify_space` retries it
        once a slot frees -- one concrete answer to the paper's section 6
        flow-control question.  A crashed tile never refuses: ``fail``
        emptied its queue, and :meth:`receive` sinks what arrives.
        """
        if self.overflow == "backpressure" and self.queue.is_full:
            _rank, droppable = self._rank_of(packet)
            if not droppable:
                self.rejected += 1
                return False
        self.receive(packet)
        return True

    def receive(self, packet: Packet) -> None:
        """Rank by slack deadline, enqueue, maybe start service.

        At an idle tile (empty queue, free lane, no fault, the stock
        :meth:`_try_start`) a push would be followed at once by a pop of
        this same packet, so it starts service here and the PIFO counts
        the pass; everything else happens as on the queued path.
        """
        ctx = packet.trace
        fault = self.fault_mode
        if fault == FAULT_CRASH:
            self.blackholed += 1
            if ctx is not None and ctx.tracer is not None:
                ctx.tracer.instant(ctx, "blackholed", self.name, self.now)
            return
        now = self.sim.now
        packet.enqueue_ps = now
        queue = self.queue
        tracer = None
        if ctx is not None:
            # Queue depth *before* the push: what this packet saw on
            # arrival, for INT and the span alike.
            depth = len(queue)
            if ctx.int_ is not None:
                ctx.int_.on_enqueue(self, ctx, depth)
            tracer = ctx.tracer
            if tracer is not None:
                rank, droppable = self._rank_of(packet)
                tracer.begin_engine(ctx, self.name, now, depth, rank,
                                    droppable)
        if (not queue._heap and self._busy_lanes < self.lanes
                and fault is None and self._admits_idle):
            queue.pass_through()
            self._start(packet, now)
            if self.notify_space is not None:
                # The pop freed a slot a router may be waiting for.
                self.notify_space()
            return
        if tracer is None:
            rank, droppable = self._rank_of(packet)
        try:
            accepted = queue.push(packet, rank, droppable)
        except PifoFullError:
            # Lossless overflow under the "raise" policy: the paper
            # leaves NoC flow control open (section 6); surface it loudly
            # rather than silently dropping a lossless message.
            self.rejected += 1
            if tracer is not None:
                tracer.end_engine(ctx, now, status="overflow")
            raise
        if accepted:
            self._try_start()
        elif tracer is not None:
            # The PIFO refused the droppable incoming message outright.
            tracer.end_engine(ctx, now, status="dropped_at_enqueue")

    # ------------------------------------------------------------------
    # Service loop
    # ------------------------------------------------------------------

    def _try_start(self) -> None:
        queue = self.queue
        if (self._busy_lanes >= self.lanes or not queue._heap
                or self.fault_mode is not None):
            # No lane, nothing queued, or a crashed or stalled engine,
            # which serves nothing: a stalled engine's queue keeps
            # filling until backpressure (or drops) kick in.
            return
        now = self.sim.now
        while True:
            self._start(queue.pop()[0], now)
            if self._busy_lanes >= self.lanes or not queue._heap:
                break
        if self.notify_space is not None:
            # A router may be holding refused messages for us.
            self.notify_space()

    def _start(self, packet: Packet, now: int) -> None:
        """Serve ``packet`` on a free lane from ``now``: the one service
        start of the idle path and of :meth:`_try_start`'s loop."""
        self._busy_lanes += 1
        self.queue_latency.record(now - packet.enqueue_ps)
        ctx = packet.trace
        if ctx is not None:
            ctx.service_start = now
        delay = self.service_time_ps(packet)
        if self.slowdown != 1.0:
            delay = int(delay * self.slowdown)
        if self.payload_buffer is not None:
            delay += self._payload_buffer_delay(packet)
        self.sim.schedule(delay, self._finish, packet)

    def _finish(self, packet: Packet) -> None:
        self._busy_lanes -= 1
        ctx = packet.trace
        if self.fault_mode == FAULT_CRASH:
            # The engine died while this packet was in service.
            self.blackholed += 1
            if ctx is not None and ctx.open_component is not None:
                ctx.tracer.end_engine(ctx, self.now, status="blackholed")
            return
        self.processed += 1
        if ctx is not None and ctx.tracer is not None:
            ctx.tracer.end_engine(ctx, self.now)
        if packet.kind is MessageKind.CONTROL and self._echo_heartbeat(packet):
            if self.queue._heap:
                self._try_start()
            return
        outputs = self.handle(packet)
        lookup_delay = 0
        for out_packet, dest in outputs:
            if dest is None:
                dest = self._route_by_chain(out_packet)
                lookup_delay = self._lookup_ps
            if dest is None:
                self.terminal(out_packet)
            elif dest == self.address:
                # Chain loops back to this engine (e.g. a second pass).
                self.schedule(lookup_delay, self._loopback, out_packet)
            elif lookup_delay:
                port = self.port
                if port is None:
                    raise RuntimeError(f"{self.name}: engine has no NoC port")
                self.sim.schedule(lookup_delay, port.send, out_packet, dest)
            else:
                self.send(out_packet, dest)
        if self.queue._heap:
            self._try_start()

    def _payload_buffer_delay(self, packet: Packet) -> int:
        """Port-access cost for touching a pointer-carried payload.

        Processing a buffered payload means reading it and writing the
        (possibly transformed) result back: two transfers through the
        shared buffer's ports.
        """
        if self.payload_buffer is None or packet.pbuf_handle is None:
            return 0
        return self.payload_buffer.access_delay_ps(2 * packet.frame_bytes)

    def _loopback(self, packet: Packet) -> None:
        if self.overflow == "backpressure" and self.queue.is_full:
            # Local re-entry cannot be refused to a router; retry on the
            # next cycle instead of overflowing the bounded queue.
            self.schedule(self.clock.cycles_to_ps(1), self._loopback, packet)
            return
        self.receive(packet)

    def _route_by_chain(self, packet: Packet) -> Optional[int]:
        """Next destination from the chain header, else the lookup table."""
        header = packet.panic
        if header is not None:
            # The cursor never passes the chain's end: an index error is
            # exactly an exhausted chain.
            cursor = header.cursor
            try:
                hop = header.chain[cursor]
            except IndexError:
                pass
            else:
                header.cursor = cursor + 1
                return hop
        return self.lookup_table.lookup()

    # ------------------------------------------------------------------
    # Fault injection and health (see repro.faults)
    # ------------------------------------------------------------------

    def fail(self, mode: str = FAULT_CRASH) -> None:
        """Put the engine into a failed state.

        ``"crash"`` models a dead tile: queued and in-service messages are
        lost (counted in :attr:`blackholed`) and all future deliveries are
        sunk, but the tile's router keeps switching -- the mesh stays
        lossless for through-traffic.  ``"stall"`` models a wedged engine:
        deliveries are still accepted but nothing is ever served.
        """
        if mode not in (FAULT_CRASH, FAULT_STALL):
            raise ValueError(
                f"{self.name}: fault mode must be 'crash' or 'stall', "
                f"got {mode!r}"
            )
        self.fault_mode = mode
        if mode == FAULT_CRASH:
            lost = self.queue.drain()
            self.blackholed += len(lost)
            # The trace must show where each queued packet died.
            for packet in lost:
                ctx = packet.trace
                if ctx is not None and ctx.tracer is not None:
                    ctx.tracer.end_engine(ctx, self.now, status="blackholed")
            if self.notify_space is not None:
                # The router may hold refused messages; let it deliver
                # them so they are sunk (and counted) rather than wedged.
                self.notify_space()

    def recover(self) -> None:
        """Clear any injected fault and resume service."""
        self.fault_mode = None
        self.slowdown = 1.0
        self._try_start()
        if self.notify_space is not None:
            self.notify_space()

    def _echo_heartbeat(self, packet: Packet) -> bool:
        """Answer a health-monitor probe; True when the CONTROL
        ``packet`` was one.

        Probes ride the mesh and the engine's own scheduling queue like
        any other message, so the echo proves the whole tile -- router,
        PIFO, service loop -- is live, not just that the object exists.
        """
        reply_to = packet.meta.annotations.get("hb_reply_to")
        if reply_to is None:
            return False
        echo = Packet(b"", MessageKind.CONTROL)
        echo.meta.annotations["hb_echo_from"] = self.address
        self.send(echo, int(reply_to))
        return True

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------

    def service_time_ps(self, packet: Packet) -> int:
        """How long this engine works on ``packet``.  Default: one cycle."""
        return self.clock.period_ps

    def handle(self, packet: Packet) -> List[EngineOutput]:
        """Transform a packet; return output packets with destinations.

        The default is a pure pass-through that follows the chain.
        """
        return [(packet, None)]

    def terminal(self, packet: Packet) -> None:
        """Called when a packet has nowhere further to go.

        The default treats it as a configuration error -- every reference
        NIC installs default routes; engines like the Ethernet port
        override this to transmit externally.
        """
        raise RuntimeError(
            f"{self.name}: packet {packet!r} has an exhausted chain and no "
            "default route; check the lookup-table programming"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._busy_lanes > 0

    @property
    def backlog(self) -> int:
        return len(self.queue)
