"""A one-way on-chip channel with serialization and credit backpressure.

The paper (section 3.1.2) requires the on-chip network to be *lossless*:
messages are never dropped in flight; drops happen only at the logical
scheduler.  We implement losslessness with credits: a channel may start a
transfer only while it holds a credit for a downstream buffer slot, and the
receiver returns the credit when the message leaves its input buffer.

Timing model (store-and-forward):

* serialization takes ``ceil(bits / width_bits)`` cycles of the channel
  clock -- a message occupies the wires for its whole length;
* the downstream router adds one cycle of latency per hop (section 3.1.2:
  "routers add one cycle of latency at each hop"), charged here as part of
  the delivery delay.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional, TYPE_CHECKING

from repro.sim.clock import Clock
from repro.sim.kernel import Component, Simulator

if TYPE_CHECKING:
    from repro.noc.express import ExpressFlight
    from repro.noc.message import NocMessage

#: Per-hop router pipeline latency in cycles (paper section 3.1.2).
ROUTER_HOP_CYCLES = 1


class Channel(Component):
    """A unidirectional link between two NoC components.

    Parameters
    ----------
    sim, name:
        Simulation kernel plumbing.
    width_bits:
        Channel bit width per cycle; the paper evaluates 64 and 128.
    clock:
        The NoC clock domain (500 MHz in the paper's reference numbers).
    deliver:
        Callback ``deliver(message, channel)`` invoked when a message has
        fully arrived downstream.
    credits:
        Number of downstream buffer slots, i.e. the credit pool.
    on_drain:
        Optional callback fired whenever a *queued* message starts,
        freeing the sender-side slot -- routers use it to resume stalled
        forwarding.  (A message that starts the moment it is submitted
        never held the slot; :meth:`submit` says so by returning True.)
    ser_cache:
        Table of serialization delays by message size.  A fabric whose
        channels share one width and clock passes them all the same
        dict; a standalone channel gets its own.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        width_bits: int,
        clock: Clock,
        deliver: Callable[["NocMessage", "Channel"], None],
        credits: int = 4,
        on_drain: Optional[Callable[[], None]] = None,
        ser_cache: Optional[dict] = None,
    ):
        super().__init__(sim, name)
        if width_bits <= 0:
            raise ValueError(f"channel width must be positive, got {width_bits}")
        if credits <= 0:
            raise ValueError(f"channel needs at least one credit, got {credits}")
        self.width_bits = width_bits
        self.clock = clock
        self.deliver = deliver
        self.on_drain = on_drain
        self._credits = credits
        self._max_credits = credits
        # Sender-side queue: messages waiting for the wire or a credit.
        # Routers forward only into an empty one, so it is one deep on
        # mesh links; only injection can stack it higher.
        self._pending: List["NocMessage"] = []
        self._busy_until = 0
        self._busy_accum_ps = 0
        self._transfer_in_progress = False
        self._ser_cache: dict = {} if ser_cache is None else ser_cache
        # Cut-through fast path (see repro.noc.express): the fabric wires
        # `_express_route` on channels whose receiver is a router; while a
        # flight holds this channel, `_express_flight` marks the
        # reservation so interference de-speculates before proceeding.
        self._express_route: Optional[
            Callable[["NocMessage", "Channel"], bool]
        ] = None
        self._express_flight: Optional["ExpressFlight"] = None
        # Static route cache for express walks launched here: destination
        # address -> (channels, routers, final_router), or None when the
        # route cannot be expressed (unroutable / single hop).  Topology
        # never changes after build, so entries are computed once.
        self._express_paths: dict = {}
        # Armed one-shot faults (see inject_corruption / inject_drop): a
        # ``(drops, corruptions)`` pair of queues, each entry applying to
        # one future transfer completion; None whenever nothing is armed,
        # which is the only state the data path ever tests.  The fabric
        # may supply ``_fault_log``, where a channel lists itself the
        # first time it is armed.
        self._faults: Optional[tuple] = None
        self._fault_log: Optional[list] = None
        self._mesh = None  # a fabric counting messages in flight, if any
        # Statistics.
        self.sent = 0
        self.bits_sent = 0
        self.corrupted = 0
        self.dropped_flits = 0
        self.leaked_credits = 0

    # ------------------------------------------------------------------
    # Sender interface
    # ------------------------------------------------------------------

    def submit(self, message: "NocMessage") -> bool:
        """Hand over a message for transmission (never drops).

        Returns True when it left at once -- onto the idle wire, or as an
        express flight -- so the sender-side slot is already free again;
        a queued message announces that later, through ``on_drain``.
        """
        flight = self._express_flight
        if flight is not None:
            # New traffic on a reserved channel: de-speculate the express
            # flight first so this message sees exact slow-path state.
            flight.materialize()
        if self._pending or self._transfer_in_progress or self._credits <= 0:
            self._pending.append(message)
            return False
        self._start(message)
        return True

    @property
    def queue_len(self) -> int:
        """Messages waiting for the wire (sender side)."""
        return len(self._pending)

    @property
    def credits(self) -> int:
        """Credits currently available."""
        return self._credits

    # ------------------------------------------------------------------
    # Receiver interface
    # ------------------------------------------------------------------

    def release_credit(self) -> None:
        """Called by the receiver when a message leaves its input buffer."""
        if self._credits >= self._max_credits:
            raise RuntimeError(f"{self.name}: credit overflow")
        self._credits += 1
        if self._pending:
            self._start_next()

    @property
    def max_credits(self) -> int:
        """Size of the credit pool (downstream buffer slots)."""
        return self._max_credits

    @property
    def credit_deficit(self) -> int:
        """Credits currently held downstream (or leaked by a fault)."""
        return self._max_credits - self._credits

    # ------------------------------------------------------------------
    # Fault injection (see repro.faults)
    # ------------------------------------------------------------------

    def inject_corruption(self, rng, bits: int = 1,
                          offset: Optional[int] = None) -> None:
        """Arm a one-shot fault: the next message completing a transfer on
        this wire has ``bits`` random payload bits flipped (positions drawn
        from ``rng``, or within the byte at ``offset`` when given).  The
        message still delivers -- detection is the receiver's job, at
        checksum/ICV verification points.
        """
        self._arm()[1].append((rng, bits, offset))

    def inject_drop(self, leak_credit: bool = True) -> None:
        """Arm a one-shot fault: the next message completing a transfer
        vanishes in flight.  With ``leak_credit`` (the default, modelling a
        corrupted credit-return path) the consumed credit is never
        returned, permanently shrinking the channel's pool -- the classic
        leak that eventually wedges a lossless mesh.
        """
        self._arm()[0].append(leak_credit)

    def _arm(self) -> tuple:
        """The ``(drops, corruptions)`` queues, allocated on demand; a
        flight holding this channel de-speculates first, so the fault
        meets exact slow-path state."""
        flight = self._express_flight
        if flight is not None:
            flight.materialize()
        if self._faults is None:
            self._faults = (deque(), deque())
            log = self._fault_log
            if log is not None and self not in log:
                log.append(self)
        return self._faults

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _serialization_ps(self, bits: int) -> int:
        cached = self._ser_cache.get(bits)
        if cached is not None:
            return cached
        cycles = -(-bits // self.width_bits)  # ceil division
        result = self.clock.cycles_to_ps(cycles + ROUTER_HOP_CYCLES)
        if len(self._ser_cache) < 512:
            self._ser_cache[bits] = result
        return result

    def _start(self, message: "NocMessage") -> None:
        """Send ``message`` now.  The caller has checked that the wire is
        idle, a credit is in hand and nothing waits ahead of it."""
        route = self._express_route
        if (route is not None
                and self._mesh._inside == 1
                and not self._pending
                and self._express_flight is None
                and self._faults is None
                and route(message, self)):
            # Alone on the mesh, with the whole route idle: the message
            # now travels as an ExpressFlight.
            return
        bits = message.bits
        self._credits -= 1
        self._transfer_in_progress = True
        now = self.sim.now
        end = self._busy_until
        if end < now:
            end = now
        duration = self._ser_cache.get(bits)
        if duration is None:
            duration = self._serialization_ps(bits)
        end += duration
        self._busy_until = end
        self._busy_accum_ps += duration
        self.schedule(end - now, self._complete, message)
        self.sent += 1
        self.bits_sent += bits

    def _start_next(self) -> None:
        """The wire or a credit just freed: send the head of the queue if
        both are now there for it, and tell the sender its slot is free."""
        if self._transfer_in_progress or self._credits <= 0:
            return
        self._start(self._pending.pop(0))
        if self.on_drain is not None:
            self.on_drain()

    def _complete(self, message: "NocMessage") -> None:
        self._transfer_in_progress = False
        ctx = message.packet.trace
        if self._faults is not None and self._spend_fault(message, ctx):
            if self._pending:
                self._start_next()
            return
        message.hops += 1
        if ctx is not None and ctx.tracer is not None:
            # The transfer window is [now - serialization, now]: identical
            # to the arithmetic window express flights synthesize, so
            # fast- and slow-path traces line up span for span.
            now = self.sim.now
            ctx.tracer.hop(ctx, self.name,
                           now - self._serialization_ps(message.bits), now)
        self.deliver(message, self)
        if self._pending:
            self._start_next()

    def _spend_fault(self, message: "NocMessage", ctx) -> bool:
        """Apply the oldest armed fault to the transfer completing now: a
        drop if one is armed, else a corruption.  True when the message
        vanished."""
        drops, corruptions = self._faults
        dropped = bool(drops)
        if dropped:
            self.dropped_flits += 1
            if self._mesh is not None:
                self._mesh._inside -= 1
            if drops.popleft():
                self.leaked_credits += 1
            else:
                self._credits += 1
            if ctx is not None and ctx.tracer is not None:
                ctx.tracer.instant(ctx, "wire_drop", self.name, self.sim.now)
        else:
            self._apply_corruption(message, *corruptions.popleft())
        if not drops and not corruptions:
            self._faults = None
        return dropped

    def _apply_corruption(self, message: "NocMessage", rng, bits: int,
                          offset: Optional[int]) -> None:
        data = bytearray(message.packet.data)
        if not data:
            return
        for _ in range(bits):
            if offset is not None and 0 <= offset < len(data):
                position = offset * 8 + rng.randint(0, 7)
            else:
                position = rng.randint(0, len(data) * 8 - 1)
            data[position // 8] ^= 1 << (position % 8)
        message.packet.data = bytes(data)
        self.corrupted += 1

    # ------------------------------------------------------------------
    # Express (cut-through) bookkeeping -- see repro.noc.express
    # ------------------------------------------------------------------

    def _materialize_transfer(self, message: "NocMessage", start: int,
                              end: int) -> None:
        """Reconstruct an in-progress slow-path transfer for ``message``.

        Called by a de-speculating express flight for the hop whose
        serialization window covers the current time: the channel becomes
        busy until ``end``, exactly as if the transfer had started at
        ``start`` on the slow path.  The flight schedules the transfer's
        ``_complete`` (see ``ExpressFlight.materialize``).
        """
        self._transfer_in_progress = True
        self._credits -= 1
        self._busy_until = end
        self._busy_accum_ps += end - start
        self.sent += 1
        self.bits_sent += message.bits

    def utilization(self, elapsed_ps: int) -> float:
        """Fraction of ``[0, elapsed_ps]`` the wires spent busy.

        Serialization time is accumulated per transfer (including
        collapsed express hops); any portion of an in-progress transfer
        beyond ``elapsed_ps`` is excluded.
        """
        if elapsed_ps <= 0:
            return 0.0
        busy = self._busy_accum_ps
        if self._busy_until > elapsed_ps:
            busy -= self._busy_until - elapsed_ps
        if busy <= 0:
            return 0.0
        return min(1.0, busy / elapsed_ps)
