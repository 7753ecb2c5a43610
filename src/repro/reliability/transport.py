"""Host-side reliable transport: the shared core and go-back-N.

One transport per NIC plays both roles: sender for the flows this host
originates, receiver (ACK generator plus duplicate suppressor) for the
flows arriving from peers.  It lives in host software -- segments enter
the NIC through the normal ``host.enqueue_tx`` doorbell path and come
back out through the interrupt-driven ``software_handler`` -- so the NIC
pipeline under test is exactly the one unreliable datagrams use.

:class:`TransportCore` is everything loss recovery does not decide: the
flow table, the window pump, the one rule for (re)starting the
retransmission timer, the retry budget and abort, the seeded jitter
stream, direct-server-return addressing (``accept_dst``/``reply_as``),
RX demultiplexing, tracer hooks and the four reports.  A *recovery
policy* is a subclass supplying only what differs:

=====================  ===============================================
``DATA``/``ACK``,      the wire codec: segment type codes, DATA
``_pack_data``,        serialisation, and ``_parse`` returning
``_parse``             ``(type, src, dst, seq, tail)`` or None
``_on_ack``            ACK processing (ends in ``_ack_processed``)
``_on_timeout``        what an RTO expiry backs off and resends
``_on_data``           receiver buffering and what the ACK advertises
``_rto_ps``            where the RTO comes from
=====================  ===============================================

:class:`ReliableTransport` (this module) is go-back-N;
:class:`~repro.reliability.selective.SelectiveRepeatTransport` is
selective repeat with SACK and a measured RTO.

Go-back-N wire format (inside the UDP payload)::

    0       2     3      5      7              15
    +-------+-----+------+------+---------------+----------------+
    | magic | typ | src  | dst  |      seq      |  app payload   |
    +-------+-----+------+------+---------------+----------------+

``src``/``dst`` are rack NIC indices; for ``DATA`` ``seq`` is the
segment's per-flow sequence number, for ``ACK`` it is the *cumulative*
acknowledgement -- "I have received every sequence number below this".

Loss recovery is classic go-back-N: one retransmission timer per flow;
on expiry the whole outstanding window is resent and the RTO doubles
(bounded by ``rto_max_ps``) with seeded jitter so replayed runs stay
bit-identical.  ``max_retries`` consecutive expiries without progress
abort the flow and surface a :class:`DeliveryFailed` record -- bounded
retries guarantee the event heap drains even over a permanently cut
wire.  Corruption needs no extra machinery: the NICs run with checksum
verification on, so a corrupted segment dies at RMT classification and
the transport sees it as loss.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.packet.headers import RACK_TAG_BYTES, RACK_TAG_UDP_PORT
from repro.sim.clock import US
from repro.sim.stats import Counter

#: Magic marking a reliability segment; anything else in the UDP payload
#: is ignored (defensive against corrupted or foreign frames).
MAGIC = 0x5EAB
#: Segment types.
DATA = 0
ACK = 1

_HEADER = struct.Struct("!HBHHQ")  # magic, type, src, dst, seq
HEADER_BYTES = _HEADER.size

#: Defaults; window sizes the outstanding go-back-N in-flight segments.
DEFAULT_WINDOW = 16
DEFAULT_MAX_RETRIES = 8
DEFAULT_JITTER = 0.1


def pack_segment(seg_type: int, src: int, dst: int, seq: int,
                 payload: bytes = b"") -> bytes:
    """Serialize one reliability segment (header + app payload)."""
    return _HEADER.pack(MAGIC, seg_type, src, dst, seq) + payload


def parse_segment(
    payload: bytes,
) -> Optional[Tuple[int, int, int, int, bytes]]:
    """Parse a UDP payload; None unless it starts with a valid header.

    Returns ``(type, src, dst, seq, rest)``.  Ethernet zero-padding after
    ``rest`` is harmless -- callers treat app payload as opaque.
    """
    if len(payload) < HEADER_BYTES:
        return None
    magic, seg_type, src, dst, seq = _HEADER.unpack_from(payload)
    if magic != MAGIC or seg_type not in (DATA, ACK):
        return None
    return seg_type, src, dst, seq, payload[HEADER_BYTES:]


def segment_offset(packet) -> int:
    """Offset of the transport segment inside a received frame.

    Ethernet (14) + IPv4 (20) + UDP (8) = 42 for the rack frame shapes
    this library builds; tag-identified frames (``flow_id="tag"`` racks,
    recognized by their UDP destination port) lead the payload with a
    flow-tag shim that is not part of the segment.
    """
    if int.from_bytes(packet.data[36:38], "big") == RACK_TAG_UDP_PORT:
        return 42 + RACK_TAG_BYTES
    return 42


def default_rto_ps(propagation_ps: int) -> int:
    """Initial RTO for a rack wire: a few propagation round trips plus
    generous headroom for the NIC pipeline, incast queueing, and the
    interrupt-driven host software delay (~2 us per side)."""
    return 8 * propagation_ps + 30 * US


class DeliveryFailed(NamedTuple):
    """A flow gave up: ``max_retries`` RTO expiries without progress.

    Covers every unacknowledged sequence number the sender will never
    deliver: ``first_seq`` (the flow's cumulative-ACK front at abort
    time) through the last payload offered before the report was read.
    """

    dst: int
    first_seq: int
    at_ps: int
    retries: int


class TxFlow:
    """Sender state for one destination, common to every policy."""

    __slots__ = ("dst", "payloads", "base", "next_seq", "end", "retries",
                 "timer_gen", "aborted", "completed_ps")

    def __init__(self, dst: int, first_seq: int):
        self.dst = dst
        self.payloads: Dict[int, bytes] = {}  # seq -> app payload
        self.base = first_seq      # lowest unacknowledged sequence number
        self.next_seq = first_seq  # next never-sent sequence number
        self.end = first_seq       # next never-offered sequence number
        self.retries = 0     # consecutive expiries without progress
        self.timer_gen = 0   # invalidates stale timer events
        self.aborted = False
        self.completed_ps: Optional[int] = None  # last payload acked at

    def outstanding(self) -> bool:
        return self.base < self.next_seq


class TransportCore:
    """Flow table, window, timer, retry budget, RX demux and reports.

    Parameters
    ----------
    nic:
        The :class:`~repro.core.panic.PanicNic` to speak through.  The
        transport installs itself as ``nic.host.software_handler`` and
        as ``nic.transport`` (surfacing ``stats()["reliability"]``).
    index:
        This host's rack NIC index (the ``src`` of every segment).
    frame_builder:
        ``frame_builder(dst, udp_payload) -> bytes`` -- builds the full
        Ethernet frame addressed to peer ``dst``.  Supplied by the
        workload, so any experiment that cables two NICs can reuse the
        transport whatever its MAC/IP/DSCP scheme.
    rng:
        A dedicated seeded stream for RTO jitter (fork it from the
        workload seed; never share a stream the simulation draws from).
    on_deliver:
        ``on_deliver(src, seq, app_payload, queue)`` called exactly once
        per segment, in order -- duplicates are suppressed before it.
    accept_dst, reply_as:
        Direct-server-return serving (:mod:`repro.lb`): a backend also
        accepts segments addressed to the virtual index (``accept_dst``)
        and stamps its ACKs with it (``reply_as``), so clients talk to
        the VIP and never learn which backend served them.
    """

    #: Counter-name suffix under the NIC's name.
    LABEL = ""
    #: ``stats()`` keys in report order; each names a Counter attribute.
    STATS: Tuple[str, ...] = ()
    #: Bytes the DATA header takes out of a frame's UDP payload.
    HEADER_BYTES = 0
    #: Largest window the policy's sequence arithmetic stays sound for.
    MAX_WINDOW: Optional[int] = None
    #: First sequence number of every flow (both ends must agree).
    initial_seq = 0
    #: Restart the RTO whenever new data enters flight, not only when
    #: the flow leaves idle (see ``_pump``).
    RESTART_RTO_ON_NEW_DATA = False

    @classmethod
    def check_window(cls, window: int) -> None:
        """Raise unless ``window`` is one this policy can run with."""
        if window < 1 or (cls.MAX_WINDOW and window > cls.MAX_WINDOW):
            bound = (f"in 1..{cls.MAX_WINDOW} (unwrap safety)"
                     if cls.MAX_WINDOW else ">= 1")
            raise ValueError(f"window must be {bound}, got {window}")

    def __init__(
        self,
        nic,
        index: int,
        *,
        frame_builder: Callable[[int, bytes], bytes],
        rng,
        rto_initial_ps: int,
        rto_max_ps: Optional[int] = None,
        window: int = DEFAULT_WINDOW,
        max_retries: int = DEFAULT_MAX_RETRIES,
        jitter: float = DEFAULT_JITTER,
        on_deliver: Optional[Callable[[int, int, bytes, int], None]] = None,
        tx_queue: int = 0,
        accept_dst: Optional[set] = None,
        reply_as: Optional[int] = None,
    ):
        self.check_window(window)
        if rto_initial_ps <= 0:
            raise ValueError(f"rto_initial_ps must be > 0, got {rto_initial_ps}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.nic = nic
        self.sim = nic.sim
        self.index = index
        self.accept_dst = frozenset(accept_dst or ())
        self.reply_as = self.index if reply_as is None else reply_as
        self.frame_builder = frame_builder
        self.rng = rng
        self.window = window
        self.rto_initial_ps = rto_initial_ps
        self.rto_max_ps = rto_max_ps or 16 * rto_initial_ps
        self.max_retries = max_retries
        self.jitter = jitter
        self.on_deliver = on_deliver
        self.tx_queue = tx_queue

        self._tx: Dict[int, TxFlow] = {}
        self.failures: List[DeliveryFailed] = []
        for key in self.STATS:
            setattr(self, key, Counter(f"{nic.name}.{self.LABEL}.{key}"))

        # Telemetry: control events land on a dedicated flow context,
        # allocated at construction so the trace id is mode-independent.
        self._trace_ctx = None
        self._tracer = None
        if nic.telemetry is not None:
            self._tracer = nic.telemetry.tracer
            self._trace_ctx = self._tracer.flow_ctx()

        nic.host.software_handler = self._on_host_rx
        nic.transport = self

    # ------------------------------------------------------------------
    # Sender
    # ------------------------------------------------------------------

    def _new_flow(self, dst: int) -> TxFlow:
        return TxFlow(dst, self.initial_seq)

    def send(self, dst: int, payload: bytes) -> None:
        """Offer one application payload to flow ``dst``.

        Transmitted immediately if the window has room, otherwise once
        earlier segments are acknowledged.
        """
        flow = self._tx.get(dst)
        if flow is None:
            flow = self._tx[dst] = self._new_flow(dst)
        flow.payloads[flow.end] = bytes(payload)
        flow.end += 1
        flow.completed_ps = None
        self._pump(flow)

    def _pump(self, flow: TxFlow) -> bool:
        """Send everything the window allows; True if anything went.

        The timer-arming rule, half one: the RTO starts when a flow
        leaves idle (nothing outstanding -> something outstanding).  New
        data joining an already-outstanding window does *not* push the
        deadline out -- otherwise a sender that keeps offering never
        repairs a loss until it stops.
        """
        if flow.aborted:
            return False
        was_idle = flow.base >= flow.next_seq
        limit = min(flow.base + self.window, flow.end)
        if flow.next_seq >= limit:
            return False
        while flow.next_seq < limit:
            self._transmit(flow, flow.next_seq, first=True)
            flow.next_seq += 1
            self.data_sent.add()
        if was_idle or self.RESTART_RTO_ON_NEW_DATA:
            self._arm_timer(flow)
        return True

    def _ack_processed(self, flow: TxFlow, progressed: bool) -> None:
        """Common tail of ACK processing, once ``base`` is updated.

        The timer-arming rule, half two: an ACK that advanced ``base``
        restarts the RTO for the new oldest segment; with nothing left
        in flight the timer is disarmed and, if nothing is left to
        offer either, the flow is complete.
        """
        self._pump(flow)
        if flow.base < flow.next_seq:
            if progressed:
                self._arm_timer(flow)
        else:
            flow.timer_gen += 1
            if flow.base == flow.end:
                flow.completed_ps = self.sim.now

    def _transmit(self, flow: TxFlow, seq: int, first: bool) -> None:
        segment = self._pack_data(self.index, flow.dst, seq,
                                  flow.payloads[seq])
        self.nic.host.enqueue_tx(
            self.frame_builder(flow.dst, segment), self.tx_queue
        )

    def _retransmit(self, flow: TxFlow, seq: int) -> None:
        self._transmit(flow, seq, first=False)
        self.retransmits.add()

    def _send_ack(self, src: int, segment: bytes) -> None:
        self.nic.host.enqueue_tx(self.frame_builder(src, segment),
                                 self.tx_queue)
        self.acks_sent.add()

    def _jittered(self, ps: float) -> int:
        """``ps`` spread by the seeded jitter: timers that backed off in
        lockstep would otherwise fire at the same instant forever."""
        return max(1, int(ps * (
            1.0 + self.rng.uniform(-self.jitter, self.jitter)
        )))

    def _timer_delay_ps(self, flow: TxFlow) -> int:
        return self._rto_ps(flow)

    def _arm_timer(self, flow: TxFlow) -> None:
        flow.timer_gen += 1
        self.sim.schedule_at(
            self.sim.now + self._timer_delay_ps(flow),
            self._on_timer, flow, flow.timer_gen,
        )

    def _on_timer(self, flow: TxFlow, gen: int) -> None:
        if gen != flow.timer_gen or flow.aborted or flow.base >= flow.next_seq:
            return  # stale timer, or nothing outstanding anymore
        self.rto_fired.add()
        flow.retries += 1
        self._trace("rel_rto", (("dst", flow.dst),
                                ("rto_ps", self._rto_ps(flow)),
                                ("retries", flow.retries)))
        if flow.retries > self.max_retries:
            self._abort(flow)
            return
        self._on_timeout(flow)
        self._arm_timer(flow)

    def _abort(self, flow: TxFlow) -> None:
        flow.aborted = True
        flow.timer_gen += 1
        self.failures.append(DeliveryFailed(
            dst=flow.dst, first_seq=flow.base, at_ps=self.sim.now,
            retries=flow.retries,
        ))
        self._trace("rel_abort", (("dst", flow.dst),
                                  ("first_seq", flow.base)))

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------

    def _on_host_rx(self, packet, queue: int) -> None:
        parsed = self._parse(packet.data[segment_offset(packet):])
        if parsed is None:
            self.parse_rejects.add()
            return
        seg_type, src, dst, seq, tail = parsed
        if dst != self.index and dst not in self.accept_dst:
            self.parse_rejects.add()
            return
        if seg_type == self.ACK:
            flow = self._tx.get(src)
            if flow is not None and not flow.aborted:
                self._on_ack(flow, seq, tail)
        else:
            self._on_data(src, seq, tail, queue)

    def _deliver(self, src: int, seq: int, payload: bytes,
                 queue: int) -> None:
        self.delivered.add()
        if self.on_deliver is not None:
            self.on_deliver(src, seq, payload, queue)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _trace(self, kind: str, args: Tuple) -> None:
        if self._tracer is not None:
            self._tracer.instant(self._trace_ctx, kind,
                                 f"{self.nic.name}.reliability",
                                 self.sim.now, args)

    def stats(self) -> Dict[str, int]:
        """The ``stats()["reliability"]`` block of the owning NIC.  Both
        policies share the keys the chaos harness aggregates
        (``retransmits``/``rto_fired``/``delivery_failures``)."""
        out = {key: getattr(self, key).value for key in self.STATS}
        out["delivery_failures"] = len(self.failures)
        return out

    def flow_report(self) -> Dict[int, Dict[str, int]]:
        """Per-destination accounting: ``sent == acked + failed`` holds
        for every flow once the simulation drains (the chaos harness's
        accounting invariant).  ``acked`` is the *cumulative* prefix:
        segments confirmed out of order but not contiguously at abort
        time count as failed -- the sender never confirmed them to the
        application."""
        out: Dict[int, Dict[str, int]] = {}
        for dst, flow in sorted(self._tx.items()):
            sent = flow.end - self.initial_seq
            acked = min(flow.base - self.initial_seq, sent)
            out[dst] = {
                "sent": sent,
                "acked": acked,
                "failed": sent - acked,
                "aborted": int(flow.aborted),
            }
        return out

    def fct_report(self) -> Dict[int, int]:
        """Flow completion times: dst -> instant the last offered
        payload was cumulatively acknowledged (completed flows only)."""
        return {
            dst: flow.completed_ps
            for dst, flow in sorted(self._tx.items())
            if flow.completed_ps is not None
        }

    def failure_report(self) -> List[tuple]:
        """Picklable ``DeliveryFailed`` records."""
        return [tuple(f) for f in self.failures]


class _GbnTxFlow(TxFlow):
    __slots__ = ("rto_ps",)  # current (backed-off) RTO


class ReliableTransport(TransportCore):
    """Go-back-N: cumulative ACKs, no receiver buffer, a fixed initial
    RTO that doubles per expiry, and the whole outstanding window resent
    on timeout.  Constructor parameters: :class:`TransportCore`."""

    LABEL = "rel"
    DATA = DATA
    ACK = ACK
    HEADER_BYTES = HEADER_BYTES
    STATS = ("data_sent", "retransmits", "rto_fired", "acks_sent",
             "acks_received", "dup_acks", "delivered",
             "duplicates_suppressed", "out_of_order_dropped",
             "parse_rejects")
    def __init__(self, nic, index: int, **core_args):
        super().__init__(nic, index, **core_args)
        self._rx_expected: Dict[int, int] = {}  # src -> next in-order seq

    _parse = staticmethod(parse_segment)

    @staticmethod
    def _pack_data(src: int, dst: int, seq: int, payload: bytes) -> bytes:
        return pack_segment(DATA, src, dst, seq, payload)

    def _new_flow(self, dst: int) -> _GbnTxFlow:
        flow = _GbnTxFlow(dst, 0)
        flow.rto_ps = self.rto_initial_ps
        return flow

    def _rto_ps(self, flow: _GbnTxFlow) -> int:
        return flow.rto_ps

    def _on_timeout(self, flow: _GbnTxFlow) -> None:
        flow.rto_ps = self._jittered(min(flow.rto_ps * 2, self.rto_max_ps))
        for seq in range(flow.base, flow.next_seq):
            self._retransmit(flow, seq)
        self._trace("rel_retransmit", (("dst", flow.dst),
                                       ("seq_from", flow.base),
                                       ("seq_to", flow.next_seq - 1)))

    def _on_ack(self, flow: _GbnTxFlow, ack_no: int, _tail) -> None:
        if ack_no <= flow.base:
            self.dup_acks.add()
            return
        self.acks_received.add()
        flow.base = min(ack_no, flow.next_seq)
        flow.retries = 0
        flow.rto_ps = self.rto_initial_ps
        self._ack_processed(flow, progressed=True)

    def _on_data(self, src: int, seq: int, payload: bytes,
                 queue: int) -> None:
        expected = self._rx_expected.get(src, 0)
        if seq == expected:
            expected += 1
            self._rx_expected[src] = expected
            self._deliver(src, seq, payload, queue)
        elif seq < expected:
            self.duplicates_suppressed.add()
        else:
            # No reorder buffer: the sender will resend from `expected`
            # on its next timeout.
            self.out_of_order_dropped.add()
        # Always (re-)advertise the cumulative front, so lost ACKs heal.
        self._send_ack(src, pack_segment(ACK, self.reply_as, src, expected))
