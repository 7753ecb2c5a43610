"""Selective-repeat reliable transport with SACK and adaptive RTO.

The go-back-N transport (:mod:`repro.reliability.transport`) resends the
*whole* outstanding window on every timeout and runs a fixed,
deliberately conservative RTO.  That is the wrong tool for 1% wire
corruption: one lost frame costs a window's worth of duplicate bytes
and tens of microseconds of idle wire.  This module upgrades the host
side to classic selective repeat:

* **per-segment SACK blocks** in every ACK -- the receiver reports its
  cumulative front *and* up to :data:`SACK_MAX_BLOCKS` ranges of
  out-of-order segments it is buffering, so the sender retransmits
  exactly the holes;
* **out-of-order receiver buffering** with cumulative in-order delivery
  to the application (``on_deliver`` still fires exactly once per
  segment, in order);
* **adaptive RTO** from per-flow RTT measurement: EWMA ``srtt`` /
  ``rttvar`` (RFC 6298 gains, alpha=1/8 beta=1/4) with **Karn's rule**
  -- a segment that was ever retransmitted never contributes a sample,
  because its ACK is ambiguous -- replacing the fixed
  ``default_rto_ps`` heuristic;
* **fast retransmit by SACK inference** -- a hole with
  :data:`FAST_RETX_DUPTHRESH` SACKed segments above it is retransmitted
  without waiting for the timer (once per hole; the RTO still backs it
  up).

Sequence numbers occupy a finite 16-bit wire space and wrap; all
internal state is kept in *absolute* sequence numbers and wire fields
are unwrapped relative to the receiver/sender front (sound while the
window stays far below half the space, enforced at construction).  The
wire format extends :mod:`repro.reliability.transport`'s framing with
two new segment types, so a selective-repeat NIC and a go-back-N NIC
can share a rack without misparsing each other::

    0       2     3      5      7      9
    +-------+-----+------+------+------+----------------------+
    | magic | typ | src  | dst  | seq  |  payload / SACK info |
    +-------+-----+------+------+------+----------------------+

For ``SR_DATA`` the tail is the app payload; for ``SR_ACK`` ``seq`` is
the cumulative front ("every sequence number below this, mod 2^16, has
been delivered") and the tail is ``count`` (1 byte) followed by
``count`` SACK blocks of two 16-bit words each, ``[start, end)`` in
wire space.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from typing import Dict, List, Optional, Set, Tuple

from repro.reliability.transport import MAGIC, TransportCore, TxFlow

#: Segment types (disjoint from go-back-N's DATA=0/ACK=1).
SR_DATA = 2
SR_ACK = 3

#: The wire sequence space: 16-bit, wrapping.
SEQ_SPACE = 1 << 16
SEQ_MASK = SEQ_SPACE - 1
#: Unwrap horizon: wire deltas at or beyond half the space are in the
#: past.  Windows must stay well below this (checked at construction).
SEQ_HALF = SEQ_SPACE // 2

_SR_HEADER = struct.Struct("!HBHHH")  # magic, type, src, dst, seq16
SR_HEADER_BYTES = _SR_HEADER.size
_SACK_BLOCK = struct.Struct("!HH")

#: At most this many SACK blocks ride in one ACK (TCP fits 3-4).
SACK_MAX_BLOCKS = 4
#: SACKed segments above a hole before fast retransmit fires.
FAST_RETX_DUPTHRESH = 3

#: EWMA gains and variance multiplier (RFC 6298).
RTT_ALPHA = 0.125
RTT_BETA = 0.25
RTO_K = 4


def seq_wrap(seq: int) -> int:
    """Absolute sequence number -> 16-bit wire field."""
    return seq & SEQ_MASK


def seq_unwrap(wire_seq: int, reference: int) -> int:
    """Wire field -> the absolute sequence number closest at or ahead of
    ``reference`` within half the space; older numbers come back
    negative-delta (i.e. below ``reference``).

    ``unwrap(wrap(s), ref) == s`` whenever ``|s - ref| < SEQ_HALF`` --
    the property every window bound in this module preserves.
    """
    delta = (wire_seq - reference) & SEQ_MASK
    if delta >= SEQ_HALF:
        delta -= SEQ_SPACE
    return reference + delta


def pack_sr_data(src: int, dst: int, seq: int, payload: bytes = b"") -> bytes:
    """Serialize one selective-repeat DATA segment."""
    return _SR_HEADER.pack(MAGIC, SR_DATA, src, dst, seq_wrap(seq)) + payload


def pack_sr_ack(src: int, dst: int, cum: int,
                blocks: Tuple[Tuple[int, int], ...] = ()) -> bytes:
    """Serialize a cumulative-ACK-plus-SACK segment.

    ``blocks`` are absolute ``[start, end)`` ranges; both words are
    wrapped onto the wire.  An empty ``end`` range is invalid.
    """
    if len(blocks) > SACK_MAX_BLOCKS:
        raise ValueError(f"at most {SACK_MAX_BLOCKS} SACK blocks, "
                         f"got {len(blocks)}")
    out = [_SR_HEADER.pack(MAGIC, SR_ACK, src, dst, seq_wrap(cum)),
           bytes([len(blocks)])]
    for start, end in blocks:
        if start == end:
            raise ValueError("empty SACK block")
        out.append(_SACK_BLOCK.pack(seq_wrap(start), seq_wrap(end)))
    return b"".join(out)


def parse_sr_segment(payload: bytes) -> Optional[tuple]:
    """Parse a UDP payload as a selective-repeat segment.

    Returns ``(SR_DATA, src, dst, seq, app_payload)`` or ``(SR_ACK,
    src, dst, cum, blocks)`` with wire-space (wrapped) numbers, or None
    for anything that is not a well-formed SR segment -- including a
    truncated SACK tail, which a corrupted frame can produce.
    """
    if len(payload) < SR_HEADER_BYTES:
        return None
    magic, seg_type, src, dst, seq = _SR_HEADER.unpack_from(payload)
    if magic != MAGIC or seg_type not in (SR_DATA, SR_ACK):
        return None
    rest = payload[SR_HEADER_BYTES:]
    if seg_type == SR_DATA:
        return SR_DATA, src, dst, seq, rest
    if not rest:
        return None
    count = rest[0]
    if count > SACK_MAX_BLOCKS:
        return None
    need = 1 + count * _SACK_BLOCK.size
    if len(rest) < need:
        return None
    blocks = tuple(
        _SACK_BLOCK.unpack_from(rest, 1 + i * _SACK_BLOCK.size)
        for i in range(count)
    )
    return SR_ACK, src, dst, seq, blocks


class RttEstimator:
    """Per-flow smoothed RTT and adaptive RTO (RFC 6298 shape).

    Until the first sample the RTO is ``rto_initial_ps`` (the old fixed
    heuristic, now just the cold-start value).  After that::

        srtt   <- (1 - alpha) * srtt + alpha * R
        rttvar <- (1 - beta) * rttvar + beta * |srtt - R|
        rto     = clamp(srtt + max(K * rttvar, srtt / 4),
                        rto_min_ps, rto_max_ps)

    The ``srtt / 4`` floor on the variance term stands in for RFC
    6298's clock-granularity ``G``: in a deterministic simulator
    ``rttvar`` can decay toward zero, and an RTO equal to ``srtt``
    would fire spuriously on every in-flight ACK.  Callers enforce
    Karn's rule -- never feed a sample measured from a retransmitted
    segment -- because a retransmitted segment's ACK is ambiguous.
    """

    __slots__ = ("rto_initial_ps", "rto_min_ps", "rto_max_ps",
                 "srtt_ps", "rttvar_ps", "samples")

    def __init__(self, rto_initial_ps: int, rto_min_ps: int,
                 rto_max_ps: int):
        if not 0 < rto_min_ps <= rto_max_ps:
            raise ValueError(
                f"need 0 < rto_min <= rto_max, got "
                f"{rto_min_ps}..{rto_max_ps}")
        self.rto_initial_ps = rto_initial_ps
        self.rto_min_ps = rto_min_ps
        self.rto_max_ps = rto_max_ps
        self.srtt_ps: Optional[float] = None
        self.rttvar_ps = 0.0
        self.samples = 0

    def sample(self, rtt_ps: int) -> None:
        """Fold one RTT measurement in (caller applies Karn's rule)."""
        self.samples += 1
        if self.srtt_ps is None:
            self.srtt_ps = float(rtt_ps)
            self.rttvar_ps = rtt_ps / 2.0
            return
        self.rttvar_ps = ((1.0 - RTT_BETA) * self.rttvar_ps
                          + RTT_BETA * abs(self.srtt_ps - rtt_ps))
        self.srtt_ps = (1.0 - RTT_ALPHA) * self.srtt_ps + RTT_ALPHA * rtt_ps

    def rto_ps(self) -> int:
        if self.srtt_ps is None:
            return self.rto_initial_ps
        rto = self.srtt_ps + max(RTO_K * self.rttvar_ps, self.srtt_ps / 4.0)
        return int(min(max(rto, self.rto_min_ps), self.rto_max_ps))


class _SrTxFlow(TxFlow):
    """Selective-repeat sender state (absolute sequence numbers)."""

    __slots__ = ("sacked", "sent_at", "retransmitted", "fast_done",
                 "backoff", "rtt")

    def __init__(self, dst: int, first_seq: int, rtt: RttEstimator):
        super().__init__(dst, first_seq)
        self.sacked: Set[int] = set()  # SACKed beyond base
        self.sent_at: Dict[int, int] = {}   # abs seq -> first-TX time
        self.retransmitted: Set[int] = set()  # Karn-poisoned seqs
        self.fast_done: Set[int] = set()    # holes already fast-retx'd
        self.backoff = 1       # RTO multiplier (doubles per expiry)
        self.rtt = rtt


class _SrRxFlow:
    """Receiver state for one source."""

    __slots__ = ("rcv_next", "buffer")

    def __init__(self, initial_seq: int):
        self.rcv_next = initial_seq
        self.buffer: Dict[int, bytes] = {}  # abs seq -> payload (OOO)


class SelectiveRepeatTransport(TransportCore):
    """Selective repeat: the recovery policy for lossy wires.

    Same constructor surface and ``send``/``stats``/``flow_report``
    contract as :class:`~repro.reliability.transport.ReliableTransport`
    (both are :class:`~repro.reliability.transport.TransportCore`);
    differs in the wire format (SR segment types), the receiver
    (buffers out of order, ACKs carry SACK blocks), and the
    retransmission policy (per-hole, timer driven by measured RTT,
    floored at ``rto_min_ps``).

    ``initial_seq`` offsets the absolute sequence space; production
    flows start at 0, wraparound tests start just below
    :data:`SEQ_SPACE` so a handful of frames cross the wrap.  Both ends
    of a flow must agree on it.
    """

    DATA = SR_DATA
    ACK = SR_ACK
    HEADER_BYTES = SR_HEADER_BYTES
    STATS = ("data_sent", "retransmits", "rto_fired", "fast_retransmits",
             "acks_sent", "acks_received", "dup_acks", "sack_blocks_rx",
             "rtt_samples", "delivered", "buffered_ooo",
             "duplicates_suppressed", "out_of_order_dropped",
             "parse_rejects")
    MAX_WINDOW = SEQ_HALF // 4
    # Historical, and pinned by every SR-under-loss digest (each arming
    # draws jitter): the RTO also restarts when new data joins an
    # outstanding window.  Harmless here -- a stuck window stops
    # admitting new data after ``window`` segments, and SACK-driven
    # fast retransmit repairs most holes without the timer.
    RESTART_RTO_ON_NEW_DATA = True

    def __init__(self, nic, index: int, *, initial_seq: int = 0,
                 **core_args):
        if initial_seq < 0:
            raise ValueError(f"initial_seq must be >= 0, got {initial_seq}")
        self.initial_seq = initial_seq
        super().__init__(nic, index, **core_args)
        self.rto_min_ps = max(1, self.rto_initial_ps // 8)
        self._rx: Dict[int, _SrRxFlow] = {}

    _pack_data = staticmethod(pack_sr_data)
    _parse = staticmethod(parse_sr_segment)

    # ------------------------------------------------------------------
    # Sender
    # ------------------------------------------------------------------

    def _new_flow(self, dst: int) -> _SrTxFlow:
        return _SrTxFlow(
            dst, self.initial_seq,
            RttEstimator(self.rto_initial_ps, self.rto_min_ps,
                         self.rto_max_ps),
        )

    def _rto_ps(self, flow: _SrTxFlow) -> int:
        return flow.rtt.rto_ps() * flow.backoff

    def _timer_delay_ps(self, flow: _SrTxFlow) -> int:
        return self._jittered(min(self._rto_ps(flow), self.rto_max_ps))

    def _transmit(self, flow: _SrTxFlow, seq: int, first: bool) -> None:
        if first:
            flow.sent_at[seq] = self.sim.now
        else:
            flow.retransmitted.add(seq)  # Karn: sample never taken
        super()._transmit(flow, seq, first)

    def _on_timeout(self, flow: _SrTxFlow) -> None:
        flow.backoff = min(flow.backoff * 2, 1 << 14)
        # Resend only the oldest hole, not the window.
        self._retransmit(flow, flow.base)
        self._trace("rel_retransmit", (("dst", flow.dst),
                                       ("seq", flow.base),
                                       ("kind", "rto")))

    def _on_ack(self, flow: _SrTxFlow, cum_wire: int,
                blocks: Tuple[Tuple[int, int], ...]) -> None:
        cum = seq_unwrap(cum_wire, flow.base)
        if cum < flow.base:
            self.dup_acks += 1
            return
        cum = min(cum, flow.next_seq)

        # Fold the SACK blocks in (absolute, bounded by the send front).
        newly_sacked: List[int] = []
        for start_wire, end_wire in blocks:
            start = seq_unwrap(start_wire, flow.base)
            length = (end_wire - start_wire) & SEQ_MASK
            self.sack_blocks_rx += 1
            for seq in range(start, start + length):
                if cum <= seq < flow.next_seq and seq not in flow.sacked:
                    flow.sacked.add(seq)
                    newly_sacked.append(seq)

        if cum == flow.base and not newly_sacked:
            self.dup_acks += 1
            self._fast_retransmit(flow)
            return
        self.acks_received += 1

        # RTT sample (Karn's rule): the youngest newly-confirmed segment
        # that was transmitted exactly once.
        newly_acked = list(range(flow.base, cum)) + newly_sacked
        for seq in sorted(newly_acked, reverse=True):
            if seq not in flow.retransmitted and seq in flow.sent_at:
                flow.rtt.sample(self.sim.now - flow.sent_at[seq])
                self.rtt_samples += 1
                break

        progressed = cum > flow.base
        flow.base = cum
        while flow.base in flow.sacked:
            flow.sacked.discard(flow.base)
            flow.base += 1
            progressed = True
        for seq in list(flow.payloads):
            if seq < flow.base:
                del flow.payloads[seq]
                flow.sent_at.pop(seq, None)
                flow.retransmitted.discard(seq)
                flow.fast_done.discard(seq)
        if progressed:
            flow.retries = 0
            flow.backoff = 1
        self._fast_retransmit(flow)
        self._ack_processed(flow, progressed)

    def _fast_retransmit(self, flow: _SrTxFlow) -> None:
        """SACK-inferred loss: a hole with ``FAST_RETX_DUPTHRESH`` SACKed
        segments above it is gone; resend it now, once."""
        if flow.aborted or not flow.sacked:
            return
        sacked_sorted = sorted(flow.sacked)
        for seq in range(flow.base, sacked_sorted[-1]):
            if seq in flow.sacked or seq in flow.fast_done:
                continue
            above = len(flow.sacked) - bisect_right(sacked_sorted, seq)
            if above >= FAST_RETX_DUPTHRESH:
                flow.fast_done.add(seq)
                self._retransmit(flow, seq)
                self.fast_retransmits += 1
                self._trace("rel_retransmit", (("dst", flow.dst),
                                               ("seq", seq),
                                               ("kind", "fast")))

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------

    def _on_data(self, src: int, seq: int, payload: bytes,
                 queue: int) -> None:
        rx = self._rx.get(src)
        if rx is None:
            rx = self._rx[src] = _SrRxFlow(self.initial_seq)
        seq_abs = seq_unwrap(seq, rx.rcv_next)
        latest = None
        if seq_abs < rx.rcv_next or seq_abs in rx.buffer:
            self.duplicates_suppressed += 1
        elif seq_abs >= rx.rcv_next + 4 * self.window:
            # Far beyond any plausible send window: refuse to buffer.
            self.out_of_order_dropped += 1
        else:
            rx.buffer[seq_abs] = payload
            latest = seq_abs
            if seq_abs != rx.rcv_next:
                self.buffered_ooo += 1
            while rx.rcv_next in rx.buffer:
                self._deliver(src, rx.rcv_next, rx.buffer.pop(rx.rcv_next),
                              queue)
                rx.rcv_next += 1
        # Advertise the cumulative front plus SACK blocks: the block
        # holding the segment that triggered this ACK rides first
        # (freshest information), then the remaining out-of-order
        # ranges ascending, capped at SACK_MAX_BLOCKS.
        blocks: List[Tuple[int, int]] = []
        if rx.buffer:
            ranges = _contiguous_ranges(sorted(rx.buffer))
            if latest is not None:
                for block in ranges:
                    if block[0] <= latest < block[1]:
                        blocks.append(block)
                        ranges.remove(block)
                        break
            blocks.extend(ranges)
            blocks = blocks[:SACK_MAX_BLOCKS]
        self._send_ack(src, pack_sr_ack(self.reply_as, src, rx.rcv_next,
                                        tuple(blocks)))

    def rtt_report(self) -> Dict[int, Dict[str, float]]:
        """Per-flow estimator state (srtt/rttvar/rto in ps)."""
        out = {}
        for dst, flow in sorted(self._tx.items()):
            out[dst] = {
                "srtt_ps": round(flow.rtt.srtt_ps or 0.0, 3),
                "rttvar_ps": round(flow.rtt.rttvar_ps, 3),
                "rto_ps": flow.rtt.rto_ps(),
                "samples": flow.rtt.samples,
            }
        return out


def _contiguous_ranges(seqs: List[int]) -> List[Tuple[int, int]]:
    """Sorted absolute seqs -> maximal ``[start, end)`` ranges."""
    ranges: List[Tuple[int, int]] = []
    start = prev = None
    for seq in seqs:
        if start is None:
            start = prev = seq
        elif seq == prev + 1:
            prev = seq
        else:
            ranges.append((start, prev + 1))
            start = prev = seq
    if start is not None:
        ranges.append((start, prev + 1))
    return ranges
