"""Link-local loss recovery between adjacent hops (LinkGuardian-style).

PR 5 left loss repair entirely to the end hosts: a dropped or corrupted
frame costs a full host RTO (tens of microseconds) and, under go-back-N,
a whole-window resend.  Real line-rate stacks repair corruption *on the
link*: the receiver CRC-checks every frame, NACKs the sender across one
wire round trip, and the sender retransmits from a small hold buffer --
so the end-to-end timer almost never fires (LinkGuardian, NSDI'23).

:class:`LinkLayer` models that protocol for one transmit direction of an
external wire.  It is armed per wire through the existing
``FaultPlan``/``arm_rack_faults`` machinery
(:meth:`~repro.faults.plan.FaultPlan.link_local`), and wraps the
direction's :class:`~repro.workloads.wire.LinkFaults` gate:

* **sender hold buffer** -- every protected frame occupies a slot until
  the receiver's coalesced ACK releases it; at ``hold_frames``
  occupancy, new frames bypass protection (counted) rather than stall
  the wire, so the buffer is bounded by construction;
* **receiver NACK** -- a corrupted frame is CRC-detected on arrival and
  NACKed immediately; a dropped frame is detected by the receiver's
  gap/aging timer (``detect_ps``) and then NACKed;
* **sender retransmission** -- up to ``max_repair`` retransmissions per
  frame, each re-crossing the faulty segment (and so itself subject to
  drop/corruption); a frame that exhausts its repair budget is lost to
  the link layer and surfaced to the host transport as ordinary loss;
* **in-order handoff** -- the receiver resequences: a frame cannot be
  handed to the next hop before every earlier frame on the wire, so a
  repair delays its successors (head-of-line at the resequencing
  buffer) rather than reordering them.

Determinism contract
--------------------

The entire repair trajectory of a frame -- every retransmission's coin
flip, the final delivery timestamp -- is computed **at the original
transmit instant**, in the per-direction TX FIFO order that is
identical between monolithic and sharded execution (the same argument
that makes :class:`~repro.workloads.wire.LinkFaults` mode-independent).
Retransmission draws therefore consume the direction's fault RNG in a
mode-independent order, and the computed delivery timestamp is simply
the capsule's ``arrival_ps``, scheduled at once when the far NIC shares
the process and shipped to its shard when not.  The cost of this choice is
a documented modelling simplification: a retransmission at ``t + 2
x prop`` meets the fault state (loss probabilities, outage flag) frozen
at ``t``, so flap edges bind at frame-transmit granularity.  Outages
are deliberately *not* repaired -- a dead cable is a failure class for
the host transport (and the fault-tolerance layer), not for sub-RTT
link repair.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.sim.clock import NS
from repro.sim.stats import Counter

#: Defaults, chosen so one repair costs ~2 wire round trips -- far
#: below the host transport's RTO (``8 x prop + 30 us``).
DEFAULT_HOLD_FRAMES = 64
DEFAULT_MAX_REPAIR = 4
#: Receiver-side detection delay for a *dropped* frame (the gap/aging
#: timer; corruption is CRC-detected with no extra delay).
DEFAULT_DETECT_PS = 1000 * NS
#: Receiver NACK processing + sender hold-buffer fetch turnaround.
DEFAULT_TURNAROUND_PS = 50 * NS
#: Extra delay after handoff before the coalesced ACK releases the
#: sender's hold-buffer slot.
DEFAULT_ACK_COALESCE_PS = 500 * NS


class LinkLayer:
    """Sub-RTT repair for one transmit direction of an external wire.

    Parameters
    ----------
    faults:
        The direction's :class:`~repro.workloads.wire.LinkFaults` gate;
        every (re)transmission attempt passes through it, consuming the
        same seeded coin flips in both execution modes.
    propagation_ps:
        One-way wire latency; a NACK round trip costs two of these.
    tracer, trace_ctx:
        Optional :class:`~repro.telemetry.tracer.PacketTracer` of the
        *transmitting* NIC plus a flow context for ``ll_nack`` /
        ``ll_retransmit`` / ``ll_handoff`` instants (mirroring the host
        transport's ``rel_*`` instants).
    """

    __slots__ = (
        "faults", "propagation_ps", "hold_frames", "max_repair",
        "detect_ps", "turnaround_ps", "ack_coalesce_ps",
        "_handoff_front_ps", "_releases", "occupancy_peak",
        "protected", "nacks", "retransmits", "repaired", "gave_up",
        "bypassed", "handoff_held", "_tracer", "_trace_ctx",
    )

    def __init__(
        self,
        faults,
        propagation_ps: int,
        *,
        hold_frames: int = DEFAULT_HOLD_FRAMES,
        max_repair: int = DEFAULT_MAX_REPAIR,
        detect_ps: int = DEFAULT_DETECT_PS,
        turnaround_ps: int = DEFAULT_TURNAROUND_PS,
        ack_coalesce_ps: int = DEFAULT_ACK_COALESCE_PS,
        tracer=None,
        trace_ctx=None,
    ):
        if hold_frames < 1:
            raise ValueError(f"hold_frames must be >= 1, got {hold_frames}")
        if max_repair < 1:
            raise ValueError(f"max_repair must be >= 1, got {max_repair}")
        if propagation_ps <= 0:
            raise ValueError(
                f"propagation must be positive, got {propagation_ps}"
            )
        self.faults = faults
        self.propagation_ps = propagation_ps
        self.hold_frames = hold_frames
        self.max_repair = max_repair
        self.detect_ps = detect_ps
        self.turnaround_ps = turnaround_ps
        self.ack_coalesce_ps = ack_coalesce_ps

        #: Receiver resequencing front: no frame hands off earlier.
        self._handoff_front_ps = 0
        #: Hold-buffer release times (min-heap), one entry per in-flight
        #: protected frame.
        self._releases: List[int] = []
        self.occupancy_peak = 0

        label = faults.label
        self.protected = Counter(f"{label}.ll_protected")
        self.nacks = Counter(f"{label}.ll_nacks")
        self.retransmits = Counter(f"{label}.ll_retransmits")
        self.repaired = Counter(f"{label}.ll_repaired")
        self.gave_up = Counter(f"{label}.ll_gave_up")
        self.bypassed = Counter(f"{label}.ll_bypassed")
        self.handoff_held = Counter(f"{label}.ll_handoff_held")
        self._tracer = tracer
        self._trace_ctx = trace_ctx

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------

    def transmit(self, data: bytes, now: int) -> Optional[Tuple[bytes, int]]:
        """Carry one frame across the protected segment.

        Returns ``(delivered_bytes, handoff_ps)`` -- the bytes the next
        hop receives and the instant the receiver's resequencer hands
        them over -- or ``None`` when the frame is lost despite repair
        (outage, repair budget exhausted, or an unlucky bypass).
        """
        faults = self.faults
        # Release hold-buffer slots whose coalesced ACK has arrived.
        releases = self._releases
        while releases and releases[0] <= now:
            heapq.heappop(releases)

        if len(releases) >= self.hold_frames:
            # Hold buffer full: pass through unprotected rather than
            # stall the wire.  The host transport still covers the frame.
            self.bypassed.add()
            out = faults.process(data)
            if out is None:
                return None
            return out, self._handoff(now + self.propagation_ps, held_ok=True)

        self.protected.add()
        attempt_tx = now
        for attempt in range(self.max_repair + 1):
            outcome, out = faults.judge(data)
            if outcome == "down":
                # Outage: not the link layer's job (see module docstring).
                return None
            if outcome == "ok":
                arrival = attempt_tx + self.propagation_ps
                handoff = self._handoff(arrival, held_ok=attempt == 0)
                if attempt:
                    self.repaired.add()
                    self._trace("ll_handoff", now, (
                        ("attempts", attempt + 1),
                        ("handoff_ps", handoff),
                        ("held_ps", handoff - arrival),
                    ))
                heapq.heappush(
                    releases,
                    handoff + self.propagation_ps + self.ack_coalesce_ps,
                )
                if len(releases) > self.occupancy_peak:
                    self.occupancy_peak = len(releases)
                return data, handoff
            # Lost or corrupted: the receiver NACKs (immediately on a CRC
            # failure, after the gap timer on a silent drop) and the
            # sender retransmits from the hold buffer.
            self.nacks.add()
            self._trace("ll_nack", now, (
                ("reason", outcome), ("attempt", attempt),
            ))
            detect = 0 if outcome == "corrupt" else self.detect_ps
            attempt_tx += 2 * self.propagation_ps + detect + self.turnaround_ps
            if attempt < self.max_repair:
                self.retransmits.add()
                self._trace("ll_retransmit", now, (("attempt", attempt + 1),))
        self.gave_up.add()
        return None

    def _handoff(self, arrival_ps: int, held_ok: bool) -> int:
        """In-order handoff: clamp to the resequencing front."""
        handoff = arrival_ps
        if handoff < self._handoff_front_ps:
            handoff = self._handoff_front_ps
            self.handoff_held.add()
            if held_ok:
                # A clean frame held behind an earlier repair -- the
                # head-of-line cost of in-order handoff, worth a span of
                # its own (repaired frames emit ll_handoff above).
                self._trace("ll_handoff", arrival_ps, (
                    ("attempts", 1),
                    ("handoff_ps", handoff),
                    ("held_ps", handoff - arrival_ps),
                ))
        self._handoff_front_ps = handoff
        return handoff

    def _trace(self, kind: str, now: int, args: Tuple) -> None:
        if self._tracer is not None:
            self._tracer.instant(self._trace_ctx, kind, self.faults.label,
                                 now, args)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Merged into the direction's wire stats under ``"linklayer"``."""
        return {
            "protected": self.protected.value,
            "nacks": self.nacks.value,
            "retransmits": self.retransmits.value,
            "repaired": self.repaired.value,
            "gave_up": self.gave_up.value,
            "bypassed": self.bypassed.value,
            "handoff_held": self.handoff_held.value,
            "occupancy_peak": self.occupancy_peak,
        }
