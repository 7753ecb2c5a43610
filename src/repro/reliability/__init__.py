"""End-to-end reliable delivery over lossy rack wires.

The paper puts PANIC under transports that survive loss (RDMA reliable
connections, DCQCN's loss-driven pacing); this package supplies the
minimal host-side version of that story so rack experiments keep their
delivery guarantees when :mod:`repro.faults.rack` makes the cables lie:

* :class:`TransportCore` -- what every host transport shares: per-flow
  state and sequence numbers, the window pump, the one timer-arming
  rule, bounded retries surfacing :class:`DeliveryFailed`, seeded
  jitter, RX demultiplexing and the reports.  Loss recovery is the
  swappable part, supplied by a subclass:
* :class:`ReliableTransport` -- go-back-N (cumulative ACKs, no receiver
  buffer, RTO with exponential backoff, whole window resent);
* :class:`SelectiveRepeatTransport` -- per-segment SACK blocks,
  out-of-order receiver buffering with in-order delivery, and an
  adaptive RTO from measured RTT (:class:`RttEstimator`, Karn's rule)
  in a finite wrapping sequence space;
* :mod:`repro.reliability.linklayer` -- LinkGuardian-style sub-RTT
  repair between adjacent hops, armed per wire via
  :meth:`repro.faults.plan.FaultPlan.link_local`, so most losses never
  reach the host timer at all;
* :mod:`repro.reliability.rack` -- the rack workload wired through
  either transport (``reliable_rack_topology``), the subject of the
  chaos harness;
* :mod:`repro.reliability.chaos` -- seeded random fault plans plus the
  invariant checks (``no committed loss``, ``no duplicates``,
  ``mono == sharded``, ``replay determinism``) behind ``python -m
  repro chaos``, running each seed under every requested config
  (``gbn`` / ``sr`` / ``gbn+ll`` / ``sr+ll`` / ``lb``).
"""

from repro.reliability.linklayer import LinkLayer
from repro.reliability.selective import (
    RttEstimator,
    SelectiveRepeatTransport,
    SEQ_SPACE,
    parse_sr_segment,
    seq_unwrap,
    seq_wrap,
)
from repro.reliability.transport import (
    ACK,
    DATA,
    DeliveryFailed,
    ReliableTransport,
    TransportCore,
    default_rto_ps,
    parse_segment,
)

__all__ = [
    "ACK",
    "DATA",
    "DeliveryFailed",
    "LinkLayer",
    "ReliableTransport",
    "RttEstimator",
    "SEQ_SPACE",
    "SelectiveRepeatTransport",
    "TransportCore",
    "default_rto_ps",
    "parse_segment",
    "parse_sr_segment",
    "seq_unwrap",
    "seq_wrap",
]
