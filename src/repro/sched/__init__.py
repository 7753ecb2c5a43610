"""The logical scheduler: per-engine PIFO queues ranked by slack time.

Section 3.1.3 of the paper: every engine has a local scheduling queue; the
heavyweight RMT pipeline computes an end-to-end *slack time* per offload
in the chain and carries it in the message header; queues are priority
queues ordered by that slack.  "Although simple, this approach is able to
implement any arbitrary local scheduling algorithm" (citing Universal
Packet Scheduling).

This package provides the PIFO (push-in, first-out) queue used at every
engine plus the one stateful slack policy (weighted fair sharing).
"""

from repro.sched.pifo import PifoQueue, PifoFullError
from repro.sched.slack import (
    SlackPolicy,
    WeightedShareSlackPolicy,
)

__all__ = [
    "PifoFullError",
    "PifoQueue",
    "SlackPolicy",
    "WeightedShareSlackPolicy",
]
