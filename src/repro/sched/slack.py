"""Slack-assignment policies.

The RMT pipeline stamps every message with an absolute deadline
(``arrival + slack``); engines dequeue in deadline order.  A policy
turns high-level intent into those deadlines -- section 3.1.3 notes that
computing slack to enforce a high-level policy is the interesting open
problem.  Constant per-tenant slack needs no policy object (it is a
``set_slack`` table entry); the one concrete policy here, weighted fair
sharing, carries state between packets and is installed by
:meth:`repro.core.pipeline_programs.PanicControl.enable_wfq`.
"""

from __future__ import annotations

from typing import Dict, Optional


class SlackPolicy:
    """Base class: maps (tenant, arrival time) to an absolute deadline."""

    def deadline_ps(self, tenant: Optional[int], now_ps: int) -> int:
        raise NotImplementedError


class WeightedShareSlackPolicy(SlackPolicy):
    """Approximate weighted fair sharing via virtual finish times.

    Each tenant accumulates a virtual time advanced by ``cost / weight``
    per message; the deadline is the tenant's virtual finish time.  This
    is the classic start-time fair queueing construction expressed as a
    slack policy (per Universal Packet Scheduling, a PIFO on virtual
    finish times realizes WFQ).  A tenant without a weight weighs 1.
    """

    def __init__(self, weights: Dict[int, float]):
        for tenant, weight in weights.items():
            if weight <= 0:
                raise ValueError(f"tenant {tenant} weight must be positive: {weight}")
        self.weights = dict(weights)
        self._virtual_finish: Dict[Optional[int], float] = {}

    def deadline_ps(
        self,
        tenant: Optional[int],
        now_ps: int,
        cost_ps: int = 1000,
    ) -> int:
        weight = self.weights.get(tenant, 1.0)
        start = max(self._virtual_finish.get(tenant, 0.0), float(now_ps))
        finish = start + cost_ps / weight
        self._virtual_finish[tenant] = finish
        return int(finish)
