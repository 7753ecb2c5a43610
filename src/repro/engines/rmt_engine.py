"""The heavyweight RMT pipeline as an engine tile (Figure 3b).

Timing follows section 4.2 exactly: a pipeline running at frequency ``F``
with ``P`` parallel pipelines processes ``F * P`` packets per second.  The
engine is *fully pipelined*: it accepts a new packet every ``1 / (F * P)``
seconds regardless of pipeline depth, and each packet's latency is the
stage count (parser + M+A stages + deparser) times the cycle time,
multiplied by the number of chained RMT engines.

The tile is otherwise an ordinary :class:`Engine`: only admission
(``_try_start``) and the work (``handle``) are the pipeline's own; the
queue, faults, tracing, heartbeat echo and output routing are
``Engine.receive`` / ``Engine._finish``, shared with every offload.

What happens to a processed packet is delegated to a ``decision_handler``
-- the PANIC core installs one that converts the PHV into a chain header
and slack deadline.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.engines.base import Engine, EngineOutput
from repro.packet.packet import Direction, MessageKind, Packet
from repro.rmt.parser import deparse
from repro.rmt.phv import Phv
from repro.rmt.pipeline import RmtPipeline, RmtProgram
from repro.sim.kernel import Simulator

#: Extra cycles charged for the parser and deparser surrounding the
#: match+action stages.
PARSER_CYCLES = 1
DEPARSER_CYCLES = 1

#: A decision handler: converts (packet, phv) into routed outputs.
DecisionHandler = Callable[[Packet, Phv], List[EngineOutput]]

#: The ``meta.direction`` / ``meta.kind`` bytes of every direction and
#: message kind, by enum value.  Keyed by the member's ``_value_`` string
#: so a lookup hashes a ``str``, not an enum (whose ``__hash__`` is
#: Python code).
_VALUE_BYTES = {member.value: member.value.encode()
                for member in (*Direction, *MessageKind)}


class RmtPipelineEngine(Engine):
    """The heavyweight RMT pipeline tile.

    Parameters
    ----------
    program:
        The match+action program to execute.
    pipelines:
        ``P`` -- parallel pipelines; throughput is ``F * P`` pps.
    chained_engines:
        How many RMT engine tiles are chained into this logical pipeline
        (section 3.1.2: "neighboring engines may ... be chained to form a
        longer pipeline"); multiplies latency and stage budget but not
        throughput.
    decision_handler:
        Interprets the resulting PHV; defaults to chain-header routing
        installed by the PANIC core.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        program: RmtProgram,
        pipelines: int = 1,
        chained_engines: int = 1,
        decision_handler: Optional[DecisionHandler] = None,
        memo: bool = False,
    ):
        super().__init__(sim, name)
        if pipelines < 1:
            raise ValueError(f"{name}: pipelines must be >= 1")
        if chained_engines < 1:
            raise ValueError(f"{name}: chained_engines must be >= 1")
        self.pipeline = RmtPipeline(program, memo=memo)
        self.pipelines = pipelines
        self.chained_engines = chained_engines
        self.decision_handler = decision_handler
        self._next_accept_ps = 0
        # Outputs are steered by the heavyweight tables: no lookup cycle.
        self._lookup_ps = 0
        self.decisions = 0

    # ------------------------------------------------------------------
    # Timing model
    # ------------------------------------------------------------------

    @property
    def initiation_interval_ps(self) -> int:
        """Time between packet admissions: one cycle shared by P pipelines."""
        return max(1, self.clock.period_ps // self.pipelines)

    @property
    def latency_ps(self) -> int:
        """End-to-end pipeline latency for one packet."""
        stages = (
            PARSER_CYCLES + self.pipeline.program.num_stages + DEPARSER_CYCLES
        ) * self.chained_engines
        return self.clock.cycles_to_ps(stages)

    @property
    def throughput_pps(self) -> float:
        """The paper's F*P packets-per-second figure."""
        return self.clock.freq_hz * self.pipelines

    # ------------------------------------------------------------------
    # Engine overrides: fully pipelined service
    # ------------------------------------------------------------------

    def _try_start(self) -> None:
        # Admit from the scheduling queue at the initiation interval; each
        # admitted packet completes `latency` later.  No lane blocking --
        # the pipeline is, well, a pipeline: ``_busy_lanes`` only counts
        # the packets inside it, for ``_finish`` to count back down.
        # Being the tile's own loop, it also keeps every arrival on the
        # queued path of ``Engine.receive`` (no idle admission).
        queue = self.queue
        if not queue._heap or self.fault_mode is not None:
            return
        now = self.sim.now
        while queue._heap:
            packet = queue.pop()[0]
            self._busy_lanes += 1
            interval_ps = self.initiation_interval_ps
            latency_ps = self.latency_ps
            if self.slowdown != 1.0:
                # An injected slowdown stretches the whole pipeline:
                # admissions come slower and each takes longer.
                interval_ps = int(interval_ps * self.slowdown)
                latency_ps = int(latency_ps * self.slowdown)
            start = self._next_accept_ps
            if start < now:
                start = now
            self._next_accept_ps = start + interval_ps
            self.queue_latency.record(now - packet.enqueue_ps)
            ctx = packet.trace
            if ctx is not None:
                ctx.service_start = start
            self.sim.schedule(start + latency_ps - now, self._finish, packet)

    def handle(self, packet: Packet) -> List[EngineOutput]:
        """One pass through the match+action program, then the decision."""
        # Intrinsic metadata goes straight into the PHV, under the names
        # the tables match, ahead of the parsed header fields.
        meta = packet.meta
        phv = Phv()
        fields = phv._fields
        fields["meta.direction"] = _VALUE_BYTES[meta.direction._value_]
        fields["meta.kind"] = _VALUE_BYTES[packet.kind._value_]
        if meta.ingress_port is not None:
            fields["meta.ingress_port"] = meta.ingress_port
        if meta.egress_port is not None:
            fields["meta.egress_port"] = meta.egress_port
        if meta.tenant is not None:
            fields["meta.tenant"] = meta.tenant
        self.pipeline.run(phv, packet.data, self.sim.now)
        if self.pipeline.program.writes_headers:  # no built-in one does
            data = deparse(packet.data, fields)
            if data is not packet.data:
                packet = packet.rewritten(data)
        self.decisions += 1
        if self.decision_handler is None:
            raise RuntimeError(
                f"{self.name}: no decision handler installed; the NIC "
                "builder must provide one"
            )
        return self.decision_handler(packet, phv)
