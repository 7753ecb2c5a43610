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
and slack deadline; the FlexNIC baseline installs a simpler queue-steering
handler.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.engines.base import Engine, EngineOutput
from repro.packet.packet import Packet
from repro.rmt.phv import Phv
from repro.rmt.pipeline import RmtPipeline, RmtProgram
from repro.sim.kernel import Simulator

#: Extra cycles charged for the parser and deparser surrounding the
#: match+action stages.
PARSER_CYCLES = 1
DEPARSER_CYCLES = 1

#: A decision handler: converts (packet, phv) into routed outputs.
DecisionHandler = Callable[[Packet, Phv], List[EngineOutput]]

#: Memoized ``enum.value.encode()`` results for intrinsic metadata.
_ENUM_BYTES: dict = {}

#: Shared intrinsic-metadata dicts keyed by (direction, kind, ingress,
#: egress, tenant).  Read-only by contract; bounded by wholesale
#: clearing.
_INTRINSIC_MEMO: dict = {}


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
        # The pipeline's depth in packets, for the ``busy_frac`` gauge.
        self.lanes = self.latency_ps // self.initiation_interval_ps
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
        if self.fault_mode is not None:
            return
        while not self.queue.is_empty:
            message, _rank = self.queue.pop()
            self._busy_lanes += 1
            interval_ps = self.initiation_interval_ps
            latency_ps = self.latency_ps
            if self.slowdown != 1.0:
                # An injected slowdown stretches the whole pipeline:
                # admissions come slower and each takes longer.
                interval_ps = int(interval_ps * self.slowdown)
                latency_ps = int(latency_ps * self.slowdown)
            start = max(self.now, self._next_accept_ps)
            self._next_accept_ps = start + interval_ps
            self.queue_latency.observe(message.enqueue_ps, self.now)
            ctx = message.packet.trace
            if ctx is not None:
                ctx.service_start = start
            finish = start + latency_ps
            self.schedule(finish - self.now, self._finish, message)

    def handle(self, packet: Packet) -> List[EngineOutput]:
        """One pass through the match+action program, then the decision."""
        phv = self.pipeline.process(
            packet.data,
            metadata=self._intrinsic_metadata(packet),
            now_ps=self.sim.now,
        )
        self.decisions += 1
        if self.decision_handler is None:
            raise RuntimeError(
                f"{self.name}: no decision handler installed; the NIC "
                "builder must provide one"
            )
        return self.decision_handler(packet, phv)

    def _intrinsic_metadata(self, packet: Packet) -> dict:
        meta = packet.meta
        key = (meta.direction, packet.kind, meta.ingress_port,
               meta.egress_port, meta.tenant)
        # The dict is a pure function of the key and is only ever read
        # (pipeline.process iterates it), so one shared instance per
        # distinct key serves every frame of a flow.
        cached = _INTRINSIC_MEMO.get(key)
        if cached is not None:
            return cached
        direction, kind, ingress, egress, tenant = key
        # The encoded enum values are constants; encode each once.
        encoded = _ENUM_BYTES.get(direction)
        if encoded is None:
            encoded = _ENUM_BYTES[direction] = direction.value.encode()
        fields = {"direction": encoded}
        encoded = _ENUM_BYTES.get(kind)
        if encoded is None:
            encoded = _ENUM_BYTES[kind] = kind.value.encode()
        fields["kind"] = encoded
        if ingress is not None:
            fields["ingress_port"] = ingress
        if egress is not None:
            fields["egress_port"] = egress
        if tenant is not None:
            fields["tenant"] = tenant
        if len(_INTRINSIC_MEMO) >= 512:
            _INTRINSIC_MEMO.clear()
        _INTRINSIC_MEMO[key] = fields
        return fields
