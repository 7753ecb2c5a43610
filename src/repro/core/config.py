"""Configuration for building a PANIC NIC."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.sim.clock import NS, US
from repro.telemetry.config import IntConfig, TelemetryConfig

#: Offload engines the builder knows how to instantiate.
KNOWN_OFFLOADS = (
    "ipsec",
    "compression",
    "kvcache",
    "rdma",
    "checksum",
    "regex",
    "ratelimit",
    "dcqcn",
    "ecnmark",
    "core",
)


def offload_base(name: str) -> str:
    """Engine type behind an instanced offload name (``"ipsec1"`` ->
    ``"ipsec"``): a trailing number distinguishes extra lanes of one
    type."""
    return name.rstrip("0123456789")


@dataclass
class PanicConfig:
    """The knobs of the reference PANIC NIC that some experiment turns.

    Defaults follow the paper's reference design point: a two-port NIC
    and a 4x4 mesh large enough for the section 3.2 example's engine
    set.  Constants nothing varies (100 Gbps MACs, the 500 MHz on-chip
    clock, 4 RX / 4 TX host queues, NoC credits, host memory base
    latency and software delay, packet buffer capacity) are the defaults
    of the components that own them; :class:`~repro.core.panic.PanicNic`
    names the one it overrides, the 128-bit mesh channel.
    """

    # External interfaces.
    ports: int = 2

    # On-chip network (Table 3 parameters).
    mesh_width: int = 4
    mesh_height: int = 4
    # Cut-through express flights over an otherwise empty NoC
    # (repro.noc.express).  Simulated timestamps, delivery order, and
    # quiesced statistics are identical with it off; its paired price on
    # each ledger workload is EXPERIMENTS.md E39's table.
    fast_path: bool = True
    # Flow-keyed RMT trajectory memo (repro.rmt.pipeline.TrajectoryMemo):
    # repeat flows skip the match machinery but re-execute every action.
    # Same equivalence contract as fast_path -- purely a simulator-speed
    # optimisation, invalidated on any table or register mutation.
    rmt_memo: bool = True

    # Heavyweight RMT pipeline (section 4.2: F * P pps).
    rmt_pipelines: int = 2
    rmt_chained_engines: int = 1
    #: Number of RMT engine tiles composing the heavyweight pipeline
    #: (Figure 3c draws four).  Tiles share one program/control plane;
    #: Ethernet ports are spread across them round-robin.
    rmt_tiles: int = 1

    # Host interface.
    coalesce_count: int = 8
    coalesce_timeout_ps: int = 10 * US
    host_mem_jitter_ps: int = 20 * NS

    # Which offload engines to instantiate, and their constructor kwargs.
    # A numeric suffix instantiates another lane of the same engine type
    # ("ipsec", "ipsec1" builds two IPSec engines), e.g. for failover
    # spares or parallel-lane scaling; params are keyed by the full name.
    offloads: Tuple[str, ...] = ("ipsec", "compression", "kvcache", "rdma")
    offload_params: Dict[str, dict] = field(default_factory=dict)

    # Engine scheduling queues (None = unbounded; see section 4.3) and
    # the lossless-overflow policy ("raise" or "backpressure", section 6).
    queue_capacity: Optional[int] = None
    overflow: str = "raise"

    # Payload transport over the NoC (section 6): "full" carries whole
    # frames between engines; "pointer" parks payloads in a shared
    # packet buffer and carries descriptors only.
    payload_mode: str = "full"
    pktbuf_ports: int = 2

    # RX integrity: verify IPv4/UDP checksums at classification and drop
    # corrupted frames with accounting (PanicNic.corrupt_drops) instead of
    # propagating them.  Off by default -- the checks cost pipeline work
    # and matter only when links can corrupt (see repro.faults).
    verify_checksums: bool = False

    # Optional explicit engine placement: engine key -> (x, y) tile.
    # Keys: "eth0"..., "rmt" ("rmt1"... for further tiles), "dma",
    # "pcie", and offload names; any other key is an error.  Engines
    # without an entry fall back to the default Figure-3c layout.  See
    # repro.noc.placement for optimizers that produce these maps.
    placement: Optional[Dict[str, Tuple[int, int]]] = None

    # Batched execution (repro.core.train): a trajectory train replays
    # one frame's whole path inside its RX-arrival event, over a
    # quiescent window.  Same equivalence contract as fast_path and
    # rmt_memo -- stats, timestamps, deliveries, and RNG draws are
    # bit-identical with it on or off; trains break up (refuse or hand
    # off to the scalar machinery) whenever contention, armed faults,
    # sampled telemetry, or a run()/shard window boundary could observe
    # an intermediate state.  None (default) builds a lane wherever a
    # train can board: not with pointer-mode payloads, tracing every
    # frame, or INT.  True insists, and refuses those three settings at
    # build time; False is the scalar oracle.
    batch_execution: Optional[bool] = None

    # In-sim telemetry (repro.telemetry): per-packet spans, from which
    # the exporter derives per-engine counter tracks.  None (default)
    # builds no telemetry at all; instrumented paths then pay only a
    # None check.  Observation-only either way -- stats() and
    # timestamps are bit-identical with it on or off.
    telemetry: Optional[TelemetryConfig] = None

    # In-band network telemetry (repro.telemetry.int_): the data plane
    # stamps per-hop records into frames; sinks emit flow postcards.
    # None (default) builds no INT agent.  Side-channel mode (the
    # IntConfig default) is observation-only; inband=True grows frames
    # with real trailer bytes, which *changes* wire timing (identically
    # between execution modes).
    int_: Optional[IntConfig] = None

    # Determinism.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ports < 1:
            raise ValueError(f"need at least one Ethernet port, got {self.ports}")
        if self.payload_mode not in ("full", "pointer"):
            raise ValueError(
                f"payload_mode must be 'full' or 'pointer', got "
                f"{self.payload_mode!r}"
            )
        unknown = [
            name for name in self.offloads
            if offload_base(name) not in KNOWN_OFFLOADS
        ]
        if unknown:
            raise ValueError(
                f"unknown offloads {unknown}; known: {KNOWN_OFFLOADS}"
            )
        if len(set(self.offloads)) != len(self.offloads):
            raise ValueError(f"duplicate offload names in {self.offloads}")
        if self.rmt_tiles < 1:
            raise ValueError(f"need at least one RMT tile, got {self.rmt_tiles}")
        stray = sorted(set(self.offload_params) - set(self.offloads))
        if stray:
            raise ValueError(
                f"offload_params for {stray}, which are not in offloads "
                f"{self.offloads}"
            )
        tile_keys = [
            *(f"eth{i}" for i in range(self.ports)),
            "rmt", *(f"rmt{k}" for k in range(1, self.rmt_tiles)),
            "dma", "pcie", *self.offloads,
        ]
        stray = sorted(set(self.placement or ()) - set(tile_keys))
        if stray:
            raise ValueError(
                f"placement for {stray}, which this NIC does not build; "
                f"valid keys: {tile_keys}"
            )
        tiles_needed = self.ports + 2 + self.rmt_tiles + len(self.offloads)
        if tiles_needed > self.mesh_width * self.mesh_height:
            raise ValueError(
                f"{tiles_needed} engines do not fit a "
                f"{self.mesh_width}x{self.mesh_height} mesh"
            )
        if self.batch_execution:
            blocker = self._train_blocker()
            if blocker is not None:
                # A lane that refuses every frame is a silent fallback
                # to scalar execution: name the setting that forbids it.
                raise ValueError(
                    f"batch_execution=True with {blocker}: no frame could "
                    f"ever ride a train; drop one of the two"
                )

    def _train_blocker(self) -> Optional[str]:
        """The setting under which no frame could ever board a train,
        or None."""
        if self.payload_mode == "pointer":
            return ("payload_mode='pointer' (the MAC parks every "
                    "payload before a frame could board)")
        if self.telemetry is not None and self.telemetry.sample_every == 1:
            return "telemetry.sample_every=1 (every frame is traced)"
        if self.int_ is not None:
            return "int_ (every Ethernet frame carries an INT stack)"
        return None

    @property
    def batched(self) -> bool:
        """Whether :class:`~repro.core.panic.PanicNic` builds a train
        lane: ``batch_execution`` when set, else wherever a train can
        board."""
        if self.batch_execution is None:
            return self._train_blocker() is None
        return self.batch_execution

    @property
    def tiles(self) -> int:
        return self.mesh_width * self.mesh_height
