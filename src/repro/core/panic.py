"""The PANIC NIC: engines + logical switch + logical scheduler (Figure 1).

:class:`PanicNic` assembles the complete architecture:

* a 2D mesh of routers (the unified on-chip network, section 3.1.2);
* Ethernet MAC engines on the west edge, DMA and PCIe engines on the
  east edge (the mesh's external interfaces, as in Figure 3c);
* one heavyweight RMT pipeline engine running the reference program of
  :mod:`repro.core.pipeline_programs`;
* the configured offload engines on the remaining tiles;
* per-engine lightweight lookup tables defaulting back to the RMT
  pipeline;
* a :class:`~repro.core.host.Host` model behind the DMA/PCIe engines.

Use :attr:`control` to program chains/slack, :meth:`inject` to offer
frames at a port, and :attr:`transmitted` to observe what leaves a
port with no cable (:meth:`attach_cable`): a cabled port keeps nothing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.config import PanicConfig, offload_base
from repro.core.host import Host
from repro.core.pipeline_programs import (
    PanicControl,
    build_panic_program,
    panic_decision_factory,
)
from repro.core.train import TrainLane
from repro.engines.base import Engine
from repro.engines.checksum_engine import ChecksumEngine
from repro.engines.compression import CompressionEngine
from repro.engines.dcqcn import DcqcnEngine, EcnMarkerEngine
from repro.engines.dma import DmaEngine
from repro.engines.ethernet import EthernetPort
from repro.engines.ipsec import IpsecEngine
from repro.engines.kvcache import KvCacheEngine
from repro.engines.orchestration import OrchestrationCore
from repro.engines.pcie import PcieEngine
from repro.engines.ratelimit import RateLimiterEngine
from repro.engines.rdma import RdmaEngine
from repro.engines.regex_engine import RegexEngine
from repro.engines.rmt_engine import RmtPipelineEngine
from repro.noc.mesh import Mesh, MeshConfig
from repro.noc.pktbuffer import PacketBuffer
from repro.packet.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRng

#: Mesh channel width of the reference NIC (Table 3); ``MeshConfig``'s
#: own default, 64, is for standalone meshes.
_CHANNEL_BITS = 128

#: Offload base name (``KNOWN_OFFLOADS``) -> the engine class built for it.
_OFFLOAD_ENGINES = {
    "ipsec": IpsecEngine,
    "compression": CompressionEngine,
    "kvcache": KvCacheEngine,
    "rdma": RdmaEngine,
    "checksum": ChecksumEngine,
    "regex": RegexEngine,
    "ratelimit": RateLimiterEngine,
    "dcqcn": DcqcnEngine,
    "ecnmark": EcnMarkerEngine,
    "core": OrchestrationCore,
}


class PanicNic:
    """A fully assembled PANIC NIC simulation."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[PanicConfig] = None,
        name: str = "panic",
    ):
        self.sim = sim
        self.config = config if config is not None else PanicConfig()
        self.name = name
        self.rng = SeededRng(self.config.seed)
        self.transmitted: List[Packet] = []
        self.tx_frames = 0  # on any port, cabled or not
        self._cables: List[Optional[Callable]] = [None] * self.config.ports
        self._tx_callbacks: List[Callable[[Packet], None]] = []
        self.rmt_drops = 0
        self.corrupt_drops = 0
        self.failovers = 0
        #: Whole-NIC power state (repro.faults NIC_DOWN/NIC_UP).  A dark
        #: NIC drops every arriving frame at ingress and vanishes every
        #: frame reaching a transmit MAC; engines keep running
        #: internally, exactly like a host whose links died.
        self.powered = True
        self.dark_rx_drops = 0
        self.dark_tx_drops = 0
        # Failover policy: primary engine key -> backup engine key, and
        # the set of engine keys already failed over.  An optional
        # HealthMonitor (repro.faults.monitor) drives detection.
        self._backups: Dict[str, str] = {}
        self.failed_engines: set = set()
        self.monitor = None

        self.mesh = Mesh(
            sim,
            MeshConfig(
                width=self.config.mesh_width,
                height=self.config.mesh_height,
                channel_bits=_CHANNEL_BITS,
                fast_path=self.config.fast_path,
            ),
            name=f"{name}.mesh",
        )
        self.host = Host(
            sim,
            name=f"{name}.host",
            mem_jitter_ps=self.config.host_mem_jitter_ps,
            rng=self.rng.fork("hostmem"),
        )
        self.payload_buffer: Optional[PacketBuffer] = None
        if self.config.payload_mode == "pointer":
            self.payload_buffer = PacketBuffer(
                sim,
                name=f"{name}.pktbuf",
                ports=self.config.pktbuf_ports,
            )
        self.engines: Dict[str, Engine] = {}
        self.ports: List[EthernetPort] = []
        self._build_engines()
        self._wire()
        self.telemetry = None
        if self.config.telemetry is not None:
            from repro.telemetry import Telemetry

            self.telemetry = Telemetry(self)
        #: In-band network telemetry agent (repro.telemetry.int_), a sink
        #: of each frame's trace context; None while INT is off.
        self.int_agent = None
        icfg = self.config.int_
        if icfg is not None:
            from repro.telemetry.int_ import IntAgent

            # The name's trailing integer ("rack1.nic2" -> 2), else 0.
            digits = name[len(name.rstrip("0123456789")):]
            self.int_agent = IntAgent(
                icfg, node_id=int(digits) if digits else 0,
                rmt_names=[tile.name for tile in self.rmt_tiles])
        # A frame a tile builds itself is offered to the observers where
        # it is built, every other frame at inject.
        born = None
        if self.telemetry is not None:
            born = self._frame_born
        elif self.int_agent is not None:
            # INT alone: the agent's own hook, one call per birth.
            born = self.int_agent.born
        if born is not None:
            for engine in self.engines.values():
                if isinstance(engine, (DmaEngine, KvCacheEngine, RdmaEngine)):
                    engine._frame_born = born
        #: Batched-execution driver (repro.core.train), built unless
        #: ``config.batched`` says no frame may board; None keeps every
        #: hook on the scalar path at the cost of one attribute check.
        self.train_lane = None
        if self.config.batched:
            self.train_lane = TrainLane(self)
            for eth in self.ports:
                eth._train_lane = self.train_lane
        #: Host-side reliable transport, when the workload attaches one
        #: (see :mod:`repro.reliability`); surfaces in ``stats()``.
        self.transport = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _tile_iter(self):
        for y in range(self.config.mesh_height):
            for x in range(self.config.mesh_width):
                yield (x, y)

    def _build_engines(self) -> None:
        cfg = self.config
        used: set = set()
        overrides = dict(cfg.placement or {})

        def place(engine: Engine, key: str, x: int, y: int) -> None:
            x, y = overrides.get(key, (x, y))
            port = self.mesh.bind(engine, x, y)
            engine.bind_port(port)
            self.engines[key] = engine
            used.add((x, y))

        # Ethernet MACs down the west edge (Figure 3c), spilling into the
        # next column on big-radix configs (rack rows cable one port per
        # peer, quickly outgrowing one column).  The east-edge tiles
        # reserved below for DMA/PCIe are never handed out, and configs
        # with ports <= mesh_height keep their historical column-0 spots.
        # A user override colliding with an auto-placed MAC raises at
        # bind time, the same conflict detection as always.
        reserved_east = {
            (cfg.mesh_width - 1, 0),
            (cfg.mesh_width - 1, 1 % cfg.mesh_height),
        }
        eth_tiles = (
            t for t in ((x, y) for x in range(cfg.mesh_width)
                        for y in range(cfg.mesh_height))
            if t not in used and t not in reserved_east
        )
        for i in range(cfg.ports):
            mac = EthernetPort(
                self.sim,
                f"{self.name}.eth{i}",
                port_index=i,
                on_transmit=self._on_transmit,
            )
            x, y = overrides.get(f"eth{i}") or next(eth_tiles)
            place(mac, f"eth{i}", x, y)
            self.ports.append(mac)

        # DMA and PCIe engines on the east edge.
        east = cfg.mesh_width - 1
        self.dma = DmaEngine(
            self.sim,
            f"{self.name}.dma",
            queue_capacity=cfg.queue_capacity,
            overflow=cfg.overflow,
        )
        place(self.dma, "dma", east, 0)
        self.pcie = PcieEngine(
            self.sim,
            f"{self.name}.pcie",
            coalesce_count=cfg.coalesce_count,
            coalesce_timeout_ps=cfg.coalesce_timeout_ps,
        )
        place(self.pcie, "pcie", east, 1 % cfg.mesh_height)

        # Heavyweight RMT pipeline tiles near the middle (Figure 3c).
        # All tiles execute the same program, so there is one control
        # plane; Ethernet ports spread across the tiles round-robin.
        port_addrs = [self.engines[f"eth{i}"].address for i in range(cfg.ports)]
        program = build_panic_program(
            dma_addr=self.dma.address,
            port_addrs=port_addrs,
        )
        decision = panic_decision_factory(self, program)
        self.rmt_tiles: List[RmtPipelineEngine] = []
        # Candidate tiles for the pipeline, central columns first.
        rmt_candidates = sorted(
            (t for t in self._tile_iter()
             if t not in used and t not in overrides.values()),
            key=lambda t: (abs(t[0] - 1), t[1]),
        )
        for tile_index in range(cfg.rmt_tiles):
            rmt_x, rmt_y = rmt_candidates.pop(0)
            suffix = "" if tile_index == 0 else str(tile_index)
            engine = RmtPipelineEngine(
                self.sim,
                f"{self.name}.rmt{suffix}",
                program,
                pipelines=cfg.rmt_pipelines,
                chained_engines=cfg.rmt_chained_engines,
                memo=cfg.rmt_memo,
            )
            place(engine, f"rmt{suffix}", rmt_x, rmt_y)
            engine.decision_handler = decision
            self.rmt_tiles.append(engine)
        self.rmt = self.rmt_tiles[0]

        # Offload engines on the remaining tiles.
        common = dict(
            queue_capacity=cfg.queue_capacity,
            overflow=cfg.overflow,
        )
        reserved = set(overrides.values())
        tiles = (t for t in self._tile_iter()
                 if t not in used and t not in reserved)
        for offload_name in cfg.offloads:
            x, y = overrides.get(offload_name) or next(tiles)
            params = cfg.offload_params.get(offload_name, {})
            engine = _OFFLOAD_ENGINES[offload_base(offload_name)](
                self.sim, f"{self.name}.{offload_name}", **common, **params)
            place(engine, offload_name, x, y)

        self.control = PanicControl(
            program,
            {key: engine.address for key, engine in self.engines.items()},
            dma_addr=self.dma.address,
            port_addrs=port_addrs,
        )

    def _wire(self) -> None:
        rmt_addr = self.rmt.address
        for key, engine in self.engines.items():
            if engine in self.rmt_tiles:
                continue
            engine.lookup_table.default_next = rmt_addr
        # Spread ingress classification across the RMT tiles (Fig. 3c:
        # multiple RMT engines compose the heavyweight pipeline).
        for index, mac in enumerate(self.ports):
            tile = self.rmt_tiles[index % len(self.rmt_tiles)]
            mac.lookup_table.default_next = tile.address
        # Ethernet ports transmit when a chain ends there, so their
        # default only applies to fresh RX frames -- which is exactly the
        # RMT pipeline.  (handle() separates the two cases.)
        self.dma.pcie_addr = self.pcie.address
        self.dma.attach_host(self.host)
        self.pcie.dma_addr = self.dma.address
        self.pcie.attach_host(self.host)
        self.host.pcie = self.pcie
        rdma = self.engines.get("rdma")
        if rdma is not None:
            rdma.dma_addr = self.dma.address
        if self.payload_buffer is not None:
            for engine in self.engines.values():
                engine.payload_buffer = self.payload_buffer
        dcqcn = self.engines.get("dcqcn")
        if dcqcn is not None and "ratelimit" in self.engines:
            dcqcn.attach_limiter(self.engines["ratelimit"])
        ecnmark = self.engines.get("ecnmark")
        if ecnmark is not None:
            # By default the marker watches the DMA engine's queue --
            # the congestion point on the receive path.
            ecnmark.watch_engine = self.dma

    def _on_transmit(self, packet: Packet) -> None:
        if not self.powered:
            # Dark at the MAC: the frame serialized internally but never
            # makes it onto the wire.
            self.dark_tx_drops += 1
            return
        self.tx_frames += 1
        ctx = packet.trace
        if ctx is not None and ctx.tracer is not None:
            port = packet.meta.egress_port
            ctx.tracer.instant(ctx, "egress", f"{self.name}.eth{port}",
                               self.sim.now, (("egress_port", port),))
        for callback in self._tx_callbacks:
            callback(packet)
        cable = self._cables[packet.meta.egress_port]
        if cable is None:
            self.transmitted.append(packet)
        else:
            cable(packet)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def offload(self, name: str) -> Engine:
        """Look up an engine by its short name (e.g. ``"ipsec"``)."""
        try:
            return self.engines[name]
        except KeyError:
            raise KeyError(
                f"no engine {name!r}; have {sorted(self.engines)}"
            ) from None

    def inject(self, packet: Packet, port: int = 0) -> int:
        """Offer a frame at an Ethernet port; returns wire-arrival time."""
        if not 0 <= port < len(self.ports):
            raise ValueError(f"no port {port}; NIC has {len(self.ports)}")
        if not self.powered:
            self.dark_rx_drops += 1
            return self.sim.now
        packet.meta.created_ps = packet.meta.created_ps or self.sim.now
        if self.telemetry is not None:
            # Sampling decision at the NIC boundary, in arrival order:
            # wire and shard-boundary deliveries both funnel through
            # inject, so the sampled set is execution-mode independent.
            self.telemetry.tracer.maybe_trace(packet, self.sim.now, port)
        if self.int_agent is not None:
            # This hop starts: the frame's context takes the carried
            # stack before the frame pays RX serialization.
            self.int_agent.on_inject(packet)
        return self.ports[port].inject_rx(packet)

    def _frame_born(self, packet: Packet, tile: str) -> None:
        """The birth hook while telemetry is on: the tracer samples a
        frame ``tile`` built, then INT adopts its context, in inject's
        order."""
        self.telemetry.tracer.maybe_trace(packet, self.sim.now, tile=tile)
        if self.int_agent is not None:
            self.int_agent.born(packet, tile)

    def on_transmit(self, callback: Callable[[Packet], None]) -> None:
        """Register an egress observer."""
        self._tx_callbacks.append(callback)

    def attach_cable(self, port: int, deliver: Callable) -> None:
        """Hand every frame Ethernet ``port`` transmits to ``deliver``."""
        if not 0 <= port < len(self._cables):
            raise ValueError(f"{self.name}: no port {port}")
        if self._cables[port] is not None:
            raise ValueError(f"{self.name}: port {port} is already cabled")
        self._cables[port] = deliver

    def set_power(self, on: bool) -> None:
        """Turn the NIC's external-facing MACs on or off.

        Off is *dark*, not *dead*: internal engines, timers, and the
        host keep running, but nothing crosses the Ethernet boundary in
        either direction (with ``dark_rx_drops``/``dark_tx_drops``
        accounting).  This is what a crashed backend looks like to the
        rest of the rack -- the failure the load balancer's health
        monitor detects.  Driven by ``FaultPlan.nic_down``/``nic_up``.
        """
        self.powered = bool(on)

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------

    def set_backup(self, primary: str, backup: str) -> None:
        """Declare ``backup`` as the failover target for ``primary``.

        On :meth:`handle_engine_failure` the control plane re-steers
        every chain through the backup engine instead.
        """
        self.offload(primary)
        self.offload(backup)
        self._backups[primary] = backup

    def handle_engine_failure(self, key: str) -> Optional[str]:
        """Recover from a failed engine by recomputing routes around it.

        Rewrites per-engine :class:`LocalLookupTable` default routes and the RMT
        program's offload chains to point at the configured backup, or to
        skip the hop entirely when no backup exists.  Idempotent per
        engine.  Returns the backup key used (None when the hop was
        removed instead).
        """
        failed = self.offload(key)
        if key in self.failed_engines:
            return self._backups.get(key)
        self.failed_engines.add(key)
        backup_key = self._backups.get(key)
        backup_addr: Optional[int] = None
        if backup_key is not None:
            backup_addr = self.offload(backup_key).address
        old_addr = failed.address
        for other in self.engines.values():
            if other is failed:
                continue
            other.lookup_table.remap(old_addr, backup_addr)
        self.control.remap_engine(old_addr, backup_addr)
        self.failovers += 1
        return backup_key

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Aggregate per-engine statistics for reporting."""
        out: Dict[str, Dict[str, float]] = {}
        for key, engine in self.engines.items():
            entry = {
                "processed": engine.processed,
                "backlog": engine.backlog,
                "queue_max": engine.queue.max_occupancy,
                "dropped": engine.queue.dropped,
            }
            if engine.queue_latency.count:
                entry["queue_latency_ns_p99"] = engine.queue_latency.percentile_ns(99)
            if engine.blackholed:
                entry["blackholed"] = engine.blackholed
            if engine.queue.rank_corruptions:
                entry["rank_corruptions"] = engine.queue.rank_corruptions
            out[key] = entry
        out["host"] = {
            "rx_delivered": self.host.rx_delivered,
            "interrupts": self.host.interrupts_taken,
            "mem_reads": self.host.mem_reads,
        }
        out["nic"] = {
            "transmitted": self.tx_frames,
            "rmt_drops": self.rmt_drops,
        }
        faults: Dict[str, float] = {
            "corrupt_drops": self.corrupt_drops,
            "failovers": self.failovers,
            "failed_engines": len(self.failed_engines),
            "dark_rx_drops": self.dark_rx_drops,
            "dark_tx_drops": self.dark_tx_drops,
            "blackholed": sum(
                e.blackholed for e in self.engines.values()
            ),
            "link_corruptions": sum(
                ch.corrupted for ch in self.mesh.fault_channels
            ),
            "link_drops": sum(
                ch.dropped_flits for ch in self.mesh.fault_channels
            ),
            "leaked_credits": sum(
                ch.leaked_credits for ch in self.mesh.fault_channels
            ),
            "pifo_rank_corruptions": sum(
                e.queue.rank_corruptions for e in self.engines.values()
            ),
        }
        if self.monitor is not None:
            faults.update(self.monitor.stats())
        out["faults"] = faults
        if self.transport is not None:
            out["reliability"] = self.transport.stats()
        if self.int_agent is not None:
            out["int"] = self.int_agent.summary()
        return out
