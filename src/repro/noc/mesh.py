"""2D mesh construction and endpoint binding.

A :class:`Mesh` builds ``width x height`` routers, wires neighbouring
routers with a pair of opposed channels, and binds endpoints (engines) to
tiles.  Binding yields the tile's injection :class:`Channel`, the
endpoint's port: it has the endpoint's ``address`` and a ``send``.
Routers and channels are not kernel components; their names derive from
the mesh's name and their tiles.

Address scheme: the endpoint on tile ``(x, y)`` has NoC address
``y * width + x``.  Engine addresses therefore double as tile coordinates,
which is what the per-engine lightweight lookup tables store as next hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.noc.channel import STEPS, Channel
from repro.noc.express import ExpressFlight
from repro.noc.router import Endpoint, Router
from repro.packet.packet import Packet
from repro.sim.clock import MHZ, Clock
from repro.sim.kernel import Simulator


class MeshStuckError(RuntimeError):
    """The mesh quiesced with messages still buffered or queued.

    The message carries :meth:`Mesh.stuck_report`, naming the channels and
    routers holding traffic -- the starting point for diagnosing a credit
    leak or a wedged endpoint.
    """


@dataclass
class MeshConfig:
    """Parameters of the on-chip network.

    Defaults follow the paper's reference design point (section 4.2 and
    Table 3): 64-bit channels.  Every mesh clocks at 500 MHz.
    """

    width: int = 4
    height: int = 4
    channel_bits: int = 64
    credits: int = 8
    #: Enable cut-through express transfers over idle paths (see
    #: :mod:`repro.noc.express`).  Simulated timestamps, delivery order,
    #: and quiesced statistics are identical either way; disabling only
    #: forces every hop through the per-event slow path.
    fast_path: bool = True

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"mesh must be at least 1x1, got {self.width}x{self.height}")
        if self.channel_bits <= 0:
            raise ValueError(f"channel width must be positive: {self.channel_bits}")
        if self.credits <= 0:
            raise ValueError(f"credits must be positive: {self.credits}")

    @property
    def tiles(self) -> int:
        return self.width * self.height


class Mesh:
    """A ``width x height`` mesh of routers with bound endpoints."""

    def __init__(self, sim: Simulator, config: MeshConfig, name: str = "mesh"):
        self.sim = sim
        self.config = config
        self.name = name
        self.clock = Clock(500 * MHZ)
        self._routers: Dict[Tuple[int, int], Router] = {}
        self._endpoints: Dict[int, Endpoint] = {}
        self.channels: List[Channel] = []
        # Every channel shares one width and clock, hence one table of
        # serialization delays by message size.
        self._ser_cache: Dict[int, int] = {}
        #: Channels a fault was ever armed on: the only ones whose fault
        #: counters can be non-zero.
        self.fault_channels: List[Channel] = []
        # Messages sent and not yet delivered or dropped by a fault.
        self._inside = 0
        # One bound method for every channel to call (None: per-hop only).
        self._express_route = self._try_express if config.fast_path else None
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def coords_of(self, address: int) -> Tuple[int, int]:
        """Tile coordinates for a NoC address."""
        if not 0 <= address < self.config.tiles:
            raise ValueError(
                f"address {address} outside {self.config.width}x"
                f"{self.config.height} mesh"
            )
        return address % self.config.width, address // self.config.width

    def address_of(self, x: int, y: int) -> int:
        if not (0 <= x < self.config.width and 0 <= y < self.config.height):
            raise ValueError(f"tile ({x},{y}) outside mesh")
        return y * self.config.width + x

    def _build(self) -> None:
        cfg = self.config
        for y in range(cfg.height):
            for x in range(cfg.width):
                address = self.address_of(x, y)
                self._routers[(x, y)] = Router(x, y, address, self)
        # Wire neighbours with one channel per direction.
        for (x, y), router in self._routers.items():
            for direction, (dx, dy) in STEPS.items():
                nx, ny = x + dx, y + dy
                neighbour = self._routers.get((nx, ny))
                if neighbour is None:
                    continue
                channel = Channel(
                    self.sim,
                    direction,
                    cfg.channel_bits,
                    self.clock,
                    neighbour.on_deliver,
                    credits=cfg.credits,
                    on_drain=router.pump,
                    ser_cache=self._ser_cache,
                )
                router.attach_output(direction, channel)
                self._adopt(channel, neighbour)
        self._build_routes()

    def _adopt(self, channel: Channel, sink: Router) -> None:
        """Register a new channel delivering into ``sink``."""
        sink.register_input(channel)
        self.channels.append(channel)
        channel._sink = sink
        channel._mesh = self
        channel._express_route = self._express_route

    def _build_routes(self) -> None:
        """Render dimension-ordered routing into each router's static
        next-hop table: X first (east/west until the destination column),
        then Y, and None -- deliver locally -- on the destination tile.
        The forwarding path and the express route walk both read it."""
        width, height = self.config.width, self.config.height
        for (x, y), router in self._routers.items():
            out = router._out.get
            # One table row per mesh row of destinations: this tile's
            # own row, then the rows above and below it.
            here = [out("west")] * x + [None] + [out("east")] * (width - 1 - x)
            above, below = here.copy(), here.copy()
            above[x], below[x] = out("north"), out("south")
            router._next_hop = above * y + here + below * (height - 1 - y)

    # ------------------------------------------------------------------
    # Endpoint binding
    # ------------------------------------------------------------------

    def bind(self, endpoint: Endpoint, x: int, y: int) -> Channel:
        """Attach an endpoint to tile ``(x, y)`` and return its port:
        the tile's injection channel."""
        address = self.address_of(x, y)
        if address in self._endpoints:
            raise ValueError(f"tile ({x},{y}) already has an endpoint")
        router = self._routers[(x, y)]
        endpoint.address = address
        router.attach_endpoint(endpoint)
        # Endpoints that refuse messages when full (lossless backpressure)
        # use this to wake the router once space frees.
        endpoint.notify_space = router.pump
        self._endpoints[address] = endpoint
        inject = Channel(
            self.sim,
            "inj",
            self.config.channel_bits,
            self.clock,
            router.on_deliver,
            credits=self.config.credits,
            ser_cache=self._ser_cache,
        )
        self._adopt(inject, router)
        return inject

    # ------------------------------------------------------------------
    # Cut-through fast path (see repro.noc.express)
    # ------------------------------------------------------------------

    def _build_express_path(
        self, channel: Channel, dest: int
    ) -> Optional[Tuple[Tuple[Channel, ...], Tuple[Router, ...], Router, tuple]]:
        """Trace the static dimension-ordered route from ``channel`` to
        ``dest``, or None when express can never apply (single-hop routes
        save no events; unroutable destinations must raise on the slow
        path at their normal simulated time).  The result joins the
        channel's route cache, allocated here on first use."""
        if channel._express_paths is None:
            channel._express_paths = {}
        channel._express_paths[dest] = None
        router = channel._sink
        if not 0 <= dest < len(router._next_hop):
            return None
        channels = [channel]
        routers: List[Router] = []
        while True:
            out = router._next_hop[dest]
            if out is None:
                break
            routers.append(router)
            channels.append(out)
            router = out._sink
        if not routers:
            return None
        # Pair each forwarding router with its outgoing channel so the
        # per-message idle scan is one fused loop.
        checks = tuple(zip(routers, channels[1:]))
        path = tuple(channels), tuple(routers), router, checks
        channel._express_paths[dest] = path
        return path

    def _try_express(self, packet: Packet, channel: Channel) -> bool:
        """Attempt to cut a packet through an entirely idle route.

        Called by an idle channel's ``_start`` only while the packet is
        alone on the mesh (``_inside == 1``, which the channel tests
        first); when every channel ahead on the (cached, static)
        dimension-ordered route has a credit and no armed fault, the
        traversal collapses into a single :class:`ExpressFlight` delivery
        event.  Returns False to let the per-hop slow path proceed.  (On a
        mesh holding nothing else, no router or channel ahead can hold a
        message, a queue or a reservation.)
        """
        dest = packet.dest_addr
        paths = channel._express_paths
        if paths is not None and dest in paths:
            path = paths[dest]
        else:
            path = self._build_express_path(channel, dest)
        if path is None:
            return False
        channels, routers, final_router, checks = path
        for _router, out in checks:
            if out._credits <= 0 or out._faults is not None:
                return False
        bits = packet.bits
        # Every channel in a mesh shares one width and clock, so one
        # serialization delay covers every hop: hop i's window follows
        # arithmetically from (now, ser) inside the flight.
        ser = self._ser_cache.get(bits)
        if ser is None:
            ser = channel._serialization_ps(bits)
        ExpressFlight(self.sim, packet, channels, routers, final_router,
                      self.sim.now, ser)
        return True

    @property
    def express_in_flight(self) -> int:
        """Messages currently travelling as collapsed express flights."""
        flights = {
            ch._express_flight
            for ch in self.channels
            if ch._express_flight is not None
        }
        return len(flights)

    def unbound_tiles(self) -> List[Tuple[int, int]]:
        """Tiles with no endpoint attached (free for monitors, spares...)."""
        return [
            (x, y)
            for y in range(self.config.height)
            for x in range(self.config.width)
            if self.address_of(x, y) not in self._endpoints
        ]

    def channel(self, name: str) -> Channel:
        """Look up a channel by its full name (e.g. ``mesh.inj_0_0``)."""
        for channel in self.channels:
            if channel.name == name:
                return channel
        raise ValueError(f"no channel named {name!r} in {self.name}")

    @property
    def routers(self) -> List[Router]:
        return list(self._routers.values())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def buffered_messages(self) -> int:
        """Total messages buffered inside routers (for drain checks)."""
        return sum(router.buffered_messages for router in self._routers.values())

    @property
    def in_flight(self) -> int:
        """Messages buffered in routers or queued/serializing on channels,
        plus any collapsed express flights still travelling."""
        queued = sum(channel.queue_len for channel in self.channels)
        return self.buffered_messages + queued + self.express_in_flight

    @property
    def credit_deficit(self) -> int:
        """Total credits held downstream or leaked across all channels."""
        return sum(channel.credit_deficit for channel in self.channels)

    def stuck_report(self) -> str:
        """Name the channels and routers still holding traffic or credits.

        Used by :meth:`assert_drained` and the fault-injection harness: a
        quiesced mesh with ``in_flight != 0`` (or a credit deficit with no
        traffic) indicates a deadlock or leak, and this report points at
        the exact links involved instead of a bare count.
        """
        lines: List[str] = []
        for channel in self.channels:
            busy = channel._transfer_in_progress
            if channel.queue_len or busy or channel.credit_deficit:
                state = []
                if channel.queue_len:
                    state.append(f"{channel.queue_len} queued")
                if busy:
                    state.append("transfer in progress")
                if channel.credit_deficit:
                    state.append(
                        f"{channel.credit_deficit}/{channel.max_credits} "
                        "credits outstanding"
                    )
                if channel.leaked_credits:
                    state.append(f"{channel.leaked_credits} leaked")
                lines.append(f"  channel {channel.name}: {', '.join(state)}")
        for router in self._routers.values():
            if router.buffered_messages:
                lines.append(
                    f"  router {router.name}: {router.buffered_messages} "
                    "buffered messages"
                )
        express = self.express_in_flight
        if express:
            lines.append(f"  {express} express flight(s) awaiting delivery")
        if not lines:
            return f"{self.name}: fully drained"
        header = (
            f"{self.name}: {self.in_flight} messages in flight, "
            f"{self.credit_deficit} credits outstanding"
        )
        return "\n".join([header] + lines)

    def assert_drained(self) -> None:
        """Raise :class:`MeshStuckError` (with the stuck report) when
        messages remain buffered in routers or queued on channels."""
        if self.in_flight != 0:
            raise MeshStuckError(self.stuck_report())
