"""Rack-scale multi-NIC workloads for the sharded execution layer.

Builds :class:`~repro.core.topology.RackTopology` descriptions whose NICs
are full PANIC instances driving traffic at each other over per-pair
cables -- the multi-node regimes SuperNIC and PsPIN evaluate, scaled to
N NICs on N cores by :mod:`repro.sim.shard`.

Patterns:

* ``"symmetric"`` -- every NIC streams to every other NIC, so each node
  is simultaneously an (N-1)-way incast receiver and an (N-1)-flow
  sender.  Load is perfectly balanced across shards, which is what the
  speedup benchmark wants.
* ``"fanin"`` -- classic incast: NICs 1..N-1 all stream at NIC 0.  The
  receiver shard dominates, demonstrating the protocol under imbalance.

Each directed flow ``src -> dst`` gets its own flow-identity class the
sender keys its TX route on to pick the egress cable, and the receiver
keys a per-source slack on so the on-NIC scheduler sees distinct
tenants.  Two encodings exist:

* ``flow_id="dscp"`` -- the historical 6-bit DSCP encoding
  (``route_dscp_tx``/``set_dscp_slack``), capped at 7 NICs.
* ``flow_id="tag"`` -- a VXLAN-style 16-bit tag leading the UDP payload
  of :data:`~repro.packet.headers.RACK_TAG_UDP_PORT` traffic, extracted
  by the parser's ``rack_tag`` state and steered by the ``tag_route`` /
  ``tag_slack`` tables (``route_tag_tx``/``set_tag_slack``).  Scales
  rack rows to :data:`MAX_TAG_RACK_NICS` NICs; the NIC's NoC mesh is
  automatically sized up to seat one MAC per peer.

``flow_id="auto"`` (the default) picks DSCP through 7 NICs for exact
backward compatibility and the tag beyond.

Frames carry an 8-byte sequence number plus the 2-byte source index in
the UDP payload (after the tag shim, in tag mode), so receivers can
attribute every delivery exactly -- the shard equivalence tests compare
these ``(src, seq, t, queue)`` tuples bit-for-bit between execution
modes.

Every rack workload -- this plain one, the reliable rack
(:mod:`repro.reliability.rack`) and the load-balanced rack
(:mod:`repro.lb.rack`) -- is the same :class:`RackNode` under the same
:func:`all_pairs_topology`; they differ only in the role attached to
each node.  Node builders are module-level and picklable by reference,
as the shard workers require.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.core.config import PanicConfig
from repro.core.panic import PanicNic
from repro.core.topology import LinkSpec, NicSpec, RackTopology
from repro.packet.builder import build_udp_frame
from repro.packet.headers import RACK_TAG_BYTES, RACK_TAG_UDP_PORT
from repro.sim.clock import US
from repro.sim.kernel import Simulator
from repro.workloads.wire import DEFAULT_PROPAGATION_PS

#: First DSCP class used for rack flows; flow (src, dst) on an N-NIC rack
#: uses ``RACK_DSCP_BASE + src * N + dst``.  DSCP is a 6-bit field, which
#: caps the all-pairs encoding at 7 NICs; larger racks carry the flow id
#: in the 16-bit payload tag instead (``flow_id="tag"``).
RACK_DSCP_BASE = 8
MAX_RACK_NICS = 7

#: First tag value used for rack flows (0 stays reserved/untagged); flow
#: (src, dst) uses ``RACK_TAG_BASE + src * N + dst``.  The 16-bit field
#: bounds all-pairs encodings at 255 NICs -- far past the mesh sizes a
#: single-host simulation can seat.
RACK_TAG_BASE = 8
MAX_TAG_RACK_NICS = 255

#: Accepted ``flow_id`` vocabulary.
FLOW_IDS = ("auto", "dscp", "tag")

#: UDP payload starts after Ethernet (14) + IPv4 (20) + UDP (8) headers.
_PAYLOAD_OFFSET = 42


def rack_port(local: int, peer: int) -> int:
    """The local Ethernet port cabled to ``peer`` in an all-pairs rack
    (each NIC has N-1 ports, one per other NIC, in peer-index order)."""
    return peer if peer < local else peer - 1


def flow_dscp(src: int, dst: int, n_nics: int) -> int:
    return RACK_DSCP_BASE + src * n_nics + dst


def flow_tag(src: int, dst: int, n_nics: int) -> int:
    return RACK_TAG_BASE + src * n_nics + dst


def resolve_flow_id(flow_id: str, nics: int) -> str:
    """Resolve ``"auto"`` to a concrete encoding and validate the cap."""
    if flow_id not in FLOW_IDS:
        raise ValueError(f"unknown flow_id {flow_id!r}; expected {FLOW_IDS}")
    if flow_id == "auto":
        flow_id = "dscp" if nics <= MAX_RACK_NICS else "tag"
    cap = MAX_RACK_NICS if flow_id == "dscp" else MAX_TAG_RACK_NICS
    if not 2 <= nics <= cap:
        raise ValueError(
            f"rack supports 2..{cap} NICs with {flow_id!r} flow identity, "
            f"got {nics}"
        )
    return flow_id


def rack_mesh_size(ports: int, offloads: int = 1, rmt_tiles: int = 1) -> int:
    """Smallest square NoC mesh seating ``ports`` MACs plus DMA, PCIe,
    the RMT tiles, and the offload lanes (never below the stock 4x4)."""
    needed = ports + 2 + rmt_tiles + offloads
    side = 4
    while side * side < needed:
        side += 1
    return side


#: Accepted traffic patterns.
PATTERNS = ("symmetric", "fanin")

#: Racks that run a periodic monitor (checksum-lane failover, the LB's
#: backend heartbeats) stop it at this instant so the event heap drains
#: -- the tick would otherwise keep ``sim.run()`` alive forever.
#: Comfortably past the chaos horizon (100 us) plus worst-case detection
#: latency (timeout + period).
DEFAULT_MONITOR_STOP_PS = 150 * US


def check_pattern(pattern: str) -> None:
    if pattern not in PATTERNS:
        raise ValueError(
            f"unknown rack pattern {pattern!r}; expected {PATTERNS}")


class RackNode:
    """One NIC of an all-pairs rack, before any role is attached.

    Builds the PANIC NIC (one port per peer, mesh sized to seat them,
    checksum lane, optionally a spare lane and checksum verification),
    resolves the flow-identity encoding, and installs per peer the TX
    route steering this node's flow class onto the peer's cable (via
    the checksum lane, so TX exercises an offload hop too) and the RX
    slack class that makes each remote sender a distinct tenant for the
    on-NIC scheduler.  Routes and slack cover ALL peers whatever the
    traffic pattern: ACKs flow against the data direction.

    A *role* is what a rack then attaches: scheduled senders and a
    recorder (:func:`build_rack_nic`), a reliable endpoint
    (:mod:`repro.reliability.rack`), VIP steering, a backend responder
    or a client flow (:mod:`repro.lb.rack`).  Roles build frames with
    :meth:`frame`, log host deliveries with :meth:`record`, and
    contribute report keys through :attr:`report_parts`.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        index: int,
        n_nics: int,
        seed: int = 0,
        telemetry=None,
        batch: bool = False,
        flow_id: str = "auto",
        int_=None,
        spare_checksum: bool = False,
        verify_checksums: bool = False,
    ):
        self.sim = sim
        self.index = index
        self.n_nics = n_nics
        self.tagged = resolve_flow_id(flow_id, n_nics) == "tag"
        offloads = (("checksum", "checksum1") if spare_checksum
                    else ("checksum",))
        mesh_side = rack_mesh_size(n_nics - 1, len(offloads))
        self.nic = nic = PanicNic(sim, PanicConfig(
            ports=n_nics - 1,
            offloads=offloads,
            seed=seed + index,
            telemetry=telemetry,
            batch_execution=batch,
            mesh_width=mesh_side,
            mesh_height=mesh_side,
            int_=int_,
            verify_checksums=verify_checksums,
        ), name=name)

        control = nic.control
        route, slack = (
            (control.route_tag_tx, control.set_tag_slack) if self.tagged
            else (control.route_dscp_tx, control.set_dscp_slack))
        self.peers = [peer for peer in range(n_nics) if peer != index]
        for peer in self.peers:
            route(self.flow(index, peer), chain=["checksum"],
                  egress_port=rack_port(index, peer))
            slack(self.flow(peer, index), (1 + peer) * 200 * US)

        #: Offset of the application payload in a received frame: past
        #: Ethernet + IPv4 + UDP and, in tag mode, the flow-tag shim.
        self.payload_offset = _PAYLOAD_OFFSET + (
            RACK_TAG_BYTES if self.tagged else 0)
        #: ``(src, seq, arrival_ps, queue)`` per host delivery.
        self.deliveries: List[tuple] = []
        #: Application payloads this node's role offered.
        self.sent = 0
        #: Callables returning extra report keys, one per attached role.
        self.report_parts: List[Callable[[], dict]] = []

    def flow(self, src: int, dst: int) -> int:
        """Flow-identity class of ``src -> dst`` (DSCP value or tag)."""
        return (flow_tag if self.tagged else flow_dscp)(
            src, dst, self.n_nics)

    def targets(self, pattern: str) -> List[int]:
        """The peers this node streams at under ``pattern``."""
        if pattern == "symmetric":
            return self.peers
        return [0] if self.index != 0 else []  # fanin: all stream at NIC 0

    def frame(self, dst: int, payload: bytes, *, dst_ip: str = "",
              identification: int = 0) -> bytes:
        """A UDP frame from this node to peer ``dst`` carrying this
        flow's identity class.  ``dst_ip`` overrides the peer's host
        address (the LB rack's clients address the VIP)."""
        flow = self.flow(self.index, dst)
        if self.tagged:
            payload = flow.to_bytes(2, "big") + payload
        return build_udp_frame(
            src_mac="02:00:00:00:00:%02x" % (self.index + 1),
            dst_mac="02:00:00:00:00:%02x" % (dst + 1),
            src_ip=f"10.0.{self.index}.1",
            dst_ip=dst_ip or f"10.0.{dst}.1",
            src_port=40000 + self.index,
            dst_port=RACK_TAG_UDP_PORT if self.tagged else 9000,
            payload=payload,
            dscp=0 if self.tagged else flow,
            identification=identification,
        )

    def record(self, src: int, seq: int, _payload: bytes = b"",
               queue: int = 0) -> None:
        """Log one host delivery; also the transports' ``on_deliver``."""
        self.deliveries.append((src, seq, self.sim.now, queue))

    def traffic_report(self) -> dict:
        """The report part of any role that sends or receives."""
        return {"deliveries": sorted(self.deliveries), "sent": self.sent}

    def report(self) -> dict:
        """The node's picklable result: ``stats`` (the NIC's stats
        tree), then whatever the attached roles contribute; with
        telemetry armed also ``trace`` (canonical span list) and
        ``trace_summary`` (ring-buffer accounting incl. dropped spans);
        with INT armed also ``int`` (the sink's sorted postcards)."""
        nic = self.nic
        rep = {"stats": nic.stats()}
        for part in self.report_parts:
            rep.update(part())
        if nic.telemetry is not None:
            rep["trace"] = nic.telemetry.trace_report()
            # seen/sampled/spans/dropped_spans are simulated-state
            # counters, so the ring-buffer overflow accounting is part
            # of the mono==sharded bit-identity contract.
            rep["trace_summary"] = nic.telemetry.summary()
        if nic.int_agent is not None:
            rep["int"] = nic.int_agent.postcards()
        return rep


def build_rack_nic(
    sim: Simulator,
    name: str,
    *,
    frames: int,
    gap_ps: int = 2 * US,
    payload_bytes: int = 256,
    pattern: str = "symmetric",
    **node_params,
) -> Tuple[PanicNic, Callable[[], dict]]:
    """Build one node of the plain rack: a :class:`RackNode`
    (``node_params`` are its keywords) whose role is scheduled senders
    plus a delivery recorder.

    Returns ``(nic, report)`` where ``report()`` yields a picklable dict:
    ``stats``, ``deliveries`` (sorted ``(src, seq, arrival_ps, queue)``
    tuples) and ``sent``, plus the telemetry keys of
    :meth:`RackNode.report`.
    """
    check_pattern(pattern)
    node = RackNode(sim, name, **node_params)
    nic, index, offset = node.nic, node.index, node.payload_offset

    def on_rx(packet, queue: int) -> None:
        payload = packet.data[offset:]
        node.record(int.from_bytes(payload[8:10], "big"),
                    int.from_bytes(payload[:8], "big"), queue=queue)

    nic.host.software_handler = on_rx

    pad = bytes(max(0, payload_bytes - 10 - (offset - _PAYLOAD_OFFSET)))
    source = index.to_bytes(2, "big")
    for dst in node.targets(pattern):
        for seq in range(frames):
            # Senders are aligned across the rack on purpose: every node
            # releases frame k at the same instant, producing the incast.
            sim.schedule_at(seq * gap_ps, nic.host.enqueue_tx, node.frame(
                dst, seq.to_bytes(8, "big") + source + pad,
                identification=seq & 0xFFFF))
            node.sent += 1
    node.report_parts.append(node.traffic_report)
    return nic, node.report


def all_pairs_topology(
    builder, nics: int, params: dict,
    propagation_ps: int = DEFAULT_PROPAGATION_PS,
) -> RackTopology:
    """``nics`` nodes built by ``builder(sim, name, index=, n_nics=,
    **params)``, every unordered pair joined by one full-duplex cable;
    the port numbering is :func:`rack_port` on both ends."""
    specs = [
        NicSpec(f"nic{i}", builder, {"index": i, "n_nics": nics, **params})
        for i in range(nics)
    ]
    links = [
        LinkSpec(
            f"nic{i}", f"nic{j}",
            port_a=rack_port(i, j),
            port_b=rack_port(j, i),
            propagation_ps=propagation_ps,
        )
        for i in range(nics)
        for j in range(i + 1, nics)
    ]
    return RackTopology(specs, links)


def rack_topology(
    nics: int = 4,
    pattern: str = "symmetric",
    frames: int = 40,
    gap_ps: int = 2 * US,
    payload_bytes: int = 256,
    propagation_ps: int = DEFAULT_PROPAGATION_PS,
    seed: int = 0,
    telemetry=None,
    batch: bool = False,
    flow_id: str = "auto",
    int_=None,
) -> RackTopology:
    """An all-pairs-cabled rack of ``nics`` PANIC NICs running the given
    traffic pattern.  ``flow_id`` picks the flow-identity encoding
    (module docstring): ``"dscp"`` caps the rack at 7 NICs, ``"tag"`` at
    255, ``"auto"`` switches at 8."""
    check_pattern(pattern)
    return all_pairs_topology(build_rack_nic, nics, {
        "frames": frames,
        "gap_ps": gap_ps,
        "payload_bytes": payload_bytes,
        "pattern": pattern,
        "seed": seed,
        "telemetry": telemetry,
        "batch": batch,
        "flow_id": resolve_flow_id(flow_id, nics),
        "int_": int_,
    }, propagation_ps)
