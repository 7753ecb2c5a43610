"""The load-balanced rack workload: clients, a VIP, backends.

Topology (all-pairs cabling, same as every other rack workload)::

    index 0                 -- the load balancer (owns the VIP)
    indices 1..n_backends   -- backends (serve the VIP, direct return)
    the rest                -- clients (one reliable flow each -> VIP)

A client addresses the *virtual* IP; the LB's ``vip_steer``/``lb_egress``
stages forward the frame -- unmodified, never touching the LB host --
out the cable to the backend its flow key owns.  The backend's reliable
transport accepts segments addressed to the virtual index
(``accept_dst``) and stamps ACKs with it (``reply_as``), replying
straight to the client over their direct cable: textbook direct server
return, so the LB carries only client->VIP traffic even at full incast.

Each client runs exactly one flow (one affinity entry) and starts at a
staggered offset, so a mid-run ``drain`` splits the clients into
affinity-pinned old flows (completing on the draining backend) and new
flows (hashed into the post-drain ring) -- the make-before-break epoch
protocol exercised end to end.

Every node is the shared :class:`~repro.workloads.rack.RackNode`; the
three roles here are what gets attached to it -- VIP steering plus the
backend monitor, a reliable endpoint serving the virtual index plus the
heartbeat responder, or a reliable endpoint driving one client flow.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.core.panic import PanicNic
from repro.core.topology import RackTopology
from repro.lb.monitor import BackendHealthMonitor, attach_heartbeat_responder
from repro.lb.steering import DEFAULT_AFFINITY_SLOTS, LbSteering
from repro.reliability.rack import (
    attach_reliable_endpoint,
    check_transport,
    offer_flow,
)
from repro.reliability.transport import DEFAULT_WINDOW, default_rto_ps
from repro.sim.clock import US
from repro.sim.kernel import Simulator
from repro.workloads.rack import (
    DEFAULT_MONITOR_STOP_PS,
    RackNode,
    all_pairs_topology,
    rack_port,
    resolve_flow_id,
)
from repro.workloads.wire import DEFAULT_PROPAGATION_PS

#: The virtual IP.  Deliberately outside every host's ``10.0.<i>.1``
#: range: traffic to a host's *real* IP (heartbeats, ACK echoes) must
#: fall through ``vip_steer`` to the normal DMA path.
DEFAULT_VIP_IP = "10.0.99.1"

#: The LB's rack index; also the virtual index clients send flows to.
VIP_INDEX = 0


def lb_layout(n_nics: int, n_backends: int) -> Tuple[Tuple[int, ...],
                                                     Tuple[int, ...]]:
    """``(backends, clients)`` index tuples for a layout."""
    if n_backends < 1:
        raise ValueError(f"need at least one backend, got {n_backends}")
    if n_nics < n_backends + 2:
        raise ValueError(
            f"{n_nics} NICs cannot seat an LB, {n_backends} backends, "
            f"and at least one client"
        )
    backends = tuple(range(1, 1 + n_backends))
    clients = tuple(range(1 + n_backends, n_nics))
    return backends, clients


def build_lb_node(
    sim: Simulator,
    name: str,
    *,
    n_backends: int,
    frames: int,
    gap_ps: int = 2 * US,
    stagger_ps: int = 10 * US,
    payload_bytes: int = 256,
    window: int = DEFAULT_WINDOW,
    transport: str = "gbn",
    slots: int = DEFAULT_AFFINITY_SLOTS,
    monitor_stop_ps: int = DEFAULT_MONITOR_STOP_PS,
    drain: Optional[Tuple[int, int]] = None,
    **node_params,
) -> Tuple[PanicNic, Callable[[], dict]]:
    """Build one node of the load-balanced rack (picklable by
    reference); its index decides the role attached.

    ``drain=(backend, at_ps)`` schedules a planned live drain on the LB
    node (ignored elsewhere).  Client ``c`` (zero-based among clients)
    starts its flow at ``c * stagger_ps``, sending ``frames`` payloads
    ``gap_ps`` apart to the VIP.

    Returns ``(nic, report)``.  Every report carries ``role``,
    ``index`` and ``stats``; the LB adds ``steering``/``monitor``,
    backends and clients the reliable-endpoint keys.
    """
    node = RackNode(sim, name, verify_checksums=True, **node_params)
    nic, index = node.nic, node.index
    backends, clients = lb_layout(node.n_nics, n_backends)
    role = ("lb" if index == VIP_INDEX
            else "backend" if index in backends else "client")
    node.report_parts.append(lambda: {"role": role, "index": index})

    def vip_frame(dst: int, segment: bytes) -> bytes:
        # ``dst == VIP_INDEX`` addresses the *virtual* IP; heartbeats
        # use ``node.frame`` to reach the LB's real host.
        return node.frame(dst, segment,
                          dst_ip=DEFAULT_VIP_IP if dst == VIP_INDEX else "")

    if role == "lb":
        steering = LbSteering(
            nic, DEFAULT_VIP_IP,
            {b: rack_port(index, b) for b in backends}, slots=slots,
        )
        monitor = BackendHealthMonitor(
            nic, index, steering, node.frame,
            payload_offset=node.payload_offset,
        )
        monitor.start()
        sim.schedule_at(monitor_stop_ps, monitor.stop)
        if drain is not None:
            backend, at_ps = drain
            sim.schedule_at(at_ps, steering.drain, backend)
        # Reclaim masked epochs once the experiment is quiescing -- the
        # "old rules are garbage-collected" end of make-before-break.
        sim.schedule_at(monitor_stop_ps, steering.gc)
        node.report_parts.append(lambda: {"steering": steering.report(),
                                          "monitor": monitor.report()})
        return nic, node.report

    serving = role == "backend"
    proto = attach_reliable_endpoint(
        node, transport,
        rto_initial_ps=default_rto_ps(2 * DEFAULT_PROPAGATION_PS),
        window=window,
        serve_as=VIP_INDEX if serving else None,
        frame_builder=vip_frame,
    )
    if serving:
        attach_heartbeat_responder(nic, index, node.frame,
                                   payload_offset=node.payload_offset)
    else:
        # The pad is payload_bytes - 16 whichever transport carries it.
        offer_flow(node, proto, VIP_INDEX, frames=frames, gap_ps=gap_ps,
                   payload_bytes=payload_bytes - 16,
                   start_ps=clients.index(index) * stagger_ps)
    return nic, node.report


def lb_rack_topology(
    nics: int = 7,
    n_backends: int = 3,
    frames: int = 30,
    gap_ps: int = 2 * US,
    stagger_ps: int = 10 * US,
    payload_bytes: int = 256,
    seed: int = 0,
    window: int = DEFAULT_WINDOW,
    transport: str = "gbn",
    flow_id: str = "auto",
    slots: int = DEFAULT_AFFINITY_SLOTS,
    monitor_stop_ps: int = DEFAULT_MONITOR_STOP_PS,
    drain: Optional[Tuple[int, int]] = None,
    telemetry=None,
) -> RackTopology:
    """An all-pairs rack serving a VIP: LB at index 0, ``n_backends``
    backends, the remaining NICs clients (module docstring);
    ``telemetry`` arms every node."""
    check_transport(transport, window)
    lb_layout(nics, n_backends)  # validate the shape up front
    return all_pairs_topology(build_lb_node, nics, {
        "n_backends": n_backends,
        "frames": frames,
        "gap_ps": gap_ps,
        "stagger_ps": stagger_ps,
        "payload_bytes": payload_bytes,
        "seed": seed,
        "window": window,
        "transport": transport,
        "flow_id": resolve_flow_id(flow_id, nics),
        "slots": slots,
        "monitor_stop_ps": monitor_stop_ps,
        "drain": drain,
        "telemetry": telemetry,
    })
