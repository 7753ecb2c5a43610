"""The rack workload rebuilt on reliable delivery.

Same node, cabling, DSCP flow encoding and traffic patterns as
:mod:`repro.workloads.rack`; the role attached to every node is a
*reliable endpoint*: a host transport (go-back-N or selective repeat)
all flows run through, on a NIC that verifies checksums so a
wire-corrupted frame dies at RMT classification (making corruption
indistinguishable from loss, which the transport already heals).  This
is the workload the chaos harness breaks.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.core.panic import PanicNic
from repro.core.topology import RackTopology
from repro.faults.monitor import attach_health_monitor
from repro.reliability.selective import SelectiveRepeatTransport
from repro.reliability.transport import (
    DEFAULT_WINDOW,
    ReliableTransport,
    TransportCore,
    default_rto_ps,
)
from repro.sim.clock import US
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRng
from repro.workloads.rack import (
    DEFAULT_MONITOR_STOP_PS,
    RackNode,
    all_pairs_topology,
    check_pattern,
    resolve_flow_id,
)
from repro.workloads.wire import DEFAULT_PROPAGATION_PS

#: Transport selection vocabulary: name -> recovery policy.
TRANSPORTS = {"gbn": ReliableTransport, "sr": SelectiveRepeatTransport}


def check_transport(transport: str, window: int) -> None:
    """Raise unless ``transport`` names a policy ``window`` suits."""
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; have {tuple(TRANSPORTS)}")
    TRANSPORTS[transport].check_window(window)


def attach_reliable_endpoint(
    node: RackNode,
    transport: str,
    *,
    rto_initial_ps: int,
    window: int,
    serve_as: Optional[int] = None,
    frame_builder: Optional[Callable[[int, bytes], bytes]] = None,
) -> TransportCore:
    """The reliable-endpoint role: run ``node``'s host traffic through
    ``transport``, recording in-order deliveries on the node and adding
    ``deliveries``/``sent``/``tx_flows``/``fct``/``failures`` (and
    ``rtt`` for selective repeat) to its report.  ``serve_as`` makes
    the endpoint also answer for a virtual index (direct server
    return); ``frame_builder`` replaces ``node.frame``."""
    check_transport(transport, window)
    proto = TRANSPORTS[transport](
        node.nic, node.index,
        frame_builder=frame_builder or node.frame,
        rng=SeededRng(node.nic.config.seed).fork("reliability"),
        rto_initial_ps=rto_initial_ps,
        window=window,
        on_deliver=node.record,
        accept_dst=None if serve_as is None else {serve_as},
        reply_as=serve_as,
    )

    def report_part() -> dict:
        rep = node.traffic_report()
        rep.update(tx_flows=proto.flow_report(), fct=proto.fct_report(),
                   failures=proto.failure_report())
        if hasattr(proto, "rtt_report"):
            rep["rtt"] = proto.rtt_report()
        return rep

    node.report_parts.append(report_part)
    return proto


def offer_flow(node: RackNode, proto: TransportCore, dst: int, *,
               frames: int, gap_ps: int, payload_bytes: int,
               start_ps: int = 0) -> None:
    """Schedule ``frames`` payloads of ``payload_bytes`` to ``dst``,
    ``gap_ps`` apart from ``start_ps``."""
    pad = bytes(max(0, payload_bytes))
    for seq in range(frames):
        node.sim.schedule_at(start_ps + seq * gap_ps, proto.send, dst, pad)
    node.sent += frames


def build_reliable_node(
    sim: Simulator,
    name: str,
    *,
    frames: int,
    gap_ps: int = 2 * US,
    payload_bytes: int = 256,
    pattern: str = "symmetric",
    window: int = DEFAULT_WINDOW,
    transport: str = "gbn",
    failover: bool = False,
    **node_params,
) -> Tuple[PanicNic, Callable[[], dict]]:
    """Build one node of the reliable rack (picklable by reference).

    ``transport`` selects the host protocol: ``"gbn"`` (go-back-N,
    fixed RTO) or ``"sr"`` (selective repeat with SACK and adaptive
    RTO).  With ``failover`` the NIC carries a spare checksum lane
    (``checksum1``), declares it the backup, and runs a
    :class:`~repro.faults.monitor.HealthMonitor` over the primary --
    so a chaos-crashed checksum engine costs a few microseconds of
    detection instead of the whole flow.  The monitor is stopped at
    :data:`~repro.workloads.rack.DEFAULT_MONITOR_STOP_PS`.

    Returns ``(nic, report)``; ``report()`` is the plain rack form
    (``stats``/``deliveries``/``sent``) plus ``tx_flows`` (per-flow
    ``sent``/``acked``/``failed`` accounting), ``fct`` (per-flow
    completion instants), and ``failures``
    (:class:`~repro.reliability.transport.DeliveryFailed` tuples).
    """
    check_pattern(pattern)
    node = RackNode(sim, name, flow_id="dscp", spare_checksum=failover,
                    verify_checksums=True, **node_params)
    nic = node.nic
    if failover:
        nic.set_backup("checksum", "checksum1")
        monitor = attach_health_monitor(nic, engines=("checksum",))
        monitor.start()
        sim.schedule_at(DEFAULT_MONITOR_STOP_PS, monitor.stop)
    proto = attach_reliable_endpoint(
        node, transport,
        rto_initial_ps=default_rto_ps(DEFAULT_PROPAGATION_PS), window=window)
    for dst in node.targets(pattern):
        offer_flow(node, proto, dst, frames=frames, gap_ps=gap_ps,
                   payload_bytes=payload_bytes - proto.HEADER_BYTES)
    return nic, node.report


def reliable_rack_topology(
    nics: int = 4,
    pattern: str = "symmetric",
    frames: int = 40,
    gap_ps: int = 2 * US,
    payload_bytes: int = 256,
    seed: int = 0,
    telemetry=None,
    window: int = DEFAULT_WINDOW,
    transport: str = "gbn",
    failover: bool = False,
) -> RackTopology:
    """An all-pairs-cabled rack whose flows run ``transport`` end to
    end (go-back-N by default, selective repeat with ``"sr"``)."""
    check_pattern(pattern)
    check_transport(transport, window)
    resolve_flow_id("dscp", nics)
    return all_pairs_topology(build_reliable_node, nics, {
        "frames": frames,
        "gap_ps": gap_ps,
        "payload_bytes": payload_bytes,
        "pattern": pattern,
        "seed": seed,
        "telemetry": telemetry,
        "window": window,
        "transport": transport,
        "failover": failover,
    })
