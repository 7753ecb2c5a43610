"""The reference RMT program for PANIC and its control-plane API.

The heavyweight pipeline's job (section 3.1.2): parse complex headers,
determine the chain of offloads for each message, load-balance across
descriptor queues, and compute slack times for the logical scheduler.

The program built here has these stages (tables):

1. ``ipsec_rx``      -- ESP packets get chain [ipsec]; after decryption
                        the packet re-enters the pipeline (second pass).
2. ``ipsec_tx``      -- LPM on TX destinations; no control-plane call
                        programs it, but every stage counts in the
                        tile's latency.
3. ``kv_route``      -- KV opcodes choose the cache/RDMA fast path.
4. ``tenant_route``  -- per-tenant custom offload chains.
5. ``tenant_slack``  -- per-tenant slack for the logical scheduler.
6. ``rx_steer``      -- RSS-style receive-queue selection.
7. ``default_route`` -- RX falls back to [dma]; TX to its egress port.

:class:`PanicControl` wraps table programming in intent-level calls used
by examples and benchmarks.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.host import QUEUES
from repro.packet.headers import IP_PROTO_ESP
from repro.packet.kv import KvOpcode
from repro.rmt.action import (
    WFQ_CELLS, WFQ_REGISTER, ActionContext, decode_chain, wfq_increment,
)
from repro.rmt.phv import Phv
from repro.rmt.pipeline import RmtProgram
from repro.rmt.table import MatchKey, MatchKind
from repro.sim.clock import US

#: meta.direction values as seeded by the RMT engine wrapper.
DIR_RX = b"rx"
DIR_TX = b"tx"

#: Slack applied when no tenant/DSCP policy matched (a lenient 1 ms).
DEFAULT_SLACK_PS = 1000 * US


def set_chain_if_empty(phv: Phv, ctx: ActionContext, *, chain: bytes) -> None:
    """Install ``chain`` (bytes made by ``RmtProgram.encode_chain``) only
    when no earlier stage chose one."""
    if not phv.get_or("meta.chain", b""):
        phv.set("meta.chain", chain)


def police(phv: Phv, ctx: ActionContext, *, slack_ps: int) -> None:
    """Worst-class traffic: maximal-slack deadline *and* droppable.

    Used for attack-class DSCPs so the logical scheduler sheds this
    traffic first under memory pressure (sections 4.3 and 6).
    """
    phv.set("meta.slack_deadline_ps", ctx.now_ps + slack_ps)
    phv.set("meta.droppable", 1)


def build_panic_program(
    *,
    dma_addr: int,
    port_addrs: Sequence[int],
) -> RmtProgram:
    """Construct the reference program (tables empty where control-plane
    entries are expected; defaults functional out of the box)."""
    program = RmtProgram("panic-reference")
    program.add_action("set_chain_if_empty", set_chain_if_empty)
    program.add_action("police", police)

    # Stage 1: ESP on receive -> decrypt first.
    program.add_table(
        "ipsec_rx",
        [MatchKey("meta.direction"), MatchKey("ipv4.proto")],
        requires="ipv4.proto",
    )
    # Stage 2: TX encryption by outer destination (LPM); left empty.
    program.add_table(
        "ipsec_tx",
        [MatchKey("meta.direction"), MatchKey("ipv4.dst", MatchKind.LPM)],
        requires="ipv4.dst",
    )
    # Stage 3: KV fast-path routing.
    program.add_table(
        "kv_route",
        [MatchKey("meta.direction"), MatchKey("kv.opcode")],
        requires="kv.opcode",
    )
    # Stage 4: per-tenant offload chains.
    program.add_table(
        "tenant_route",
        [MatchKey("meta.direction"), MatchKey("kv.tenant")],
        requires="kv.tenant",
    )
    # Stage 4b: DSCP-classified offload chains (non-KV traffic).
    program.add_table(
        "dscp_route",
        [MatchKey("meta.direction"), MatchKey("ipv4.dscp")],
        requires="ipv4.dscp",
    )
    # Stage 4c: L4-port-classified chains (control protocols like CNP).
    program.add_table(
        "port_route",
        [MatchKey("meta.direction"), MatchKey("udp.dst_port")],
        requires="udp.dst_port",
    )
    # Stage 4d: rack flow-tag classified chains.  The parser's rack_tag
    # state writes ``rack.tag`` for RACK_TAG_UDP_PORT traffic; tables
    # keyed on the 16-bit tag scale all-pairs flow identity past the
    # 6-bit DSCP ceiling (rack rows of 32-128+ NICs).
    program.add_table(
        "tag_route",
        [MatchKey("meta.direction"), MatchKey("rack.tag")],
        requires="rack.tag",
    )
    # Stage 4e: L4 load balancing (repro.lb).  ``vip_steer`` matches
    # packets addressed to a virtual IP and runs ``affinity_steer`` --
    # consistent-hash backend selection with Register-backed connection
    # affinity.  The dst key is ternary so the control plane can install
    # a new rule *epoch* at a higher priority before garbage-collecting
    # the masked old one (make-before-break, DESIGN.md section 17).
    program.add_table(
        "vip_steer",
        [MatchKey("meta.direction"), MatchKey("ipv4.dst", MatchKind.TERNARY)],
        requires="ipv4.dst",
    )
    # Stage 4f: chosen backend -> egress cable.  ``meta.lb_backend`` is
    # only written by a vip_steer hit, so this stage is skipped for all
    # other traffic (requires gating is live per stage).
    program.add_table(
        "lb_egress",
        [MatchKey("meta.lb_backend")],
        requires="meta.lb_backend",
    )
    # Stage 5: per-tenant slack (scheduler programming, section 3.1.3).
    program.add_table(
        "tenant_slack",
        [MatchKey("kv.tenant")],
        requires="kv.tenant",
    )
    # Stage 5b: slack for non-KV traffic, keyed on DSCP.
    # Misses in both slack tables leave the deadline unset; the decision
    # handler applies DEFAULT_SLACK_PS, so per-tenant entries are never
    # clobbered by a later stage's default action.
    program.add_table(
        "dscp_slack",
        [MatchKey("ipv4.dscp")],
        requires="ipv4.dscp",
    )
    # Stage 5c: slack keyed on the rack flow tag (same miss semantics).
    program.add_table(
        "tag_slack",
        [MatchKey("rack.tag")],
        requires="rack.tag",
    )
    # Stage 6: receive-queue steering (flow-stable hash).
    rx_steer = program.add_table(
        "rx_steer",
        [MatchKey("meta.direction")],
        requires="udp.src_port",
    )
    rx_steer.add(
        [DIR_RX],
        "hash_select",
        {
            "fields": ["ipv4.src", "udp.src_port"],
            "ways": QUEUES,
            "dst": "meta.rx_queue",
        },
    )
    # Stage 7: egress port selection for TX packets that know their port.
    egress_select = program.add_table(
        "egress_select",
        [MatchKey("meta.direction"), MatchKey("meta.egress_port")],
        requires="meta.egress_port",
    )
    for index, addr in enumerate(port_addrs):
        egress_select.add([DIR_TX, index], "set_chain_if_empty",
                          {"chain": program.encode_chain([addr])})
    # Stage 8: defaults -- RX ends at the DMA engine, TX at its port.
    default_route = program.add_table(
        "default_route",
        [MatchKey("meta.direction")],
    )
    default_route.add([DIR_RX], "set_chain_if_empty",
                      {"chain": program.encode_chain([dma_addr])})
    default_route.add([DIR_TX], "set_chain_if_empty",
                      {"chain": program.encode_chain([port_addrs[0]])})
    return program


class PanicControl:
    """Intent-level control plane over the reference program's tables.

    Engine addresses come from the NIC's placement; users call these
    methods with engine *names* and the control plane resolves them.
    """

    def __init__(self, program: RmtProgram, addr_of: Dict[str, int], dma_addr: int, port_addrs: Sequence[int]):
        self.program = program
        self._addr_of = dict(addr_of)
        self._dma_addr = dma_addr
        self._port_addrs = list(port_addrs)

    def addr(self, engine_name: str) -> int:
        try:
            return self._addr_of[engine_name]
        except KeyError:
            raise KeyError(
                f"unknown engine {engine_name!r}; have {sorted(self._addr_of)}"
            ) from None

    def port_addr(self, port: int) -> int:
        """NoC address of Ethernet port ``port`` (chain targets for
        forwarding decisions like the load balancer's backend cables)."""
        return self._port_addrs[port]

    def _route(self, table: str, direction: int, key: int, chain: Sequence,
               terminal_addr: Optional[int]) -> None:
        """Install ``chain`` (names or addresses) for ``key`` in a route
        table, ending at ``terminal_addr`` when there is one."""
        hops = [hop if isinstance(hop, int) else self.addr(hop)
                for hop in chain]
        if terminal_addr is not None:
            hops.append(terminal_addr)
        self.program.table(table).add(
            [direction, key], "set_chain",
            {"chain": self.program.encode_chain(hops)})

    # -- IPSec ----------------------------------------------------------

    def enable_ipsec_rx(self) -> None:
        """Decrypt inbound ESP before anything else (two-pass flow)."""
        ipsec = self.program.encode_chain([self.addr("ipsec")])
        self.program.table("ipsec_rx").add(
            [DIR_RX, IP_PROTO_ESP], "set_chain", {"chain": ipsec}
        )

    # -- KV fast path ----------------------------------------------------

    def route_kv_opcode(self, opcode: KvOpcode, chain: Sequence, append_dma: bool = True) -> None:
        """Send a KV opcode through ``chain`` (names or addresses)."""
        self._route("kv_route", DIR_RX, int(opcode), chain,
                    self._dma_addr if append_dma else None)

    def enable_kv_cache(self) -> None:
        """GET/SET/DELETE flow through the on-NIC cache (section 3.2)."""
        self.route_kv_opcode(KvOpcode.GET, ["kvcache"])
        self.route_kv_opcode(KvOpcode.SET, ["kvcache"])
        self.route_kv_opcode(KvOpcode.DELETE, ["kvcache"])

    # -- Tenant policy ----------------------------------------------------

    def route_tenant(self, tenant: int, chain: Sequence) -> None:
        """Send a tenant's RX traffic through ``chain``, then to DMA."""
        self._route("tenant_route", DIR_RX, tenant, chain, self._dma_addr)

    def route_dscp(self, dscp: int, chain: Sequence, append_dma: bool = True) -> None:
        """Send RX traffic of a DSCP class through ``chain``."""
        self._route("dscp_route", DIR_RX, dscp, chain,
                    self._dma_addr if append_dma else None)

    def route_dscp_tx(self, dscp: int, chain: Sequence = (),
                      egress_port: int = 0) -> None:
        """Send TX traffic of a DSCP class through ``chain`` and out
        ``egress_port``.  The default TX route always picks port 0, so
        multi-port NICs (rack fabrics cabling one port per peer) classify
        egress traffic by DSCP to pick the cable."""
        self._route("dscp_route", DIR_TX, dscp, chain,
                    self._port_addrs[egress_port])

    def route_tag_tx(self, tag: int, chain: Sequence = (),
                     egress_port: int = 0) -> None:
        """Send TX traffic of a rack flow tag through ``chain`` and out
        ``egress_port``; the tag-keyed twin of :meth:`route_dscp_tx`."""
        self._route("tag_route", DIR_TX, tag, chain,
                    self._port_addrs[egress_port])

    def route_udp_port(self, dst_port: int, chain: Sequence,
                       append_dma: bool = True) -> None:
        """Send RX traffic for a UDP destination port through ``chain``
        (e.g. steer CNP congestion notifications to the DCQCN engine)."""
        self._route("port_route", DIR_RX, dst_port, chain,
                    self._dma_addr if append_dma else None)

    def route_tenant_tx(self, tenant: int, chain: Sequence) -> None:
        """Send a tenant's *transmit* traffic through ``chain`` before it
        leaves on port 0 (e.g. a rate limiter)."""
        self._route("tenant_route", DIR_TX, tenant, chain,
                    self._port_addrs[0])

    def set_tenant_slack(self, tenant: int, slack_ps: int) -> None:
        """Program the logical scheduler's deadline for a tenant."""
        self.program.table("tenant_slack").add(
            [tenant], "set_slack", {"slack_ps": slack_ps}
        )

    def set_dscp_slack(self, dscp: int, slack_ps: int) -> None:
        self.program.table("dscp_slack").add(
            [dscp], "set_slack", {"slack_ps": slack_ps}
        )

    def set_tag_slack(self, tag: int, slack_ps: int) -> None:
        """Program the scheduler's deadline for a rack flow tag."""
        self.program.table("tag_slack").add(
            [tag], "set_slack", {"slack_ps": slack_ps}
        )

    def enable_wfq(self, weights: Dict[int, float],
                   cost_ps: int = 1000) -> None:
        """Weighted fair sharing across tenants, live in the pipeline.

        Each tenant gets a ``tenant_slack`` entry running the stock
        ``wfq_slack`` action with its increment
        (:func:`~repro.rmt.action.wfq_increment`), so every engine's PIFO
        serves backlogged tenants in proportion to their weights (section
        3.1.3's "share on-NIC resources according to some high-level
        policy").  The ``wfq_finish`` register is added on the first
        call; later calls only add entries, so calls compose.  A tenant
        already in ``tenant_slack`` raises
        :class:`~repro.rmt.table.TableError`; a bad weight or cost raises
        ``ValueError`` before anything is installed.
        """
        increments = {tenant: wfq_increment(cost_ps, weight)
                      for tenant, weight in weights.items()}
        if WFQ_REGISTER not in self.program.registers:
            self.program.add_register(WFQ_REGISTER, WFQ_CELLS)
        table = self.program.table("tenant_slack")
        for tenant, increment in increments.items():
            table.add([tenant], "wfq_slack", {"increment_ps": increment})

    def mark_dscp_droppable(self, dscp: int, slack_ps: int = 1_000_000 * US) -> None:
        """Classify a DSCP as lossy attack-class traffic: worst slack and
        the droppable flag, so bounded queues shed it first."""
        self.program.table("dscp_slack").add(
            [dscp], "police", {"slack_ps": slack_ps}
        )

    # -- Failover ---------------------------------------------------------

    def remap_engine(self, old_addr: int, new_addr: Optional[int]) -> int:
        """Rewrite every installed chain that routes through ``old_addr``.

        The failover path (section on fault tolerance in DESIGN.md): when
        an engine dies, the control plane recomputes offload chains around
        it by substituting the backup's address, or -- with
        ``new_addr=None`` -- removing the hop entirely so traffic skips
        the lost function instead of black-holing.  Returns the number of
        rewritten table entries.
        """
        changed = 0
        for stage in self.program.stages:
            for entry in stage.table.entries():
                chain = decode_chain(entry.params.get("chain", b""))
                if old_addr in chain:
                    entry.params["chain"] = self.program.encode_chain(
                        [new_addr if a == old_addr else a for a in chain
                         if a != old_addr or new_addr is not None])
                    changed += 1
        return changed


def panic_decision_factory(nic, program: RmtProgram):
    """Build the decision handler that turns PHVs into chain headers.

    Installed on every RMT tile of :class:`repro.core.panic.PanicNic`
    (the Fig. 2 baselines included), all running ``program``, whose
    ``chains`` hold every installed chain's hops, validated at install.
    """
    from repro.packet.builder import frame_checksums_ok
    from repro.packet.headers import HeaderError
    from repro.packet.packet import MessageKind
    from repro.packet.panic_hdr import PanicHeader

    chains = program.chains

    def decide(packet, phv):
        if packet.panic is not None and not packet.panic.exhausted:
            # Mid-chain revisit: the chain explicitly routed *through*
            # the heavyweight pipeline (section 3.1.2's "the RMT pipeline
            # includes itself as a nexthop in the chain"); continue the
            # existing chain rather than reclassifying from scratch.
            return [(packet, None)]
        if (
            nic.config.verify_checksums
            and packet.kind is MessageKind.ETHERNET
            and not frame_checksums_ok(packet.data)
        ):
            # Link corruption detected at the classification point: drop
            # with accounting instead of steering a mangled frame.
            nic.corrupt_drops += 1
            return []
        # Direct field-store reads: _fields never holds an invalid
        # sentinel, so dict.get with a default is exactly get_or
        # without the method-call tax on this per-frame path.
        fields = phv._fields
        if fields.get("meta.drop", 0):
            nic.rmt_drops += 1
            return []
        chain = chains[fields.get("meta.chain", b"")]  # set at install
        deadline = int(
            fields.get("meta.slack_deadline_ps",
                       nic.sim.now + DEFAULT_SLACK_PS)
        )
        if deadline < 0:
            raise HeaderError(f"negative slack: {deadline}")
        # Every field is valid by construction: skip re-validating.
        header = object.__new__(PanicHeader)
        header.chain = list(chain)
        header.cursor = 0
        header.slack_ps = deadline
        header.needs_rmt = bool(fields.get("meta.needs_rmt", 0))
        header.droppable = bool(fields.get("meta.droppable", 0))
        packet.panic = header
        meta = packet.meta
        value = fields.get("meta.rx_queue")
        if value is not None:
            meta.rx_queue = int(value)
        value = fields.get("kv.tenant")
        if value is None:
            value = fields.get("meta.tenant")
        if value is not None:
            meta.tenant = int(value)
        return [(packet, None)]

    return decide
