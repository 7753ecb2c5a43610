"""The load balancer's control plane: rule epochs over ``vip_steer``.

One :class:`LbSteering` owns a NIC's VIP: it declares the affinity
registers, installs the per-backend ``lb_egress`` chains, and manages
the versioned ``vip_steer`` entries that bind the VIP to a consistent
ring snapshot.

Reprogramming is **make-before-break**: every backend-set change bumps
the epoch and installs the new entry -- priority equal to the epoch, so
it immediately masks every older entry -- *before* anything is removed.
There is never an instant with no matching rule, so no packet can fall
through to the default DMA route mid-update.  Masked entries linger
until :meth:`gc`, which is safe at any time because they can no longer
match first.

Established flows never move: ``affinity_steer`` consults the register
table before the ring, and entries inserted under an old epoch keep
returning their pinned backend whatever the current ring says.  A
*drain* therefore only redirects flows that first appear after it; a
*fail* additionally strands the dead backend's pinned flows, which the
client transports abort after bounded retries (the rack-level
accounting invariant still closes: ``sent == acked + failed``).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.pipeline_programs import DIR_RX
from repro.lb.ring import HashRing
from repro.packet.addresses import IPv4Address
from repro.rmt.action import (
    LB_STAT_BYPASS,
    LB_STAT_EVICTIONS,
    LB_STAT_HITS,
    LB_STAT_INSERTS,
    LB_STAT_STEERED,
    LB_STAT_CELLS,
)
from repro.rmt.table import ternary_match
from repro.sim.clock import MS

#: Affinity table capacity.  Direct-indexed (no chaining): a live slot
#: collision falls back to ring-only steering, so size generously for
#: the experiment's concurrent-flow count (tests assert the shipped
#: rack shapes are collision-free).
DEFAULT_AFFINITY_SLOTS = 256

#: Idle eviction horizon.  Must exceed the worst-case retransmission
#: backoff of the transports using the VIP, or a retransmit could
#: re-insert a flow under a newer epoch (an affinity violation).
IDLE_PS = 4 * MS

#: Fields identifying a connection.  The rack workloads give every
#: client one UDP source port, so (source IP, source port) is exactly
#: one affinity entry per client flow.
AFFINITY_FIELDS = ("ipv4.src", "udp.src_port")


class LbSteering:
    """Control plane for one VIP on one NIC's RMT program.

    Parameters
    ----------
    nic:
        The :class:`~repro.core.panic.PanicNic` whose pipeline hosts the
        balancer.
    vip:
        The virtual IP (dotted quad or int).  Must differ from the LB
        host's own IP, or host-terminated traffic (heartbeat echoes,
        management) would be steered to backends.
    backend_ports:
        ``{backend_id: ethernet_port}`` -- every backend the VIP can
        ever use, with the LB-local port cabled to it.  ``lb_egress``
        entries are installed for all of them up front; the *live* set
        (initially all) shrinks via :meth:`drain`/:meth:`fail`.
    """

    def __init__(
        self,
        nic,
        vip,
        backend_ports: Dict[int, int],
        *,
        slots: int = DEFAULT_AFFINITY_SLOTS,
    ):
        if not backend_ports:
            raise ValueError("load balancer needs at least one backend")
        if slots < 1:
            raise ValueError(f"affinity slots must be >= 1, got {slots}")
        self.nic = nic
        self.vip = IPv4Address(vip).value if not isinstance(vip, int) else vip
        self.backend_ports = dict(backend_ports)
        self.ring = HashRing(backend_ports)
        self.epoch = 0
        #: backend -> instant it left the live set, by verb.
        self.draining: Dict[int, int] = {}
        self.failed: Dict[int, int] = {}
        #: (epoch, TableEntry) of every installed vip_steer entry.
        self._entries: list = []
        self._gc_count = 0

        program = nic.control.program
        self._registers = {
            "key_reg": "lb_key",
            "backend_reg": "lb_backend",
            "stamp_reg": "lb_stamp",
            "epoch_reg": "lb_epoch",
        }
        for reg in self._registers.values():
            program.add_register(reg, slots)
        program.add_register("lb_stats", LB_STAT_CELLS)
        self._stats_reg = program.registers["lb_stats"]

        egress = program.table("lb_egress")
        for backend, port in sorted(self.backend_ports.items()):
            egress.add(
                [backend], "set_chain",
                {"chain": program.encode_chain(
                    [nic.control.port_addr(port)])},
            )

        self._trace_ctx = None
        if nic.telemetry is not None:
            self._trace_ctx = nic.telemetry.tracer.flow_ctx()

        self._install_epoch()

    # ------------------------------------------------------------------
    # Epoch protocol
    # ------------------------------------------------------------------

    def _install_epoch(self) -> None:
        """Install the current ring under the current epoch number."""
        entry = self.nic.control.program.table("vip_steer").add(
            [DIR_RX, ternary_match(self.vip, 0xFFFFFFFF)],
            "affinity_steer",
            {
                "fields": list(AFFINITY_FIELDS),
                "ring": self.ring.as_param(),
                "stats_reg": "lb_stats",
                "epoch": self.epoch,
                "idle_ps": IDLE_PS,
                **self._registers,
            },
            priority=self.epoch,
        )
        self._entries.append((self.epoch, entry))
        self._trace("lb_epoch", (("epoch", self.epoch),
                                 ("backends", len(self.ring))))

    def advance(self) -> int:
        """Make-before-break: install the current ring as a new epoch.

        The old entry is still installed (masked by priority) when the
        new one becomes matchable; :meth:`gc` reclaims it later.
        Returns the new epoch number.
        """
        self.epoch += 1
        self._install_epoch()
        return self.epoch

    def drain(self, backend: int) -> bool:
        """Planned removal: stop steering *new* flows at ``backend``.

        Affinity-pinned flows keep completing on it (zero-loss
        migration); once they finish the backend is idle and can be
        serviced.  Returns False when the backend already left the live
        set (idempotent, so a human drain racing the health monitor's
        fail is harmless).
        """
        if not self._retire(backend):
            return False
        self.draining[backend] = self.nic.sim.now
        self.advance()
        self._trace("lb_drain", (("backend", backend),
                                 ("epoch", self.epoch)))
        return True

    def fail(self, backend: int) -> bool:
        """Failure-driven removal (the health monitor's verb).

        Same table mechanics as :meth:`drain`; the difference is
        bookkeeping (``failed`` vs ``draining``) and that pinned flows
        will abort rather than complete -- the invariant that a flow
        never changes backend mid-connection holds even over a corpse.
        Returns False when the backend already left the live set.
        """
        if backend in self.failed:
            return False
        was_live = self._retire(backend)
        self.draining.pop(backend, None)
        self.failed[backend] = self.nic.sim.now
        if was_live:
            self.advance()
        self._trace("lb_fail", (("backend", backend),
                                ("epoch", self.epoch)))
        return True

    def _retire(self, backend: int) -> bool:
        if backend not in self.backend_ports:
            raise KeyError(
                f"unknown backend {backend}; have "
                f"{sorted(self.backend_ports)}"
            )
        if backend not in self.ring:
            return False
        if len(self.ring) == 1:
            raise RuntimeError(
                f"cannot remove backend {backend}: it is the last live "
                f"backend for the VIP"
            )
        self.ring.remove(backend)
        return True

    def gc(self) -> int:
        """Remove every masked (stale-epoch) ``vip_steer`` entry.

        Safe at any instant: stale entries sort after the live epoch, so
        they were already unreachable.  Returns how many were removed.
        """
        table = self.nic.control.program.table("vip_steer")
        stale = [(e, entry) for e, entry in self._entries if e < self.epoch]
        for _, entry in stale:
            table.remove_entry(entry)
        self._entries = [(e, entry) for e, entry in self._entries
                         if e >= self.epoch]
        self._gc_count += len(stale)
        if stale:
            self._trace("lb_gc", (("removed", len(stale)),
                                  ("epoch", self.epoch)))
        return len(stale)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def live_backends(self) -> Tuple[int, ...]:
        return self.ring.backends

    def stats(self) -> Dict[str, int]:
        """Data-plane counters from the ``lb_stats`` register."""
        reg = self._stats_reg
        return {
            "steered": reg.read(LB_STAT_STEERED),
            "inserts": reg.read(LB_STAT_INSERTS),
            "hits": reg.read(LB_STAT_HITS),
            "evictions": reg.read(LB_STAT_EVICTIONS),
            "bypass": reg.read(LB_STAT_BYPASS),
        }

    def report(self) -> dict:
        """Picklable summary for rack reports and the chaos harness."""
        return {
            "vip": self.vip,
            "epoch": self.epoch,
            "backends": list(self.ring.backends),
            "draining": dict(self.draining),
            "failed": dict(self.failed),
            "installed_entries": len(self._entries),
            "gc_removed": self._gc_count,
            "stats": self.stats(),
        }

    def _trace(self, kind: str, args: Tuple) -> None:
        ctx = self._trace_ctx
        if ctx is not None:
            ctx.tracer.instant(ctx, kind, f"{self.nic.name}.lb",
                               self.nic.sim.now, args)
