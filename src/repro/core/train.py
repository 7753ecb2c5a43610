"""The train lane: batched engine execution over quiescent windows.

The scalar simulator charges every frame roughly 27 kernel events end to
end: wire arrival, a loopback enqueue, per-engine pop/finish pairs, a NoC
event per hop, DMA, PCIe, interrupts.  Almost all of that Python work is
pure dispatch overhead whenever the NIC is *quiescent* -- no other event
is pending before the frame's next state change, so every intermediate
timestamp follows arithmetically, exactly like
:class:`~repro.noc.express.ExpressFlight` collapses an idle NoC route
into one delivery event.

:class:`TrainLane` generalizes that idea from wires to whole engines.
Every NIC whose configuration lets a frame board builds one
(``PanicConfig.batch_execution`` left at None; ``False`` keeps the
scalar machinery alone, as the oracle).  The lane means exactly one
thing: a **trajectory train**, one kernel event carrying a single frame
across its *entire* trajectory -- MAC service, the express hop to the
RMT pipeline, classification, every chain engine, DMA, and PCIe --
committing the same
state mutations the scalar path would, at the same simulated timestamps,
by shifting the kernel clock forward inside the event before each
genuine ``handle``/``decide``/``service_time_ps`` call.  A frame boards
at exactly one instant, its RX arrival at the MAC
(:meth:`TrainLane.try_ride`, the last statement of
``EthernetPort._rx_arrival``): an uncontended ``chain_sparse`` frame
then costs 4 kernel events (its injection, the arrival that carries the
ride, the PCIe coalescing timer, the host's software pass) against 27.

Equivalence contract
--------------------

Trains are *invisible* in simulated terms: stats trees, timestamps,
delivery order, and RNG draws are bit-identical with batching on or off.
Three mechanisms enforce it:

* **Quiescence.**  A train only forms when
  :meth:`~repro.sim.kernel.Simulator.train_horizon` yields a horizon: no
  live event due at ``now`` itself, and every mutation timestamp
  strictly below the next heap event and the current ``run()``
  deadline.  The deadline bound is what keeps trains inside a shard
  sync window -- sharded and monolithic runs stay bit-identical at any
  worker count.
* **Flush-on-anything.**  Per-hop eligibility checks scan the whole
  route: armed faults, slowdowns, crashed engines, buffered routers,
  reserved channels, exhausted credits, pointer-mode payloads,
  CONTROL heartbeats, and sampled (traced) packets all refuse the
  train, falling back to the scalar machinery *before any mutation*.
  Mid-trajectory, the frame instead hands off: the lane reconstructs the
  exact scalar in-service state (busy lane + pending ``_finish`` event)
  and lets real events carry on.  A fault armed for time T is a heap
  event, so the horizon already guarantees no train commits state at or
  beyond T.
* **Shared code.**  Every step of a leg is the scalar method itself,
  called at the already-advanced clock: ``PifoQueue.pass_through``
  (the count ``Engine.receive``'s idle admission makes, and all a
  push and pop on an empty queue leave behind), ``service_time_ps``,
  ``handle`` and ``_route_by_chain``; NoC hops call
  the express path's ``account_hops``/``account_forwards``.  What the
  lane still writes itself is what a scalar *event* would have done
  between those calls: the zero ``queue_latency`` sample of
  ``Engine._start``, the ``processed`` count of ``_finish``, the RMT
  tile's admission arithmetic, the delivery count, and one step of a
  router's fairness offset (``_rr_shift``) per arbitration pass.

One leg serves every tile: the RMT pipeline finishes through
``Engine._finish`` and works in a genuine ``handle`` like any engine, so
a pass of :meth:`TrainLane._ride` differs by kind only in how it
computes ``t_fin`` -- a base tile starts at arrival and takes
``service_time_ps`` (its freed slot pumps the local router once); the
pipeline starts at its next initiation slot, takes its fixed latency,
and charges no lookup cycle because its ``_lookup_ps`` is 0.

The lane's own counters live outside ``PanicNic.stats()`` -- they count
simulator mechanics, not NIC behaviour, and stats trees must not differ
between modes.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.engines.base import Engine
from repro.engines.rmt_engine import RmtPipelineEngine
from repro.noc.express import account_forwards, account_hops
from repro.noc.router import Router
from repro.packet.packet import MessageKind, Packet

__all__ = ["TrainLane"]

#: Cache-miss sentinel (None is a valid cached kind).
_MISS = object()

#: Heartbeat probes/echoes take dedicated scalar branches in every
#: engine, so control messages always refuse the train.
_CONTROL = MessageKind.CONTROL


class TrainLane:
    """Per-NIC batched-execution driver (see module docstring)."""

    def __init__(self, nic) -> None:
        self.nic = nic
        self.sim = nic.sim
        self.mesh = nic.mesh
        # engine -> "base" | "rmt" | None (method-identity whitelist;
        # subclasses that override the service loop ride scalar).
        self._kinds: Dict[Engine, Optional[str]] = {}
        self._routers: Dict[Engine, object] = {}
        # Diagnostics (not part of nic.stats(): trees must be identical
        # with batching on or off).
        self.trajectories = 0
        self.trajectory_hops = 0
        self.handoffs = 0
        self.refusals = 0

    def stats(self) -> Dict[str, int]:
        """Lane diagnostics (separate from the NIC's stats tree)."""
        return {
            "trajectories": self.trajectories,
            "trajectory_hops": self.trajectory_hops,
            "handoffs": self.handoffs,
            "refusals": self.refusals,
        }

    # ------------------------------------------------------------------
    # Engine classification
    # ------------------------------------------------------------------

    def _kind_of(self, engine: Engine) -> Optional[str]:
        """``"base"``/``"rmt"`` -- whose ``_try_start`` admits -- when
        the engine's service loop is the stock one the lane knows how
        to replay, else None.

        Identity checks on the unbound methods: an engine subclass that
        overrides any part of the receive/service/route machinery gets
        scalar execution -- ``handle``/``service_time_ps`` overrides
        are fine (the lane calls them genuinely).  Cached per engine."""
        cls = type(engine)
        kind: Optional[str] = None
        if (cls._finish is Engine._finish
                and cls.receive is Engine.receive
                and cls.try_receive is Engine.try_receive
                and cls._rank_of is Engine._rank_of
                and cls._route_by_chain is Engine._route_by_chain
                and cls._loopback is Engine._loopback):
            if cls._try_start is Engine._try_start:
                kind = "base"
            elif cls._try_start is RmtPipelineEngine._try_start:
                kind = "rmt"
        self._kinds[engine] = kind
        return kind

    def _router_of(self, engine: Engine):
        """The engine's local tile router (its port's sink),
        or False when the engine's space wiring is not the stock
        ``notify_space = router.pump`` (the ride replays that pump as a
        single fairness rotation, so anything else must ride scalar).
        Cached per engine."""
        router = engine.port._sink
        notify = engine.notify_space
        cls = type(router)
        if (notify is None
                or getattr(notify, "__func__", None) is not Router.pump
                or notify.__self__ is not router
                or cls.pump is not Router.pump
                or cls._pump_passes is not Router._pump_passes):
            router = False
        self._routers[engine] = router
        return router

    def _engine_ready(self, engine: Engine, packet: Packet) -> Optional[str]:
        """The engine's kind when the scalar path would serve ``packet``
        at ``engine`` immediately, with no interference the lane cannot
        replay; else None.

        Checked once at boarding (:meth:`try_ride`) and once per hop
        (:meth:`_ride`).  On a kind, ``_routers`` holds the engine's
        router."""
        if packet.trace is not None:
            # Sampled telemetry must observe every intermediate span,
            # and INT must observe genuine depths and egress instants.
            return None
        kind = self._kinds.get(engine, _MISS)
        if kind is _MISS:
            kind = self._kind_of(engine)
        if (kind is None
                or engine.fault_mode is not None
                or engine.slowdown != 1.0
                or engine.payload_buffer is not None
                or engine._busy_lanes
                or engine.queue._heap
                or packet.kind is _CONTROL):
            return None
        router = self._routers.get(engine)
        if router is None:
            router = self._router_of(engine)
        if router is False or router._buffered or router._express_flights:
            # Parked (refused) messages have no heap event to bound the
            # horizon, and reserved flights must de-speculate against
            # genuine deliveries only.
            return None
        return kind

    # ------------------------------------------------------------------
    # Trajectory trains (single frame, whole path)
    # ------------------------------------------------------------------

    def try_ride(self, port, packet: Packet) -> bool:
        """Carry a fresh RX frame down its whole trajectory in one event.

        Called by :meth:`EthernetPort._rx_arrival` in place of its final
        ``_loopback``.  Returns False (mutating nothing) when the ride
        cannot start; the caller then falls back to the scalar loopback.
        """
        sim = self.sim
        horizon = sim.train_horizon()
        kind = None if horizon is None else self._engine_ready(port, packet)
        if kind is None:
            self.refusals += 1
            return False
        self.trajectories += 1
        self._ride(port, kind, packet, horizon, sim.now)
        return True

    def _ride(self, engine: Engine, kind: str, packet: Packet, h: float,
              t_arr: int) -> None:
        """Replay the whole remaining trajectory, one leg per loop pass.

        Each pass serves ``packet`` at an idle ``engine`` -- the steps
        of ``Engine.receive``, the kind's own ``_try_start`` and
        ``Engine._finish``, each through the scalar method -- then
        attempts to commit the next NoC traversal arithmetically
        (mirroring ``Mesh._try_express`` + ``ExpressFlight._finish``
        and the final router's delivery pump) and continues at the
        target.  Any leg that cannot continue executes the *exact*
        scalar statement at the already-advanced clock and ends the
        ride; every event it schedules lies at or after ``now``, so the
        kernel resumes cleanly.

        Pre-conditions, re-established before each pass:
        :meth:`_engine_ready` gave ``kind`` for ``engine`` and
        ``now <= t_arr < h``, the working horizon (every committed
        mutation timestamp stays strictly below it).
        """
        sim = self.sim
        while True:
            sim.now = t_arr  # monotonic: t_arr >= now on entry
            # receive() at an idle tile: the PIFO counts the pass, and
            # the queue-latency sample is zero.
            engine.queue.pass_through()
            engine.queue_latency.record(0)
            # The admission: the only step the two kinds do differently.
            if kind == "rmt":
                # RmtPipelineEngine._try_start (no notify_space there).
                start = engine._next_accept_ps
                if start < t_arr:
                    start = t_arr
                engine._next_accept_ps = start + engine.initiation_interval_ps
                t_fin = start + engine.latency_ps
            else:
                # Engine.receive's idle admission ends in notify_space():
                # the local router's pump (validated by _router_of) on a
                # router known buffer-free, a single fairness rotation.
                self._routers[engine]._rr_shift += 1
                delay = engine.service_time_ps(packet)
                if delay < 0:
                    # Scalar schedule() would refuse; never move the
                    # clock backwards.
                    raise ValueError(
                        f"{engine.name}: negative service time {delay}")
                # slowdown == 1.0 and payload_buffer is None by
                # eligibility, so the scalar path's remaining delay
                # adjustments are identity.
                t_fin = t_arr + delay
            if t_fin >= h:
                # Hand off mid-service: exactly the state _try_start
                # leaves behind -- a counted lane + a pending _finish.
                engine._busy_lanes += 1
                sim.schedule_at(t_fin, engine._finish, packet)
                self.handoffs += 1
                return
            # Engine._finish at t_fin.
            sim.now = t_fin
            engine.processed += 1
            seq = sim._seq
            outputs = engine.handle(packet)
            if sim._seq != seq:
                # handle() scheduled events (TX wire, timers, a
                # decision handler's): they may lie below the old
                # horizon and shrink what the ride may touch.
                horizon = sim.train_horizon()
                h = float("-inf") if horizon is None else horizon
            if len(outputs) != 1:
                self._route_multi(engine, outputs)
                return
            packet, ndest = outputs[0]
            # The routing step of _finish.
            lookup_delay = 0
            if ndest is None:
                ndest = engine._route_by_chain(packet)
                lookup_delay = engine._lookup_ps
            if ndest is None:
                engine.terminal(packet)
                return
            if ndest == engine.address:
                engine.schedule(lookup_delay, engine._loopback, packet)
                return
            # -- Attempt the next traversal: an idle scan over the cached
            # express path.  Any failed check falls back to the scalar
            # send (mutating nothing first).
            t_send = t_fin + lookup_delay
            if t_send >= h:
                break
            inj = engine.port
            paths = inj._express_paths
            if paths is not None and ndest in paths:
                path = paths[ndest]
            else:
                path = self.mesh._build_express_path(inj, ndest)
            if path is None or (
                    inj._transfer_in_progress or inj._pending
                    or inj._express_flight is not None
                    or inj._faults is not None
                    or inj._credits <= 0):
                break
            channels, mid_routers, final_router, checks = path
            busy = False
            for router, out in checks:
                if (router._buffered
                        or out._express_flight is not None
                        or out._transfer_in_progress
                        or out._pending
                        or out._credits <= 0
                        or out._faults is not None):
                    busy = True
                    break
            if (busy or final_router._buffered
                    or final_router._express_flights):
                break
            target = final_router.endpoint
            if target is None:
                break
            tkind = self._engine_ready(target, packet)
            if tkind is None:
                break
            # The size the port's send would fix at injection.
            bits = packet.chip_bits
            ser = inj._ser_cache.get(bits)
            if ser is None:
                ser = inj._serialization_ps(bits)
            t_arrive = t_send + len(channels) * ser
            if t_arrive >= h:
                break
            # -- Commit, from the port's send at t_send.
            sim.now = t_send  # t_send = now + lookup_delay
            # ExpressFlight._finish: the arithmetic hop windows and the
            # forwarding routers' crossings.
            account_hops(channels, bits, t_send, ser)
            account_forwards(mid_routers)
            # Final delivery: on_deliver -> pump -> endpoint accept.
            # The express credit debit and the pump's release_credit
            # cancel; the delivery counts once, the pump pass rotates
            # once (the accept's own notify_space rotation opens the
            # next loop pass).
            final_router.delivered += 1
            final_router._rr_shift += 1
            self.trajectory_hops += 1
            engine = target
            kind = tkind
            t_arr = t_arrive
        # Scalar handoff for the forward that could not ride: exactly
        # _finish's send branch, at the already-advanced clock.
        self.handoffs += 1
        if lookup_delay:
            engine.schedule(lookup_delay, engine.send, packet, ndest)
        else:
            engine.send(packet, ndest)

    def _route_multi(self, engine: Engine, outputs) -> None:
        """Multicast/drop outputs: the scalar routing loop verbatim
        (``lookup_delay`` latches across iterations exactly as
        ``_finish``'s does), ending the ride."""
        lookup_delay = 0
        for out_packet, dest in outputs:
            if dest is None:
                dest = engine._route_by_chain(out_packet)
                lookup_delay = engine._lookup_ps
            if dest is None:
                engine.terminal(out_packet)
            elif dest == engine.address:
                engine.schedule(lookup_delay, engine._loopback, out_packet)
            elif lookup_delay:
                engine.schedule(lookup_delay, engine.send, out_packet, dest)
            else:
                engine.send(out_packet, dest)
