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
``PanicConfig.batch_execution`` means exactly one thing: a **trajectory
train**, one kernel event carrying a single frame across its *entire*
trajectory -- MAC service, the express hop to the RMT pipeline,
classification, every chain engine, DMA, and PCIe -- committing the same
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
  live event due at ``now`` itself, no after-event hooks (telemetry
  probes observe every intermediate step, so their presence disables
  trains entirely), and every mutation timestamp strictly below the next
  heap event and the current ``run()`` deadline.  The deadline bound is
  what keeps trains inside a shard sync window -- sharded and
  monolithic runs stay bit-identical at any worker count.
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
* **Exact replay.**  Counters, latency trackers, round-robin rotations,
  PIFO sequence numbers, message ids, and RNG draws are advanced in the
  same order and by the same amounts as the scalar path.  The hot hop
  and service recipes inline their scalar counterparts
  (``PifoQueue.push`` + ``pop``, ``LatencyTracker.observe``,
  ``Packet.touch``) -- each inlined block cites the method it
  replays; keep them in sync.  NoC hops are not copied: the ride calls
  the express path's own ``account_hops``/``account_forwards``.

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
from repro.engines.checksum_engine import ChecksumEngine, _rx_verdict
from repro.engines.rmt_engine import RmtPipelineEngine
from repro.noc.express import account_forwards, account_hops
from repro.noc.message import NocMessage, _message_ids
from repro.noc.router import Router
from repro.packet.packet import Direction, MessageKind, Packet

__all__ = ["TrainLane"]

#: Cache-miss sentinel (None is a valid cached kind).
_MISS = object()

#: Heartbeat probes/echoes take dedicated scalar branches in every
#: engine, so control messages always refuse the train.
_CONTROL = MessageKind.CONTROL

#: Stock methods the ride may shortcut (identity-checked per leg).
_CHECKSUM_HANDLE = ChecksumEngine.handle
_CHECKSUM_SVC = ChecksumEngine.service_time_ps
_TX = Direction.TX


class TrainLane:
    """Per-NIC batched-execution driver (see module docstring)."""

    def __init__(self, nic) -> None:
        self.nic = nic
        self.sim = nic.sim
        self.mesh = nic.mesh
        # Working horizon of the ride in progress (picoseconds; every
        # committed mutation timestamp must stay strictly below it).
        self._h: float = float("-inf")
        # engine -> "base" | "rmt" | None (method-identity whitelist;
        # subclasses that override the service loop ride scalar).
        self._kinds: Dict[int, Optional[str]] = {}
        self._kind_obj: Dict[int, Engine] = {}
        self._routers: Dict[int, object] = {}
        # Stock ChecksumEngine.service_time_ps results, keyed by every
        # input it reads (engine identity, frame length, cost knobs) so
        # mid-run knob mutation can never serve a stale delay.
        self._svc: Dict[tuple, int] = {}
        # engine -> leg recipe tuple (see _recipe_of).
        self._recipes: Dict[int, tuple] = {}
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
        are fine (the lane calls them genuinely)."""
        key = id(engine)
        cached = self._kinds.get(key, _MISS)
        if cached is not _MISS:
            return cached
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
        self._kinds[key] = kind
        self._kind_obj[key] = engine  # keep ids stable while cached
        return kind

    def _router_of(self, engine: Engine):
        """The engine's local tile router (its inject channel's sink),
        or False when the engine's space wiring is not the stock
        ``notify_space = router.pump`` (the ride inlines that pump as a
        single fairness rotation, so anything else must ride scalar)."""
        key = id(engine)
        router = self._routers.get(key)
        if router is None:
            router = self.mesh._channel_sink[engine.port._channel]
            notify = engine.notify_space
            cls = type(router)
            if (notify is None
                    or getattr(notify, "__func__", None) is not Router.pump
                    or notify.__self__ is not router
                    or cls.pump is not Router.pump
                    or cls._pump_passes is not Router._pump_passes):
                router = False
            self._routers[key] = router
        return router

    def _engine_ready(self, engine: Engine, packet: Packet) -> bool:
        """Would the scalar path serve ``packet`` at ``engine``
        immediately, with no interference the lane cannot replay?

        The once-per-frame boarding check of :meth:`try_ride`;
        :meth:`_ride` inlines these exact tests once per hop.  On True,
        ``_kinds`` and ``_routers`` hold the engine's entries."""
        if packet.trace is not None or packet.int_state is not None:
            # Sampled telemetry must observe every intermediate span,
            # and INT must observe genuine depths and egress instants.
            return False
        if (self._kind_of(engine) is None
                or engine.fault_mode is not None
                or engine.slowdown != 1.0
                or engine.payload_buffer is not None
                or engine._busy_lanes
                or not engine.queue.is_empty
                or packet.kind is _CONTROL):
            return False
        router = self._router_of(engine)
        if router is False or router._buffered or router._express_flights:
            # Parked (refused) messages have no heap event to bound the
            # horizon, and reserved flights must de-speculate against
            # genuine deliveries only.
            return False
        return True

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
        if horizon is None or not self._engine_ready(port, packet):
            self.refusals += 1
            return False
        self._h = horizon
        # Engine._loopback: the local re-entry envelope.  Drawing the
        # message id here (first action, as scalar does) keeps the
        # global id sequence aligned; the envelope itself materializes
        # only if the ride hands off mid-service.
        mid = next(_message_ids)
        self.trajectories += 1
        key = id(port)
        addr = port.address
        now = sim.now
        self._ride(port, self._kinds[key], self._routers[key], packet, now,
                   mid, addr, addr, now, 0)
        return True

    def _ride(self, engine: Engine, kind: str, erouter, packet: Packet,
              t_arr: int, mid: int, src: int, dest: int,
              inject_ps: int, hops: int) -> None:
        """Replay the whole remaining trajectory, one leg per loop pass.

        Each pass serves ``packet`` at an idle ``engine`` -- mirroring
        ``Engine.receive``, the kind's own ``_try_start`` and
        ``Engine._finish`` -- then attempts
        to commit the next NoC traversal arithmetically (mirroring
        ``Mesh._try_express`` + ``ExpressFlight._finish`` and the final
        router's delivery pump) and continues at the target.  Any leg
        that cannot continue executes the *exact* scalar statement at
        the already-advanced clock and ends the ride; every event it
        schedules lies at or after ``now``, so the kernel resumes
        cleanly.

        Pre-conditions, re-established before each pass: the inlined
        ``_engine_ready`` held for ``engine`` (whose local router is
        ``erouter``) and ``now <= t_arr < self._h``.  The
        ``mid``/``src``/``dest``/``inject_ps``/``hops`` quintuple
        describes the in-flight envelope, materialized as a real
        :class:`NocMessage` only on a mid-service handoff.
        """
        sim = self.sim
        kinds = self._kinds
        routers = self._routers
        recipes = self._recipes
        svc = self._svc
        h = self._h
        ekey = id(engine)
        while True:
            # One dict hit replaces the leg's ~20 attribute chains; the
            # recipe holds only structurally-final objects (see
            # _recipe_of); counters are ints, bumped on their owners.
            rec = recipes.get(ekey)
            if rec is None:
                rec = self._recipe_of(engine, kind)
            (queue, qseq, qlat, name,
             csum_handle, csum_svc, address, lookup_table, lookup_ps,
             port, inj, expr_cache, ser_cache, ii_ps, lat_ps) = rec
            sim.now = t_arr  # monotonic: t_arr >= now on entry
            # receive(): the rank (_rank_of) is drawn from pure reads
            # and never outlives the fused push/pop.
            # PifoQueue.push + pop on an empty queue, inline: the
            # push's seq draw and counters; the heap never changes.
            next(qseq)
            queue.pushed += 1
            if queue.max_occupancy < 1:
                queue.max_occupancy = 1
            # queue_latency.observe(t_arr, t_arr) inline: a zero sample.
            qlat._samples.append(0)
            qlat._sorted = False
            # The admission: the only step the two kinds do differently.
            if kind == "rmt":
                # RmtPipelineEngine._try_start (no notify_space there).
                start = engine._next_accept_ps
                if start < t_arr:
                    start = t_arr
                engine._next_accept_ps = start + ii_ps
                t_fin = start + lat_ps
            else:
                # Engine._try_start: freed_space -> one notify_space().
                # That is erouter.pump (validated by _router_of) on a
                # router known buffer-free: a single fairness rotation.
                rr = erouter._rr_order
                if rr:
                    rr.append(rr.pop(0))
                if csum_svc:
                    # Stock ChecksumEngine.service_time_ps: pure in its
                    # memo key, so a hit replaces the call.
                    skey = (ekey, len(packet.data),
                            engine.fixed_cycles, engine.cycles_per_byte)
                    delay = svc.get(skey)
                    if delay is None:
                        delay = engine.service_time_ps(packet)
                        if len(svc) >= 1024:
                            svc.clear()
                        svc[skey] = delay
                else:
                    delay = engine.service_time_ps(packet)
                if delay < 0:
                    # Scalar schedule() would refuse; never move the
                    # clock backwards.
                    raise ValueError(
                        f"{name}: negative service time {delay}")
                # slowdown == 1.0 and payload_buffer is None by
                # eligibility, so the scalar path's remaining delay
                # adjustments are identity.
                t_fin = t_arr + delay
            if t_fin >= h:
                # Hand off mid-service: exactly the state _try_start
                # leaves behind -- a counted lane + a pending _finish.
                engine._busy_lanes += 1
                sim.schedule_at(
                    t_fin, engine._finish,
                    NocMessage(packet, dest, src, inject_ps, hops, mid))
                self.handoffs += 1
                return
            # Engine._finish at t_fin.
            sim.now = t_fin
            engine.processed += 1
            # packet.touch(name) inline.
            trail = packet._trail
            if trail is None:
                trail = packet._trail = []
            trail.append(name)
            if csum_handle and packet.meta.direction is not _TX:
                # ChecksumEngine.handle RX inline (stock by
                # identity): _verify's memoized verdict, annotation
                # and counter -- schedules nothing, single
                # pass-through output, so the refresh and unpack
                # below are skipped outright.
                ok = _rx_verdict(packet.data)
                if ok is not None:
                    packet.meta.annotations["csum_ok"] = ok
                    if ok:
                        engine.verified += 1
                    else:
                        engine.bad_checksums += 1
                out_packet = packet
                ndest = None
            else:
                seq = sim._seq
                outputs = engine.handle(packet)
                if sim._seq != seq or sim._after_hooks:
                    # handle() scheduled events (TX wire, timers, a
                    # decision handler's): they may lie below the old
                    # horizon and shrink what the ride may touch.
                    horizon = sim.train_horizon()
                    h = float("-inf") if horizon is None else horizon
                    self._h = h
                if len(outputs) != 1:
                    self._route_multi(engine, outputs)
                    return
                out_packet, ndest = outputs[0]
            # The routing step of _finish.
            lookup_delay = 0
            if ndest is None:
                # Engine._route_by_chain inline (stock by whitelist):
                # next chain hop, else the lookup table.
                header = out_packet.panic
                if header is not None and header.cursor < len(header.chain):
                    ndest = header.chain[header.cursor]
                    header.cursor += 1
                else:
                    ndest = lookup_table.lookup(out_packet.kind)
                lookup_delay = lookup_ps
            if ndest is None:
                engine.terminal(out_packet)
                return
            if ndest == address:
                engine.schedule(lookup_delay, engine._loopback, out_packet)
                return
            # -- Attempt the next traversal: an idle scan over the cached
            # express path.  Any failed check falls back to the scalar
            # send (mutating nothing first).
            t_send = t_fin + lookup_delay
            packet = out_packet
            if (t_send >= h or packet.trace is not None
                    or packet.int_state is not None):
                break
            path = expr_cache.get(ndest, _MISS)
            if path is _MISS:
                path = self.mesh._build_express_path(inj, ndest)
                expr_cache[ndest] = path
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
            # Inlined _engine_ready(target, packet); its telemetry
            # test ran with the t_send check above.
            key = id(target)
            tkind = kinds.get(key, _MISS)
            if tkind is _MISS:
                tkind = self._kind_of(target)
            if (tkind is None
                    or target.fault_mode is not None
                    or target.slowdown != 1.0
                    or target.payload_buffer is not None
                    or target._busy_lanes
                    or target.queue._heap
                    or packet.kind is _CONTROL):
                break
            trouter = routers.get(key)
            if trouter is None:
                trouter = self._router_of(target)
            if (trouter is False or trouter._buffered
                    or trouter._express_flights):
                break
            # The size NocMessage would fix at injection.
            bits = packet.chip_bits
            ser = ser_cache.get(bits)
            if ser is None:
                ser = inj._serialization_ps(bits)
            n_hops = len(channels)
            t_arrive = t_send + n_hops * ser
            if t_arrive >= h:
                break
            # -- Commit.  NocPort.send at t_send: the message-id draw,
            # then the injected count.
            sim.now = t_send  # t_send = now + lookup_delay
            mid = next(_message_ids)
            port.injected += 1
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
            rr = final_router._rr_order
            if rr:
                rr.append(rr.pop(0))
            self.trajectory_hops += 1
            src = address
            dest = ndest
            inject_ps = t_send
            hops = n_hops
            engine = target
            ekey = key
            kind = tkind
            erouter = trouter
            t_arr = t_arrive
        # Scalar handoff for the forward that could not ride: exactly
        # _finish's send branch, at the already-advanced clock.
        self.handoffs += 1
        if lookup_delay:
            engine.schedule(lookup_delay, engine.send, packet, ndest)
        else:
            engine.send(packet, ndest)

    def _recipe_of(self, engine: Engine, kind: str) -> tuple:
        """Build and cache the per-engine leg recipe.

        Every entry is an object the engine's ``__init__`` creates and
        no repo code ever reassigns (queue, trackers, the NoC port and
        its channel caches), plus two method-identity flags for the
        stock checksum shortcuts and the RMT engine's constant
        interval/latency.  Mutable *state* (occupancy, busy lanes,
        ``_next_accept_ps``, channel idleness) is always read from the
        live objects, never from the recipe; so are the counters, which
        are ints and are written through to their owners
        (``queue.pushed``, ``engine.processed``, ``port.injected``).
        """
        cls = type(engine)
        port = engine.port
        inj = port._channel
        rmt = kind == "rmt"
        rec = (
            engine.queue,
            engine.queue._seq,
            engine.queue_latency,
            engine.name,
            cls.handle is _CHECKSUM_HANDLE,
            cls.service_time_ps is _CHECKSUM_SVC,
            engine.address,
            engine.lookup_table,
            engine._lookup_ps,
            port,
            inj,
            inj._express_paths,
            inj._ser_cache,
            engine.initiation_interval_ps if rmt else 0,
            engine.latency_ps if rmt else 0,
        )
        self._recipes[id(engine)] = rec
        return rec

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
