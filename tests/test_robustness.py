"""Robustness / failure-injection tests: malformed and hostile input
must degrade gracefully, never wedge the NIC."""

import pytest

from repro.core import PanicConfig, PanicNic
from repro.engines import IpsecSa
from repro.faults import FaultInjector, FaultPlan, attach_health_monitor
from repro.faults.monitor import PERIOD_PS, TIMEOUT_PS
from repro.packet import (
    ETHERTYPE_PANIC,
    EthernetHeader,
    MacAddress,
    Packet,
    build_kv_request_frame,
    KvOpcode,
    KvRequest,
)
from repro.sim import Simulator
from repro.sim.clock import US
from repro.telemetry import TelemetryConfig
from tests import udp_frame


def good_frame(payload=b"ok", dscp=0):
    return udp_frame(src_port=1, dst_port=2, payload=payload, dscp=dscp)


class TestMalformedInput:
    def test_truncated_frame_reaches_host_not_crash(self, sim, nic):
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        nic.inject(Packet(good_frame()[:20]))  # mid-IPv4 truncation
        sim.run()
        # Unparseable traffic falls back to the RX default (the host),
        # where software decides; nothing raised, nothing stuck.
        assert len(delivered) == 1
        assert nic.mesh.in_flight == 0

    def test_unknown_ethertype_routed_to_host(self, sim, nic):
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        nic.inject(Packet(EthernetHeader(
            MacAddress("02:00:00:00:00:02"), MacAddress("02:00:00:00:00:01"),
            ETHERTYPE_PANIC,
        ).pack() + b"mystery"))
        sim.run()
        assert len(delivered) == 1

    def test_garbage_bytes_survive_the_pipeline(self, sim, nic):
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        nic.inject(Packet(bytes(range(60))))
        sim.run()
        assert len(delivered) == 1

    def test_truncated_kv_request_ignored_by_cache(self, sim, nic):
        nic.control.enable_kv_cache()
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        good = build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 1, b"key"))
        broken = Packet(good.data[:-3])  # truncated KV body
        nic.inject(broken)
        sim.run()
        # Parse error at the KV layer: still delivered to software.
        assert len(delivered) == 1

    def test_corrupted_esp_does_not_take_down_the_nic(self, sim, nic):
        """An ESP packet with a bad ICV fails auth; PANIC must drop it
        at the IPSec engine and stay alive for subsequent traffic."""
        nic.control.enable_ipsec_rx()
        ipsec = nic.offload("ipsec")
        ipsec.install_sa(IpsecSa(spi=9, key=b"k", tunnel_src="1.1.1.1",
                                 tunnel_dst="2.2.2.2"))
        encrypted = ipsec.encrypt(Packet(good_frame()), 9)
        tampered = bytearray(encrypted.data)
        tampered[-6] ^= 0x01
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        nic.inject(Packet(bytes(tampered)))
        # The engine raises internally; PANIC's handling: the exception
        # propagates out of sim.run, which is the "raise" policy. For a
        # production profile, assert the NIC survives with drop policy:
        with pytest.raises(Exception):
            sim.run()


class TestIpsecDropPolicy:
    def test_auth_failure_drop_policy(self, sim):
        """With drop_on_auth_failure the NIC sheds bad ESP silently."""
        nic = PanicNic(sim, PanicConfig(
            ports=1,
            offload_params={"ipsec": {"drop_on_auth_failure": True}},
        ))
        nic.control.enable_ipsec_rx()
        ipsec = nic.offload("ipsec")
        ipsec.install_sa(IpsecSa(spi=9, key=b"k", tunnel_src="1.1.1.1",
                                 tunnel_dst="2.2.2.2"))
        encrypted = ipsec.encrypt(Packet(good_frame()), 9)
        tampered = bytearray(encrypted.data)
        tampered[-6] ^= 0x01
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        nic.inject(Packet(bytes(tampered)))
        nic.inject(Packet(good_frame()))  # subsequent traffic flows
        sim.run()
        assert len(delivered) == 1  # only the good frame
        assert ipsec.auth_failures == 1
        assert ipsec.dropped_packets == 1

    def test_unknown_spi_dropped_under_policy(self, sim):
        nic = PanicNic(sim, PanicConfig(
            ports=1,
            offload_params={"ipsec": {"drop_on_auth_failure": True}},
        ))
        nic.control.enable_ipsec_rx()
        ipsec = nic.offload("ipsec")
        ipsec.install_sa(IpsecSa(spi=9, key=b"k", tunnel_src="1.1.1.1",
                                 tunnel_dst="2.2.2.2"))
        encrypted = ipsec.encrypt(Packet(good_frame()), 9)
        # Rewrite the SPI to an uninstalled one; ICV check happens after
        # SA lookup, so this exercises the unknown-SPI path.
        sim2 = Simulator()
        nic2 = PanicNic(sim2, PanicConfig(
            ports=1,
            offload_params={"ipsec": {"drop_on_auth_failure": True}},
        ), name="panic2")
        nic2.control.enable_ipsec_rx()
        delivered = []
        nic2.host.software_handler = lambda p, q: delivered.append(p)
        nic2.inject(Packet(encrypted.data))
        sim2.run()
        assert delivered == []
        assert nic2.offload("ipsec").dropped_packets == 1


class TestHostileLoad:
    def test_sustained_overload_drains_eventually(self, sim, nic):
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        for i in range(200):
            nic.inject(Packet(good_frame(payload=bytes(64), dscp=i % 64)))
        sim.run()
        assert len(delivered) == 200
        assert nic.mesh.in_flight == 0
        assert all(not e.busy for e in nic.engines.values())


def failover_nic(sim, **extra):
    """Two IPSec lanes (primary + instanced spare) with a backup rule."""
    nic = PanicNic(sim, PanicConfig(
        ports=1,
        offloads=("ipsec", "ipsec1", "compression", "kvcache"),
        **extra,
    ))
    nic.set_backup("ipsec", "ipsec1")
    nic.control.route_dscp(10, ["ipsec"])
    return nic


class TestEngineFailover:
    def test_crash_failover_resteers_chain(self, sim):
        """After handle_engine_failure, new traffic for the dead lane's
        class flows through the backup engine instead."""
        nic = failover_nic(sim)
        nic.offload("ipsec").fail()
        nic.handle_engine_failure("ipsec")
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        for i in range(10):
            nic.inject(Packet(good_frame(payload=bytes(64), dscp=10)))
        sim.run()
        assert len(delivered) == 10
        assert nic.offload("ipsec").processed == 0
        assert nic.offload("ipsec1").processed == 10
        assert nic.failovers == 1
        assert nic.mesh.in_flight == 0

    def test_failover_rewrites_rmt_chains_and_lookup_tables(self, sim):
        nic = failover_nic(sim)
        old = nic.offload("ipsec").address
        new = nic.offload("ipsec1").address
        nic.control.enable_ipsec_rx()  # another chain through the primary
        rewritten = nic.control.remap_engine(old, new)
        assert rewritten == 2  # dscp_route + ipsec_rx entries
        table = nic.offload("compression").lookup_table
        table.default_next = old
        assert table.remap(old, new) == 1
        assert table.lookup() == new

    def test_failover_without_backup_removes_the_hop(self, sim):
        nic = PanicNic(sim, PanicConfig(ports=1))
        nic.control.route_dscp(10, ["ipsec"])
        nic.offload("ipsec").fail()
        nic.handle_engine_failure("ipsec")
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        nic.inject(Packet(good_frame(dscp=10)))
        sim.run()
        # The dead hop was cut from the chain; traffic skips straight to
        # the DMA engine instead of black-holing.
        assert len(delivered) == 1
        assert nic.offload("ipsec").blackholed == 0

    def test_handle_engine_failure_is_idempotent(self, sim):
        nic = failover_nic(sim)
        nic.handle_engine_failure("ipsec")
        nic.handle_engine_failure("ipsec")
        assert nic.failovers == 1


class TestHealthMonitor:
    def test_watchdog_fires_within_configured_timeout(self, sim):
        nic = failover_nic(sim)
        period, timeout = PERIOD_PS, TIMEOUT_PS
        monitor = attach_health_monitor(nic)
        monitor.start()
        crash_at = 10 * US
        FaultInjector(
            nic, FaultPlan().crash_engine(crash_at, "ipsec")
        ).arm()
        sim.run(until_ps=60 * US)
        monitor.stop()
        sim.run()
        assert monitor.detected.keys() == {"ipsec"}
        detected = monitor.detected["ipsec"]
        # Detection latency is bounded by the probe timeout plus one
        # tick of watchdog-evaluation granularity.
        assert crash_at < detected <= crash_at + timeout + period
        assert monitor.failures_detected == 1
        assert nic.failovers == 1
        assert nic.mesh.in_flight == 0

    def test_healthy_engines_keep_echoing(self, sim):
        nic = failover_nic(sim)
        monitor = attach_health_monitor(nic)
        monitor.start()
        sim.run(until_ps=30 * US)
        monitor.stop()
        sim.run()
        assert monitor.detected == {}
        assert monitor.echoes_seen == monitor.probes_sent > 0

    def test_stalled_engine_detected_like_a_dead_one(self, sim):
        nic = failover_nic(sim)
        monitor = attach_health_monitor(nic)
        monitor.start()
        FaultInjector(
            nic, FaultPlan().stall_engine(5 * US, "ipsec")
        ).arm()
        sim.run(until_ps=40 * US)
        monitor.stop()
        nic.offload("ipsec").recover()  # release the parked probe
        sim.run()
        assert "ipsec" in monitor.detected
        assert nic.mesh.in_flight == 0


class TestHealthMonitorEdges:
    """Races and double failures around detection and failover."""

    def test_crash_under_live_traffic_fails_over_midstream(self, sim):
        """The fault fires while frames are in flight: pre-crash traffic
        flows through the primary, the loss window is fully accounted as
        blackholed, and post-detection traffic rides the backup."""
        nic = failover_nic(sim)
        monitor = attach_health_monitor(nic)
        monitor.start()
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        frames = 30
        for i in range(frames):
            sim.schedule_at(
                i * US, nic.inject, Packet(good_frame(dscp=10)))
        FaultInjector(
            nic, FaultPlan().crash_engine(10 * US, "ipsec")
        ).arm()
        sim.run(until_ps=60 * US)
        monitor.stop()
        sim.run()
        assert monitor.detected.keys() == {"ipsec"}
        assert nic.failovers == 1
        # Detection <= crash + timeout + period, so frames injected from
        # 17 us on must all flow through the backup lane.
        assert nic.offload("ipsec1").processed >= frames - 17
        # Nothing vanished uncounted: every frame either reached the
        # host or was blackholed at the dead tile (which also sinks the
        # probe(s) the monitor had in flight when it died).
        blackholed = nic.offload("ipsec").blackholed
        assert len(delivered) + blackholed >= frames
        assert len(delivered) >= frames - 17
        assert nic.mesh.in_flight == 0

    def test_backup_crash_after_failover_detected_too(self, sim):
        """Double failure: the backup the first failover steered traffic
        onto dies as well; the monitor (watching both lanes) removes the
        hop entirely and traffic still reaches the host."""
        nic = failover_nic(sim)
        monitor = attach_health_monitor(nic, engines=["ipsec", "ipsec1"])
        monitor.start()
        FaultInjector(nic, FaultPlan()
                      .crash_engine(10 * US, "ipsec")
                      .crash_engine(30 * US, "ipsec1")).arm()
        sim.run(until_ps=50 * US)
        monitor.stop()
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        nic.inject(Packet(good_frame(dscp=10)))
        sim.run()
        assert monitor.detected.keys() == {"ipsec", "ipsec1"}
        assert monitor.detected["ipsec"] < monitor.detected["ipsec1"]
        assert nic.failovers == 2
        # ipsec1 had no backup of its own: the hop was cut, not
        # black-holed, so the late frame still lands in software.
        assert len(delivered) == 1
        assert nic.mesh.in_flight == 0

    def test_recover_inside_timeout_beats_the_watchdog(self, sim):
        """RECOVER races the heartbeat timeout and wins: the parked
        probes echo before the last echo's age crosses the line, so no
        failover happens."""
        nic = failover_nic(sim)
        monitor = attach_health_monitor(nic)
        monitor.start()
        FaultInjector(nic, FaultPlan()
                      .stall_engine(5 * US, "ipsec")
                      .recover_engine(7 * US, "ipsec")).arm()
        sim.run(until_ps=30 * US)
        monitor.stop()
        sim.run()
        assert monitor.detected == {}
        assert nic.failovers == 0

    def test_recover_after_timeout_loses_the_race(self, sim):
        """RECOVER lands after the watchdog already declared the engine
        dead: the failover stands, the late echo changes nothing, and
        clear() resumes probing without a second fire."""
        nic = failover_nic(sim)
        monitor = attach_health_monitor(nic)
        monitor.start()
        FaultInjector(nic, FaultPlan()
                      .stall_engine(5 * US, "ipsec")
                      .recover_engine(15 * US, "ipsec")).arm()
        sim.run(until_ps=14 * US)
        assert monitor.detected.keys() == {"ipsec"}
        declared_at = monitor.detected["ipsec"]
        assert declared_at < 15 * US  # the watchdog won the race
        assert nic.failovers == 1
        sim.run(until_ps=20 * US)
        # Recovery released the parked probe; its echo must not
        # resurrect the flow state or double-count a failure.
        assert monitor.failures_detected == 1
        monitor.clear("ipsec")
        sim.run(until_ps=40 * US)
        monitor.stop()
        sim.run()
        # Probing resumed against the healthy engine: no new fire.
        assert monitor.detected == {}
        assert monitor.failures_detected == 1
        assert nic.mesh.in_flight == 0


class TestCorruptionDetection:
    def test_corrupted_frame_dropped_and_counted(self, sim):
        """A link bit-flip in a checksummed byte is caught at the RMT
        classification point and dropped with accounting."""
        nic = failover_nic(sim, verify_checksums=True)
        # Flip a bit inside the UDP payload (offset 50 > the 42-byte
        # headers) of the next transfer on eth0's injection channel.
        plan = FaultPlan(seed=5).corrupt_link(
            0, "panic.mesh.inj_0_0", offset=50)
        FaultInjector(nic, plan).arm()
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        nic.inject(Packet(good_frame(payload=bytes(64), dscp=10)))
        nic.inject(Packet(good_frame(payload=bytes(64), dscp=10)))
        sim.run()
        assert nic.corrupt_drops == 1
        assert len(delivered) == 1  # only the clean frame survived
        assert nic.stats()["faults"]["link_corruptions"] == 1
        assert nic.mesh.in_flight == 0

    def test_checksum_verification_off_by_default(self, sim, nic):
        plan = FaultPlan(seed=5).corrupt_link(
            0, "panic.mesh.inj_0_0", offset=50)
        FaultInjector(nic, plan).arm()
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        nic.inject(Packet(good_frame(payload=bytes(64))))
        sim.run()
        # Without verify_checksums the mangled frame flows through.
        assert nic.corrupt_drops == 0
        assert len(delivered) == 1

    def test_dropped_flit_leaks_a_credit(self, sim, nic):
        plan = FaultPlan().drop_on_link(0, "panic.mesh.inj_0_0")
        FaultInjector(nic, plan).arm()
        nic.inject(Packet(good_frame()))
        sim.run()
        channel = nic.mesh.channel("panic.mesh.inj_0_0")
        assert channel.dropped_flits == 1
        assert channel.leaked_credits == 1
        assert channel.credit_deficit == 1
        assert "leaked" in nic.mesh.stuck_report()
        # stats() sums only channels a fault was ever armed on; that is
        # the same as summing every channel.
        assert nic.mesh.fault_channels == [channel]
        faults = nic.stats()["faults"]
        assert faults["link_drops"] == sum(
            ch.dropped_flits for ch in nic.mesh.channels) == 1
        assert faults["leaked_credits"] == 1
        assert channel._faults is None                   # spent, not armed

    def test_pifo_rank_corruption_counted(self, sim, nic):
        from repro.sim.rng import SeededRng

        ipsec = nic.offload("ipsec")
        ipsec.fail("stall")  # hold packets in the queue
        nic.control.route_dscp(10, ["ipsec"])
        for _ in range(5):
            nic.inject(Packet(good_frame(dscp=10)))
        sim.run()
        assert ipsec.queue.corrupt_ranks(SeededRng(1)) == 5
        assert ipsec.queue.rank_corruptions == 5
        ipsec.recover()
        sim.run()
        assert nic.mesh.in_flight == 0


class TestFaultPlan:
    def test_events_are_time_sorted(self):
        plan = (FaultPlan()
                .crash_engine(30 * US, "ipsec")
                .corrupt_link(10 * US, "ch")
                .recover_engine(50 * US, "ipsec"))
        assert [e.kind for e in plan.events()] == [
            "link_corrupt", "crash", "recover"]
        assert len(plan) == 3
        assert "crash ipsec" in plan.describe()

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().crash_engine(-1, "ipsec")
        with pytest.raises(ValueError):
            FaultPlan().slow_engine(0, "ipsec", factor=0)
        with pytest.raises(ValueError):
            FaultPlan().corrupt_link(0, "ch", bits=0)

    def test_unknown_target_fails_loudly(self, sim, nic):
        # Arm time, not run time: a typo'd plan must not silently never
        # fire, nor explode only when its event's timestamp comes up.
        with pytest.raises(KeyError, match="nope"):
            FaultInjector(nic, FaultPlan().crash_engine(0, "nope")).arm()
        assert sim.run() == 0  # nothing was scheduled

    def test_unknown_channel_fails_loudly_at_arm(self, sim, nic):
        with pytest.raises(ValueError, match="no_such_channel"):
            FaultInjector(
                nic, FaultPlan().drop_on_link(0, "no_such_channel")
            ).arm()

    def test_wire_kinds_rejected_by_single_nic_injector(self, sim, nic):
        with pytest.raises(ValueError, match="repro.faults.rack"):
            FaultInjector(
                nic, FaultPlan().wire_down(0, "wire_0_1")
            ).arm()

    def test_arming_twice_is_an_error(self, sim, nic):
        injector = FaultInjector(nic, FaultPlan())
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()

    def test_slow_and_recover(self, sim, nic):
        FaultInjector(nic, (
            FaultPlan()
            .slow_engine(0, "ipsec", factor=8.0)
            .recover_engine(20 * US, "ipsec")
        )).arm()
        sim.run()
        assert nic.offload("ipsec").slowdown == 1.0

    @pytest.mark.parametrize("engine", ["compression", "rmt"])
    def test_slowdown_multiplies_service_time_until_recover(self, engine):
        """DESIGN section 8: a slowdown is a service-time multiplier on
        whichever engine it names -- the RMT tile, which runs its own
        service loop, included."""
        def run(plan):
            sim = Simulator()
            nic = PanicNic(sim, PanicConfig(
                ports=1, telemetry=TelemetryConfig(sample_every=1)))
            nic.control.route_dscp(10, ["compression"])
            FaultInjector(nic, plan).arm()
            for i in range(10):
                sim.schedule_at((1 + i) * US, nic.inject,
                                Packet(good_frame(dscp=10)))
            sim.run()
            # Service time per visit: span end minus service start.
            tile = nic.offload(engine).name
            service = [end - dict(args)["service_start_ps"]
                       for _id, _seq, kind, component, _start, end, args
                       in nic.telemetry.tracer.report()
                       if kind == "engine" and component == tile]
            return sum(service) / len(service), sim.now

        nominal, finished = run(FaultPlan())
        slowed = run(FaultPlan().slow_engine(0, engine, factor=4.0))
        assert slowed[0] == 4 * nominal and slowed[1] > finished
        assert run(FaultPlan().slow_engine(0, engine, factor=4.0)
                   .recover_engine(0, engine)) == (nominal, finished)

    def test_flap_nic_goes_dark_and_comes_back(self, sim, nic):
        """``flap_nic`` is ``flap_wire``'s whole-NIC twin and the only
        caller of ``nic_up``: frames offered in the dark interval are
        dropped at the MAC and counted, frames after it get through."""
        FaultInjector(nic, FaultPlan().flap_nic(10 * US, 20 * US)).arm()
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(sim.now)
        for at_us in (5, 12, 15, 25):
            sim.schedule_at(at_us * US, nic.inject, Packet(good_frame()))
        sim.run()
        assert nic.stats()["faults"]["dark_rx_drops"] == 2
        assert len(delivered) == 2 and delivered[1] > 25 * US
        with pytest.raises(ValueError, match="come back up"):
            FaultPlan().flap_nic(20 * US, 20 * US)


class TestDeadlockDiagnostics:
    def test_exhausted_budget_raises_with_pending_summary(self, sim):
        from repro.sim.kernel import DeadlockError

        def forever():
            sim.schedule(1000, forever)

        sim.schedule(0, forever)
        with pytest.raises(DeadlockError, match="forever"):
            sim.run(max_events=10, on_max_events="raise")

    def test_exhausted_budget_returns_quietly_by_default(self, sim):
        def forever():
            sim.schedule(1000, forever)

        sim.schedule(0, forever)
        assert sim.run(max_events=10) == 10

    def test_quiesced_mesh_with_stuck_message_is_named(self, sim):
        from repro.noc import Endpoint, Mesh, MeshConfig
        from repro.noc.mesh import MeshStuckError

        class Refusing(Endpoint):
            def try_receive(self, packet):
                return False

        mesh = Mesh(sim, MeshConfig(width=2, height=1))

        class Source(Endpoint):
            def receive(self, packet):
                pass

        port = mesh.bind(Source(), 0, 0)
        mesh.bind(Refusing(), 1, 0)
        port.send(Packet(b"x" * 16), mesh.address_of(1, 0))
        sim.run()
        with pytest.raises(MeshStuckError) as excinfo:
            mesh.assert_drained()
        report = str(excinfo.value)
        assert "1 messages in flight" in report
        assert "router" in report

    def test_drained_mesh_passes(self, sim, nic):
        nic.inject(Packet(good_frame()))
        sim.run()
        nic.mesh.assert_drained()
        assert "fully drained" in nic.mesh.stuck_report()


class TestFullFaultRun:
    def test_fault_run_leaves_mesh_drained(self, sim):
        """The ISSUE acceptance check: a run combining every fault kind
        ends with 0 in-flight messages."""
        nic = failover_nic(sim)
        monitor = attach_health_monitor(nic)
        monitor.start()
        plan = (FaultPlan(seed=11)
                .slow_engine(5 * US, "compression", factor=4.0)
                .corrupt_link(8 * US, "panic.mesh.inj_0_0")
                .crash_engine(20 * US, "ipsec")
                .corrupt_pifo(25 * US, "ipsec1")
                .recover_engine(60 * US, "compression"))
        FaultInjector(nic, plan).arm()
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)

        def inject(i=0):
            if i >= 100:
                return
            nic.inject(Packet(good_frame(payload=bytes(64), dscp=10)))
            sim.schedule(500_000, inject, i + 1)

        inject()
        sim.run(until_ps=150 * US)
        monitor.stop()
        sim.run()
        assert nic.mesh.in_flight == 0
        assert nic.failovers == 1
        assert delivered  # traffic kept flowing through the faults
        stats = nic.stats()
        assert stats["faults"]["failed_engines"] == 1
        assert stats["faults"]["link_corruptions"] == 1

    def test_identical_plan_and_seed_reproduce_identical_stats(self):
        def run():
            sim = Simulator()
            nic = failover_nic(sim)
            monitor = attach_health_monitor(nic)
            monitor.start()
            plan = (FaultPlan(seed=9)
                    .crash_engine(15 * US, "ipsec")
                    .corrupt_link(3 * US, "panic.mesh.inj_0_0"))
            FaultInjector(nic, plan).arm()
            for i in range(40):
                sim.schedule_at(i * 400_000, nic.inject,
                                Packet(good_frame(payload=bytes(64), dscp=10)))
            sim.run(until_ps=80 * US)
            monitor.stop()
            sim.run()
            return nic.stats()

        assert run() == run()
