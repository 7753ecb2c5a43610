"""Tests for the live WFQ slack programming (control-plane level)."""

import pytest

from repro.core import PanicConfig, PanicNic
from repro.packet import KvOpcode, KvRequest, build_kv_request_frame
from repro.rmt.table import TableError
from repro.sim import Simulator
from repro.sim.clock import US


def wfq_deadlines(*calls, tenant=2, gets=3):
    """The deadlines a fresh NIC stamps on ``gets`` GETs of ``tenant``
    after the ``enable_wfq`` calls ``calls``, each ``(weights, cost_ps)``."""
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1, mesh_width=4, mesh_height=4))
    for weights, cost_ps in calls:
        nic.control.enable_wfq(weights, cost_ps=cost_ps)
    packets = [build_kv_request_frame(KvRequest(KvOpcode.GET, tenant, i, b"k"))
               for i in range(gets)]
    for packet in packets:
        nic.inject(packet)
    sim.run()
    return [packet.panic.slack_ps for packet in packets]


class TestEnableWfq:
    def test_action_installed_once(self, nic):
        nic.control.enable_wfq({1: 2.0}, cost_ps=1000)
        nic.control.enable_wfq({2: 1.0}, cost_ps=1000)
        assert "wfq_slack" in nic.control.program.actions
        assert nic.control.program.table("tenant_slack").size == 2

    def test_deadlines_reflect_weights(self, sim, nic):
        nic.control.enable_wfq({1: 4.0, 2: 1.0}, cost_ps=4 * US)
        packets = {}
        for tenant in (1, 2):
            for i in range(3):
                packet = build_kv_request_frame(
                    KvRequest(KvOpcode.GET, tenant, tenant * 10 + i, b"k")
                )
                packets.setdefault(tenant, []).append(packet)
                nic.inject(packet)
        sim.run()
        # After three packets each, the light tenant's virtual time has
        # advanced 4x further, so its later deadlines are later.
        heavy_last = packets[1][-1].panic.slack_ps
        light_last = packets[2][-1].panic.slack_ps
        assert light_last > heavy_last

    def test_deadlines_monotonic_per_tenant(self, sim, nic):
        nic.control.enable_wfq({3: 1.0}, cost_ps=4 * US)
        packets = []
        for i in range(4):
            packet = build_kv_request_frame(
                KvRequest(KvOpcode.GET, 3, i, b"k")
            )
            packets.append(packet)
            nic.inject(packet)
        sim.run()
        deadlines = [p.panic.slack_ps for p in packets]
        assert deadlines == sorted(deadlines)

    def test_invalid_weights_rejected(self, nic):
        with pytest.raises(ValueError):
            nic.control.enable_wfq({1: 0.0})

    def test_invalid_cost_rejected(self, nic):
        for cost_ps in (0, -4 * US):
            with pytest.raises(ValueError):
                nic.control.enable_wfq({1: 1.0}, cost_ps=cost_ps)
        with pytest.raises(ValueError):
            nic.control.enable_wfq({1: -2.0}, cost_ps=4 * US)
        with pytest.raises(ValueError):  # an increment under 1 ps
            nic.control.enable_wfq({1: 2000.0}, cost_ps=1000)
        assert nic.control.program.table("tenant_slack").size == 0

    def test_register_only_when_enabled(self, nic):
        assert "wfq_finish" not in nic.control.program.registers
        nic.control.enable_wfq({1: 1.0})
        nic.control.enable_wfq({2: 1.0})
        assert len(nic.control.program.registers["wfq_finish"]) == 1 << 16


class TestWfqCallsCompose:
    def test_second_call_weights_honoured(self):
        one_call = wfq_deadlines(({1: 1.0, 2: 4.0}, 4 * US))
        assert one_call == [1_064_720, 2_064_720, 3_064_720]
        assert wfq_deadlines(({1: 1.0}, 4 * US), ({2: 4.0}, 4 * US)) == one_call

    def test_second_call_cost_honoured(self):
        deadlines = wfq_deadlines(({1: 1.0}, 4 * US), ({2: 1.0}, 8 * US))
        assert deadlines == wfq_deadlines(({2: 1.0}, 8 * US))
        assert [b - a for a, b in zip(deadlines, deadlines[1:])] == [8 * US] * 2

    def test_tenant_installed_twice_raises(self, nic):
        nic.control.enable_wfq({1: 1.0})
        with pytest.raises(TableError):
            nic.control.enable_wfq({1: 2.0})
        with pytest.raises(TableError):
            nic.control.set_tenant_slack(1, 10 * US)
