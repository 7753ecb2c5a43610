"""Shared fixtures for the PANIC reproduction test suite, and its order."""

import pytest

from repro.core import PanicConfig, PanicNic
from repro.sim import Simulator

#: The gates, run first and in this order so ``pytest -x`` fails in
#: seconds on what the rest is built on: the event kernel; the hot path
#: (engine-visit and NoC-hop budgets, NoC golden, fast == per-hop); the
#: surface and footprint census; the RMT pass, codec, checksum tile and
#: the tiles' one RX verdict and frame rewrites; the train lane; one
#: heartbeat rule with the rack and engine goldens; one observation
#: slot; the Fig. 2 baselines; WFQ and the scheduler verbs.  Every other
#: test follows, in file order.
GATES = tuple(f"tests/test_{name}" for name in """
    sim_kernel.py kernel_properties.py kernel_call_budget.py
    kernel_pinning.py engine_call_budget.py noc_call_budget.py
    noc_golden.py fast_path_equivalence.py dead_surface.py
    build_footprint.py rmt.py rmt_memo.py rmt_properties.py
    rmt_call_budget.py process_state.py engine_offloads.py
    codec_golden.py rx_verdict.py frame_rewrite.py codec_call_budget.py
    rack_tag.py batched_execution.py monitor_contract.py
    robustness.py::TestHealthMonitor lb.py rack_golden.py
    engine_golden.py telemetry.py int.py telemetry_call_budget.py
    trace_ctx.py observation_slot.py baselines.py wfq_control.py
    control_verbs.py sched.py""".split())


def pytest_collection_modifyitems(items):
    def rank(item):
        return next((index for index, gate in enumerate(GATES)
                     if item.nodeid.startswith(gate)), len(GATES))

    items.sort(key=rank)


@pytest.fixture
def sim():
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def nic(sim):
    """A single-port PANIC NIC with the default offload set."""
    return PanicNic(sim, PanicConfig(ports=1, mesh_width=4, mesh_height=4))
