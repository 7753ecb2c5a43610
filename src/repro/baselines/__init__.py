"""The three NIC architectures PANIC is compared with (Figure 2).

The paper argues that PANIC subsumes them (section 2.3), so each one is
a :class:`~repro.core.panic.PanicNic` with one mechanism taken away: the
same engines, mesh, DMA/PCIe, host and clock, so Fig. 2's comparisons
differ in architecture alone.  A traffic class is a DSCP; ``classes``
maps a DSCP to the offloads its frames need, in order, and a DSCP it
does not name needs none.

* :func:`pipeline_nic` -- offloads in a fixed line on the wire
  (Figure 2a).  Every class rides the whole line, and no slack policy is
  installed: every frame gets ``DEFAULT_SLACK_PS``, so each tile serves
  in arrival order and a slow frame blocks the frames behind it.
  ``bypass=True`` drops the offloads a class does not need from its
  chain.  A class whose order does not fit the line names the line twice
  (recirculation, a full extra traversal of on-NIC bandwidth).
* :func:`manycore_nic` -- an embedded core orchestrates every frame
  (Figure 2b): each chain interleaves the ``core`` tile between the
  offloads it calls, and the core tile's lanes are the cores.
* :func:`rmt_only_nic` -- the RMT pipeline, DMA and host, with no
  offload tile (Figure 2c).  It steers at F·P, and a route naming a
  payload offload has no tile to resolve to, so the control plane
  refuses it with a ``KeyError``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.core.config import PanicConfig
from repro.core.panic import PanicNic
from repro.sim.kernel import Simulator

#: Every value of the 6-bit IPv4 DSCP field: each class gets a route.
_DSCPS = range(64)


def _passes(line: Sequence[str], needs: Sequence[str]) -> int:
    """Traversals of ``line`` that serve ``needs`` in order: one, plus a
    recirculation whenever a need sits at or before the previous one."""
    passes, at = 1, 0
    for name in needs:
        if name not in line:
            raise ValueError(f"{name!r} is not on the line {tuple(line)}")
        index = line.index(name)
        if index < at:
            passes += 1
        at = index + 1
    return passes


def pipeline_nic(
    sim: Simulator,
    line: Sequence[str],
    classes: Mapping[int, Sequence[str]],
    bypass: bool = False,
    offload_params: Optional[Dict[str, dict]] = None,
) -> PanicNic:
    """Figure 2a: a static line of offloads between the wire and DMA."""
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=tuple(line), offload_params=offload_params or {},
    ), name="pipeline")
    for dscp in _DSCPS:
        needs = classes.get(dscp, ())
        stages = [name for name in line if name in needs] if bypass else line
        nic.control.route_dscp(dscp, list(stages) * _passes(line, needs))
    return nic


def manycore_nic(
    sim: Simulator,
    offloads: Sequence[str],
    classes: Mapping[int, Sequence[str]],
    cores: int = 8,
    offload_params: Optional[Dict[str, dict]] = None,
) -> PanicNic:
    """Figure 2b: a core sits before, between and after the offload
    calls, ``[core, offload_1, core, ..., core]``, then DMA."""
    params = {**(offload_params or {}), "core": {"lanes": cores}}
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("core", *offloads), offload_params=params,
    ), name="manycore")
    for dscp in _DSCPS:
        chain = ["core"]
        for name in classes.get(dscp, ()):
            chain += [name, "core"]
        nic.control.route_dscp(dscp, chain)
    return nic


def rmt_only_nic(sim: Simulator) -> PanicNic:
    """Figure 2c: a FlexNIC-style match+action pipeline, 2 pipelines
    wide, in front of DMA."""
    return PanicNic(sim, PanicConfig(ports=1, offloads=(), rmt_pipelines=2),
                    name="rmt_only")


__all__ = ["manycore_nic", "pipeline_nic", "rmt_only_nic"]
