"""The on-chip network (NoC) substrate.

PANIC connects its engines with a lossless multi-hop 2D mesh (section
3.1.2): every engine contains a router, routers connect to their neighbours,
each hop adds one cycle of latency, and channels have a configurable bit
width that determines serialization time.  A message on the NoC is the
:class:`~repro.packet.packet.Packet` itself, its own envelope.

This package provides:

* :class:`Channel` -- a one-way link with serialization delay and
  credit-based backpressure (losslessness).
* :class:`Router` -- a 5-port input-queued router with dimension-ordered
  (XY) routing.
* :class:`Mesh` -- builds a ``width x height`` mesh of routers and binds
  endpoints to them.
* :class:`Crossbar` -- a single-switch alternative used by the "mesh vs
  crossbar" ablation.
* :mod:`repro.noc.analysis` -- the closed-form mesh model behind Table 3.
"""

from repro.noc.channel import Channel
from repro.noc.router import Router, Endpoint
from repro.noc.mesh import Mesh, MeshConfig
from repro.noc.crossbar import Crossbar
from repro.noc.analysis import MeshAnalysis, table3_rows, Table3Row

__all__ = [
    "Channel",
    "Crossbar",
    "Endpoint",
    "Mesh",
    "MeshAnalysis",
    "MeshConfig",
    "Router",
    "Table3Row",
    "table3_rows",
]
