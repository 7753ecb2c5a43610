"""Allocation census of one built rack NIC: what a build creates, counted.

A rack builds its NIC state once per node, so at 32 NICs bookkeeping
objects are most of the footprint (EXPERIMENTS.md E29).  This gate
builds one node in the ``rack_incast`` shape -- ``RackNode`` index 0 of
32 with tag flow identity (a 6x6 mesh, 31 Ethernet ports) plus its 31
cable ends -- and counts what no running code needs to be an object:

* ``Counter``: NIC-model and cable state counts in plain ints, so the
  build constructs none (1,395 per node before the conversion).
* rate meters on the MACs: an Ethernet port keeps only its latency
  trackers; the per-frame bit meters only tests ever read are gone.

It runs in well under a second, before the rest of the suite.
"""

from repro.engines.ethernet import EthernetPort
from repro.sim import Simulator, stats
from repro.sim.clock import US
from repro.workloads.rack import RackNode, rack_port
from repro.workloads.wire import LinkEnd

INCAST_NICS = 32


def build_incast_node() -> RackNode:
    sim = Simulator()
    node = RackNode(sim, "nic0", index=0, n_nics=INCAST_NICS, seed=1,
                    flow_id="tag")
    for peer in node.peers:
        LinkEnd(sim, node.nic, rack_port(0, peer), None, rack_port(peer, 0),
                8 * US, f"wire.nic0-nic{peer}")
    return node


def test_build_creates_no_counter(monkeypatch):
    created = []
    init = stats.Counter.__init__

    def counting_init(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(stats.Counter, "__init__", counting_init)
    node = build_incast_node()
    assert node.nic.mesh.config.width == 6
    assert len(created) == 0, f"{len(created)} Counters built"


def test_mac_ports_hold_only_latency_trackers():
    node = build_incast_node()
    ports = [engine for engine in node.nic.engines.values()
             if isinstance(engine, EthernetPort)]
    assert len(ports) == INCAST_NICS - 1
    for port in ports:
        owned = {type(value).__name__ for value in vars(port).values()
                 if type(value).__module__ == stats.__name__}
        assert owned == {"LatencyTracker"}, (port.name, owned)
