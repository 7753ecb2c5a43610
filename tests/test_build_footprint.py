"""Allocation census of rack NICs: what a build creates and what a run
keeps, counted.

A rack builds its NIC state once per node, so at 32 NICs bookkeeping
objects are most of the footprint (EXPERIMENTS.md E29).  The build gate
builds one node in the ``rack_incast`` shape -- ``RackNode`` index 0 of
32 with tag flow identity (a 6x6 mesh, 31 Ethernet ports) plus its 31
cable ends -- and counts what no running code needs to be an object:

* ``Counter``: NIC-model and cable state counts in plain ints, so the
  build constructs none (1,395 per node before the conversion).
* rate meters on the MACs: an Ethernet port keeps only its engine
  latency trackers; the per-frame bit meters only tests ever read are
  gone.

The run gate (EXPERIMENTS.md E30, E31) runs a plain 4-NIC rack and
checks what a frame leaves behind:

* nothing is retained per transmitted frame on a cabled NIC: each frame
  goes to its port's cable, once, and the NIC keeps only a count;
* an engine keeps one latency sample per service, as an int64, and no
  second per-visit tracker;
* no frame carries an annotations dict: the per-frame state (enqueue
  stamp, trail, RX queue, host timestamp, ingress mark) is typed slots.

Both run in well under a second, before the rest of the suite.
"""

from array import array

import pytest

from repro.engines.base import Engine
from repro.engines.ethernet import EthernetPort
from repro.packet.packet import MessageKind, Packet, PacketMetadata
from repro.sim import Simulator, stats
from repro.sim.clock import US
from repro.workloads.rack import RackNode, build_rack_nic, rack_port
from repro.workloads.wire import LinkEnd, Wire

INCAST_NICS = 32
RACK_NICS = 4
FRAMES = 5


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


def run_plain_rack():
    """A 4-NIC plain rack in one Simulator, run to the end: ``(nics,
    cable ends, the end entered by each cable call, every packet
    made)``."""
    entered = []
    transmit = LinkEnd._transmit
    packets = []
    init = Packet.__init__

    def counting_transmit(self, packet):
        entered.append(self)
        transmit(self, packet)

    def kept_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        packets.append(self)

    # Patched before the build: a cable binds its transmit method then.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LinkEnd, "_transmit", counting_transmit)
        patch.setattr(Packet, "__init__", kept_init)
        sim = Simulator()
        nics = [build_rack_nic(sim, f"nic{i}", frames=FRAMES, index=i,
                               n_nics=RACK_NICS, seed=1)[0]
                for i in range(RACK_NICS)]
        ends = []
        for a in range(RACK_NICS):
            for b in range(a + 1, RACK_NICS):
                wire = Wire(sim, nics[a], nics[b], name=f"wire.{a}-{b}",
                            port_a=rack_port(a, b), port_b=rack_port(b, a))
                ends.extend(wire.ends.values())
        sim.run()
    return nics, ends, entered, packets


def test_cabled_nics_keep_no_transmitted_frame():
    nics, _, _, _ = run_plain_rack()
    for nic in nics:
        assert nic.transmitted == [], nic.name


def test_nic_transmit_count_is_its_cables_sum():
    nics, ends, _, _ = run_plain_rack()
    for nic in nics:
        assert nic.stats()["nic"]["transmitted"] == nic.tx_frames == sum(
            end.transmitted for end in ends if end.nic is nic), nic.name
    # A plain rack sends no ACKs: FRAMES to each peer is every frame.
    assert sum(nic.tx_frames for nic in nics) \
        == RACK_NICS * (RACK_NICS - 1) * FRAMES


def test_each_frame_enters_one_cable_once():
    _, ends, entered, _ = run_plain_rack()
    assert len(entered) == sum(end.transmitted for end in ends) \
        == RACK_NICS * (RACK_NICS - 1) * FRAMES


def test_engines_keep_one_int64_sample_per_service():
    nics, _, _, _ = run_plain_rack()
    for nic in nics:
        for engine in nic.engines.values():
            assert isinstance(engine, Engine)
            assert not hasattr(engine, "service_latency"), engine.name
            samples = engine.queue_latency._samples
            assert isinstance(samples, array) and samples.itemsize == 8
            assert len(samples) == engine.processed, engine.name


def test_no_frame_carries_an_annotations_dict():
    _, _, _, packets = run_plain_rack()
    frames = [p for p in packets if p.kind is MessageKind.ETHERNET]
    assert len(frames) >= 2 * RACK_NICS * (RACK_NICS - 1) * FRAMES
    unset = PacketMetadata.annotations.__get__   # raises while unset
    for frame in frames:
        assert not hasattr(frame.meta, "__dict__")
        with pytest.raises(AttributeError):
            unset(frame.meta)
