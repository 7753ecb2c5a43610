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

It also holds a tile to paying for its state, not its plumbing
(EXPERIMENTS.md E46):

* no router or channel is in the kernel's name registry, and their
  derived names are the strings they always were;
* every channel's ``deliver`` is its sink router's one bound
  ``on_deliver``, every port's ``notify_space`` and every link's
  ``on_drain`` that router's one bound ``pump``;
* a simulator has one ``schedule`` object, which every component and
  channel holds;
* engines of one frequency share one clock;
* no port wrapper exists: an engine's port is its tile's injection
  channel;
* the node's traced bytes stay under a ceiling.

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

import gc
import tracemalloc
from array import array

import pytest

import repro.noc.mesh
from repro.core import PanicConfig, PanicNic
from repro.engines.base import Engine
from repro.engines.ethernet import EthernetPort
from repro.noc.channel import Channel
from repro.packet.packet import MessageKind, Packet, PacketMetadata
from repro.sim import Simulator, stats
from repro.sim.clock import US
from repro.sim.kernel import Component, SimError
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


#: Traced bytes one incast node may allocate: 400,194 / 352,566 /
#: 345,398 on Python 3.10 / 3.11 / 3.12 when routers and channels were
#: registered components with stored names, per-router input dicts,
#: per-channel callbacks and a port wrapper per engine, and a clock per
#: engine; 299,628 / 255,456 / 250,096 without them.  Re-pin only
#: downward, with the cause.
NODE_BYTES_CEILING = 320_000


def test_routers_and_channels_are_not_registered():
    node = build_incast_node()
    nic = node.nic
    mesh = nic.mesh
    assert [router.name for router in mesh.routers[:2]] == [
        "nic0.mesh.r0_0", "nic0.mesh.r1_0"]
    assert {"nic0.mesh.inj_0_0", "nic0.mesh.ch_0_0_east",
            "nic0.mesh.ch_1_0_west", "nic0.mesh.ch_5_5_north"} \
        <= {channel.name for channel in mesh.channels}
    assert mesh.channel("nic0.mesh.ch_1_0_west").name \
        == "nic0.mesh.ch_1_0_west"
    names = ([router.name for router in mesh.routers]
             + [channel.name for channel in mesh.channels])
    assert len(names) == len(set(names)) == 36 + 120 + 35
    for name in names:
        Component(nic.sim, name)  # a registered name would raise
    # Engines stay registered: a second NIC of the same name raises.
    with pytest.raises(SimError):
        PanicNic(nic.sim, PanicConfig(ports=1), name="nic0")


def test_routers_bind_their_callbacks_once():
    node = build_incast_node()
    for router in node.nic.mesh.routers:
        assert router.on_deliver is router.on_deliver
        for channel in router._rr_inputs:
            assert channel.deliver is router.on_deliver, channel.name
        for channel in router._out.values():
            assert channel.on_drain is router.pump, channel.name
        if router.endpoint is not None:
            assert router.endpoint.notify_space is router.pump


def test_a_simulator_has_one_schedule():
    node = build_incast_node()
    nic = node.nic
    schedule = nic.sim.schedule
    assert schedule is nic.sim.schedule
    for engine in nic.engines.values():
        assert engine.schedule is schedule, engine.name
    for channel in nic.mesh.channels:
        assert channel.schedule is schedule, channel.name


def test_engines_of_one_frequency_share_one_clock():
    node = build_incast_node()
    engines = list(node.nic.engines.values())
    assert len(engines) == 35
    assert len({id(engine.clock) for engine in engines}) == 1


def test_a_port_is_its_tiles_injection_channel():
    node = build_incast_node()
    assert not hasattr(repro.noc.mesh, "NocPort")
    mesh = node.nic.mesh
    for engine in node.nic.engines.values():
        port = engine.port
        assert type(port) is Channel and port in mesh.channels
        assert port.address == engine.address
        assert port.name.startswith("nic0.mesh.inj_")


def test_node_bytes_stay_under_the_ceiling():
    build_incast_node()  # module-level memos fill here, not below
    gc.collect()
    tracemalloc.start()
    try:
        node = build_incast_node()
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert node.nic.mesh.config.width == 6
    assert allocated <= NODE_BYTES_CEILING, allocated


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
