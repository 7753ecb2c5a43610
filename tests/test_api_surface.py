"""Coverage for remaining API surface: DMA write path, doorbell edges,
control-plane error paths, rectangular meshes, CLI module entry."""

import pytest

from repro.core import PanicConfig, PanicNic
from repro.core.host import Host
from repro.engines import DmaEngine, PcieEngine
from repro.noc import Endpoint, Mesh, MeshConfig
from repro.packet import Packet, PanicHeader
from repro.packet.packet import Direction, MessageKind
from repro.sim import Simulator
from tests import udp_frame


class Sink(Endpoint):
    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def receive(self, packet):
        self.got.append(packet)


class TestDmaWritePath:
    def rig(self, sim):
        mesh = Mesh(sim, MeshConfig(width=3, height=1))
        dma = DmaEngine(sim, "dma")
        dma.bind_port(mesh.bind(dma, 0, 0))
        sink = Sink(sim)
        mesh.bind(sink, 1, 0)
        host = Host(sim, "h", mem_jitter_ps=0)
        dma.attach_host(host)
        return dma, sink, host

    def test_dma_write_stores_and_confirms(self, sim):
        dma, sink, host = self.rig(sim)
        write = Packet(b"", MessageKind.DMA_WRITE)
        write.meta.annotations.update(
            dma_key=b"log:0", dma_data=b"appended", reply_to=1
        )
        dma._loopback(write)
        sim.run()
        assert host.memory[b"log:0"] == b"appended"
        assert len(sink.got) == 1  # completion to reply_to
        assert sink.got[0].kind == MessageKind.DMA_COMPLETION

    def test_dma_write_without_reply_is_silent(self, sim):
        dma, sink, host = self.rig(sim)
        write = Packet(b"", MessageKind.DMA_WRITE)
        write.meta.annotations.update(dma_key=b"k", dma_data=b"v")
        dma._loopback(write)
        sim.run()
        assert host.memory[b"k"] == b"v"
        assert sink.got == []

    def test_dma_read_missing_key_completion_carries_none(self, sim):
        dma, sink, host = self.rig(sim)
        read = Packet(b"", MessageKind.DMA_READ)
        read.meta.annotations.update(dma_key=b"absent", reply_to=1)
        dma._loopback(read)
        sim.run()
        assert len(sink.got) == 1
        assert sink.got[0].meta.annotations.get("dma_data") is None

    def test_unclassified_message_follows_chain(self, sim):
        dma, sink, host = self.rig(sim)
        stray = Packet(b"\x00" * 64, MessageKind.ETHERNET)
        stray.meta.direction = Direction.TX  # not an RX write
        stray.panic = PanicHeader(chain=[1])
        dma._loopback(stray)
        sim.run()
        assert sink.got == [stray]


class TestPcieEdges:
    def test_doorbell_requires_dma_address(self, sim):
        pcie = PcieEngine(sim, "pcie")
        mesh = Mesh(sim, MeshConfig(width=1, height=1))
        pcie.bind_port(mesh.bind(pcie, 0, 0))
        with pytest.raises(RuntimeError):
            pcie.ring_doorbell(0)

    def test_non_completion_follows_chain(self, sim):
        mesh = Mesh(sim, MeshConfig(width=2, height=1))
        pcie = PcieEngine(sim, "pcie")
        pcie.bind_port(mesh.bind(pcie, 0, 0))
        sink = Sink(sim)
        mesh.bind(sink, 1, 0)
        stray = Packet(b"", MessageKind.CONTROL)
        stray.panic = PanicHeader(chain=[1])
        pcie._loopback(stray)
        sim.run()
        assert sink.got == [stray]

    def test_coalesce_validation(self, sim):
        with pytest.raises(ValueError):
            PcieEngine(sim, "bad1", coalesce_count=0)
        with pytest.raises(ValueError):
            PcieEngine(sim, "bad2", coalesce_timeout_ps=0)


class TestControlPlaneErrors:
    def test_unknown_engine_in_chain(self, nic):
        with pytest.raises(KeyError):
            nic.control.route_dscp(1, ["flux_capacitor"])

    def test_ipsec_route_requires_ipsec_engine(self, sim):
        nic = PanicNic(sim, PanicConfig(ports=1, offloads=()))
        with pytest.raises(KeyError):
            nic.control.enable_ipsec_rx()

    def test_raw_addresses_accepted_in_chains(self, sim, nic):
        addr = nic.offload("kvcache").address
        nic.control.route_dscp(2, [addr])  # ints pass through

    def test_addr_lookup(self, nic):
        assert nic.control.addr("dma") == nic.dma.address
        with pytest.raises(KeyError):
            nic.control.addr("ghost")


class TestRectangularMeshes:
    @pytest.mark.parametrize("width,height", [(6, 2), (2, 6), (5, 3)])
    def test_nic_builds_on_rectangles(self, width, height):
        sim = Simulator()
        nic = PanicNic(
            sim,
            PanicConfig(ports=1, mesh_width=width, mesh_height=height,
                        offloads=("kvcache",)),
            name=f"panic_{width}x{height}",
        )
        delivered = []
        nic.host.software_handler = lambda p, q: delivered.append(p)
        nic.inject(Packet(udp_frame(src_port=1, dst_port=2, payload=b"x")))
        sim.run()
        assert len(delivered) == 1


class TestModuleEntry:
    def test_main_module_importable(self):
        import importlib

        cli = importlib.import_module("repro.cli")
        assert callable(cli.main)

    def test_version_exposed(self):
        import repro

        assert repro.__version__
