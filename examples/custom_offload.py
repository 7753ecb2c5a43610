#!/usr/bin/env python
"""Writing your own offload engine.

PANIC's promise (section 3.1.1) is that *any* self-contained engine can
join the NIC: implement ``service_time_ps`` (the cost model) and
``handle`` (the transform), bind it to a mesh tile, and program a chain
through it.  This example adds a word-count telemetry engine that
annotates packets with payload statistics, then chains HTTP-ish traffic
through telemetry + checksum while other traffic skips both.

Run with::

    python examples/custom_offload.py
"""

from typing import List

from repro import PanicConfig, PanicNic, Simulator
from repro.engines import Engine
from repro.engines.base import EngineOutput
from repro.packet import Packet, build_udp_frame, parse_frame
from repro.sim.clock import US
from repro.telemetry import TelemetryConfig


class TelemetryEngine(Engine):
    """Counts words/bytes in UDP payloads (a toy DPI-style offload)."""

    def __init__(self, sim, name, **kwargs):
        super().__init__(sim, name, **kwargs)
        self.total_words = 0

    def service_time_ps(self, packet: Packet) -> int:
        # One byte per cycle plus fixed setup -- an honest cost model
        # keeps the scheduler's decisions meaningful.
        return self.clock.cycles_to_ps(8 + packet.frame_bytes)

    def handle(self, packet: Packet) -> List[EngineOutput]:
        payload = parse_frame(packet.data).payload
        words = len(payload.split())
        self.total_words += words
        packet.meta.annotations["telemetry"] = {
            "words": words,
            "bytes": len(payload),
        }
        return [(packet, None)]  # continue along the chain


def main() -> None:
    sim = Simulator()
    # Leave a spare tile for the custom engine: use a 4x4 mesh with a
    # smaller stock offload set.  Every packet is traced, so its path
    # can be read back.
    nic = PanicNic(sim, PanicConfig(
        ports=1, offloads=("checksum",),
        telemetry=TelemetryConfig(sample_every=1)))

    # Build and bind the custom engine on a free tile, then wire its
    # lookup-table default back to the heavyweight pipeline.
    telemetry = TelemetryEngine(sim, "panic.telemetry")
    port = nic.mesh.bind(telemetry, 2, 2)
    telemetry.bind_port(port)
    telemetry.lookup_table.default_next = nic.rmt.address
    nic.engines["telemetry"] = telemetry
    nic.control._addr_of["telemetry"] = telemetry.address

    # Chain DSCP-8 traffic through telemetry then checksum.
    nic.control.route_dscp(8, ["telemetry", "checksum"])

    delivered = []
    nic.host.software_handler = lambda p, q: delivered.append(p)

    def udp(payload: bytes, dscp: int) -> Packet:
        return Packet(build_udp_frame(
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1", dst_ip="10.0.0.2",
            src_port=1234, dst_port=80, payload=payload, dscp=dscp,
        ))

    monitored = udp(b"GET /index.html HTTP/1.1 Host: example", dscp=8)
    ordinary = udp(b"opaque bulk bytes", dscp=0)
    nic.inject(monitored)
    nic.inject(ordinary)
    sim.run()

    assert len(delivered) == 2
    path = nic.telemetry.tracer.path
    print("monitored path :", " -> ".join(path(monitored)))
    print("ordinary path  :", " -> ".join(path(ordinary)))
    print("telemetry      :", monitored.meta.annotations["telemetry"])
    print("words counted  :", telemetry.total_words)
    assert "panic.telemetry" in path(monitored)
    assert "panic.telemetry" not in path(ordinary)
    assert monitored.meta.annotations["csum_ok"] is True


if __name__ == "__main__":
    main()
