"""A single-crossbar interconnect, for the mesh-vs-crossbar ablation.

Section 3.1.2 motivates the mesh by noting that "due to physical
constraints (e.g., wire length), it is not feasible to build a single large
switch ... when there are a large number of engines".  A behavioural
simulation cannot show wire length, so the crossbar model exposes the
*architectural* consequence instead: a crossbar's aggregate bandwidth is
fixed by its port count and per-port width, while a mesh's bisection scales
with the topology; and a large crossbar's clock frequency degrades with
port count (the ``freq_derating`` knob models the wire-length penalty).

The crossbar presents the same ``bind`` / ``NocPort`` interface as
:class:`~repro.noc.mesh.Mesh`, so NICs can be built over either fabric.
"""

from __future__ import annotations

from typing import Dict

from repro.noc.channel import Channel
from repro.noc.message import NocMessage
from repro.noc.router import Endpoint
from repro.packet.packet import Packet
from repro.sim.clock import MHZ, Clock
from repro.sim.kernel import Simulator


class _CrossbarPort:
    """Endpoint-side handle, mirroring :class:`repro.noc.mesh.NocPort`."""

    def __init__(self, crossbar: "Crossbar", endpoint: Endpoint):
        self._crossbar = crossbar
        self._endpoint = endpoint
        self.injected = 0

    @property
    def address(self) -> int:
        return self._endpoint.address

    def send(self, packet: Packet, dest_addr: int) -> NocMessage:
        message = NocMessage(packet, dest_addr)
        self.injected += 1
        self._crossbar.route(message)
        return message

    @property
    def backlog(self) -> int:
        return 0


class Crossbar:
    """A non-blocking crossbar with per-output serialization.

    Each output port is a :class:`Channel` clocked at the on-chip 500 MHz
    derated by the port count, modelling the wire-length penalty of large
    flat switches: ``freq = 500 MHz / (1 + derating * (ports - 1))``.
    """

    def __init__(
        self,
        sim: Simulator,
        ports: int,
        channel_bits: int = 64,
        freq_derating: float = 0.05,
        credits: int = 8,
        name: str = "xbar",
    ):
        if ports < 1:
            raise ValueError(f"crossbar needs at least one port, got {ports}")
        self.sim = sim
        self.name = name
        self.ports = ports
        self.channel_bits = channel_bits
        effective = 500 * MHZ / (1.0 + freq_derating * max(0, ports - 1))
        self.clock = Clock(effective)
        self.credits = credits
        self._endpoints: Dict[int, Endpoint] = {}
        self._outputs: Dict[int, Channel] = {}
        self._ser_cache: Dict[int, int] = {}
        self._next_address = 0
        self.routed = 0

    def bind(self, endpoint: Endpoint) -> _CrossbarPort:
        """Attach an endpoint; addresses are assigned sequentially."""
        if self._next_address >= self.ports:
            raise ValueError(f"crossbar has only {self.ports} ports")
        address = self._next_address
        self._next_address += 1
        endpoint.address = address
        self._endpoints[address] = endpoint
        self._outputs[address] = Channel(
            self.sim,
            f"{self.name}.out{address}",
            self.channel_bits,
            self.clock,
            self._deliver,
            credits=self.credits,
            ser_cache=self._ser_cache,
        )
        return _CrossbarPort(self, endpoint)

    def route(self, message: NocMessage) -> None:
        output = self._outputs.get(message.dest_addr)
        if output is None:
            raise ValueError(
                f"{self.name}: no endpoint at address {message.dest_addr}"
            )
        self.routed += 1
        output.submit(message)

    def _deliver(self, message: NocMessage, channel: Channel) -> None:
        endpoint = self._endpoints[message.dest_addr]
        channel.release_credit()
        endpoint.receive(message)

    @property
    def in_flight(self) -> int:
        return sum(channel.queue_len for channel in self._outputs.values())
