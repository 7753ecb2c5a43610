"""Isolated probes: one layer at a time, fixed op counts, median of 5.

Each probe calls a public function of one layer in a loop and reports
host nanoseconds per operation.  They say what a layer costs when
nothing else runs; the traced pass says how much of a workload it is.
"""

from __future__ import annotations

import random
import time
from statistics import median
from typing import Callable, Dict

from repro.core import PanicConfig, PanicNic
from repro.lb.ring import HashRing
from repro.noc.mesh import Mesh, MeshConfig
from repro.noc.router import Endpoint
from repro.packet import Packet, build_udp_frame
from repro.packet.builder import parse_frame
from repro.packet.checksum import internet_checksum
from repro.sched.pifo import PifoQueue
from repro.sim import Simulator
from repro.sim.clock import US

REPEATS = 5


def _ns_per_op(work: Callable[[], int]) -> float:
    """``work()`` performs a fixed number of ops and returns how many;
    it is timed REPEATS times over the state its probe built once."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        ops = work()
        samples.append((time.perf_counter() - start) * 1e9 / ops)
    return median(samples)


def _frame(payload: bytes, src_port: int = 7777, ident: int = 0) -> bytes:
    return build_udp_frame(
        src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=src_port,
        dst_port=8888, payload=payload, dscp=1, identification=ident,
    )


def kernel_event() -> float:
    """schedule + fire of no-op events, half at the current timestamp
    and half in the future."""
    count = 20_000
    sim = Simulator()

    def nothing() -> None:
        pass

    def work() -> int:
        for i in range(count // 2):
            sim.schedule(0, nothing)
            sim.schedule(1000 + i, nothing)
        sim.run()
        return count

    return _ns_per_op(work)


def packet_build(payload_bytes: int) -> float:
    count = 1_000
    payload = bytes(payload_bytes)

    def work() -> int:
        for i in range(count):
            _frame(payload, ident=i & 0xFFFF)
        return count

    return _ns_per_op(work)


def packet_parse(payload_bytes: int) -> float:
    """Distinct frames, so ``parse_frame``'s 256-entry memo misses as
    it does on a stream of different packets."""
    count = 1_000
    frames = [_frame(bytes(payload_bytes), ident=i) for i in range(count)]

    def work() -> int:
        for data in frames:
            parse_frame(data)
        return count

    return _ns_per_op(work)


def checksum_kb() -> float:
    count = 5_000
    block = bytes(range(256)) * 4

    def work() -> int:
        for _ in range(count):
            internet_checksum(block)
        return count

    return _ns_per_op(work)


def rmt_process(memo: bool, flows: int, seed: int) -> float:
    """``RmtPipeline.process`` on the reference program, cycling over
    ``flows`` distinct 5-tuples (1 flow always hits the memo; 8192 flows
    exceed its 4096-entry cap)."""
    count = 1_024
    base_port = random.Random(seed).randrange(20_000, 50_000)
    frames = [_frame(bytes(64), src_port=base_port + flow)
              for flow in range(flows)]
    template = Packet(frames[0])
    metadata = {"direction": template.meta.direction.value.encode(),
                "kind": template.kind.value.encode(), "ingress_port": 0}
    nic = PanicNic(Simulator(), PanicConfig(ports=1, rmt_memo=memo))
    nic.control.route_dscp(1, ["ipsec"])
    pipeline = nic.rmt.pipeline
    for data in frames:  # first sight of every flow is not timed
        pipeline.process(data, metadata=metadata)
    cursor = [0]

    def work() -> int:
        start = cursor[0]
        for i in range(start, start + count):
            pipeline.process(frames[i % flows], metadata=metadata)
        cursor[0] = start + count
        return count

    return _ns_per_op(work)


def pifo_op(depth: int, seed: int) -> float:
    """One push + one pop with ``depth`` items resident."""
    count = 20_000
    rng = random.Random(seed)
    queue: PifoQueue = PifoQueue("probe")
    for _ in range(depth - 1):
        queue.push(None, rng.randrange(1 << 30))

    def work() -> int:
        for i in range(count):
            queue.push(None, i)
            queue.pop()
        return count

    return _ns_per_op(work)


class _Sink(Endpoint):
    def receive(self, message) -> None:
        pass


def noc_hop(fast_path: bool) -> float:
    """Corner-to-corner sends across a standalone 4x4 mesh, one message
    in flight at a time; per router hop."""
    count = 500
    side = 4
    hops = 2 * (side - 1) + 1

    sim = Simulator()
    mesh = Mesh(sim, MeshConfig(width=side, height=side,
                                fast_path=fast_path))
    port = mesh.bind(_Sink(), 0, 0)
    far = mesh.bind(_Sink(), side - 1, side - 1)
    data = _frame(bytes(200))

    def work() -> int:
        for i in range(count):
            sim.schedule(i * US, port.send, Packet(data), far.address)
        sim.run()
        return count * hops

    return _ns_per_op(work)


def ring_owner(seed: int) -> float:
    count = 20_000
    rng = random.Random(seed)
    keys = [rng.getrandbits(64) for _ in range(count)]

    ring = HashRing([1, 2, 3, 4])
    ring.owner(0)  # render the ring outside the timed loop

    def work() -> int:
        for key in keys:
            ring.owner(key)
        return count

    return _ns_per_op(work)


#: name -> probe taking the seed (it feeds generated keys, ranks, ports).
PROBES: Dict[str, Callable[[int], float]] = {
    "sim.kernel.ns_per_event": lambda seed: kernel_event(),
    "packet.build_ns_per_frame_64": lambda seed: packet_build(64 - 42),
    "packet.build_ns_per_frame_1500": lambda seed: packet_build(1500 - 42),
    "packet.parse_ns_per_frame_64": lambda seed: packet_parse(64 - 42),
    "packet.parse_ns_per_frame_1500": lambda seed: packet_parse(1500 - 42),
    "packet.checksum_ns_per_kb": lambda seed: checksum_kb(),
    "rmt.process_ns_memo_hit": lambda seed: rmt_process(True, 1, seed),
    "rmt.process_ns_memo_off": lambda seed: rmt_process(False, 1, seed),
    "rmt.process_ns_memo_thrash": lambda seed: rmt_process(True, 8_192, seed),
    "sched.pifo_ns_per_op_d1": lambda seed: pifo_op(1, seed),
    "sched.pifo_ns_per_op_d256": lambda seed: pifo_op(256, seed),
    "noc.hop_ns_express": lambda seed: noc_hop(fast_path=True),
    "noc.hop_ns_scalar": lambda seed: noc_hop(fast_path=False),
    "lb.ring_owner_ns": lambda seed: ring_owner(seed),
}


def run_all(seed: int) -> Dict[str, float]:
    return {name: probe(seed) for name, probe in PROBES.items()}
