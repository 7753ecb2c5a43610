"""Shared helpers for the benchmark/experiment harness.

Every bench reproduces one paper artifact (table, figure, or named
claim), prints the reproduced numbers next to the paper's, and asserts
the qualitative *shape* (who wins, by roughly what factor).
"""

from __future__ import annotations

from repro.packet import Packet, build_udp_frame


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def plain_udp_packet(
    payload: bytes = b"data",
    src_ip: str = "10.0.0.1",
    dst_ip: str = "10.0.0.2",
    src_port: int = 7777,
    dst_port: int = 8888,
    dscp: int = 0,
    seq: int = 0,
) -> Packet:
    """A plain (non-KV) UDP test frame."""
    frame = build_udp_frame(
        src_mac="02:00:00:00:00:01",
        dst_mac="02:00:00:00:00:02",
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        payload=payload,
        dscp=dscp,
        identification=seq & 0xFFFF,
    )
    packet = Packet(frame)
    packet.meta.annotations["seq"] = seq
    return packet


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    Simulation experiments are deterministic; repeating them only burns
    wall-clock, so every bench uses one round / one iteration.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
