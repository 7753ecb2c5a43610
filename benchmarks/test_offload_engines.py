"""Experiment E7 -- section 2.1's claim that "all different types [of
offloads] are potentially useful": per-engine functional+performance
characterization.

One bench per functional offload family, each measuring the engine's
real transformation plus the throughput its cost model yields -- the
numbers the chain-length and line-rate analyses consume.
"""

from repro.analysis import format_table
from repro.engines import (
    ChecksumEngine,
    CompressionEngine,
    IpsecEngine,
    IpsecSa,
    KvCacheEngine,
    RateLimiterEngine,
    RegexEngine,
)
from repro.packet import (
    KvOpcode,
    KvRequest,
    Packet,
    build_kv_request_frame,
    build_udp_frame,
)
from repro.sim import Simulator
from repro.sim.clock import SEC

from _util import banner, run_once

PAYLOAD = (b"The quick brown fox jumps over the lazy dog. " * 30)[:1024]


def frame(payload=PAYLOAD):
    return Packet(build_udp_frame(
        src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
        src_ip="10.0.0.1", dst_ip="10.0.0.2",
        src_port=7, dst_port=8, payload=payload,
    ))


def engine_goodput_gbps(engine, packet):
    """Bytes/sec the engine's cost model sustains on this packet."""
    service_ps = engine.service_time_ps(packet)
    return packet.frame_bytes * 8 * SEC / service_ps / 1e9


def test_offload_engine_characterization(benchmark):
    def run():
        sim = Simulator()
        rows = []

        ipsec = IpsecEngine(sim, "c.ipsec")
        ipsec.install_sa(IpsecSa(spi=1, key=b"k", tunnel_src="1.1.1.1",
                                 tunnel_dst="2.2.2.2"))
        packet = frame()
        encrypted = ipsec.encrypt(packet, 1)
        decrypted = ipsec.decrypt(encrypted)
        assert decrypted.data[14:] == packet.data[14:]
        rows.append(["ipsec", f"{engine_goodput_gbps(ipsec, packet):.1f}",
                     "ESP roundtrip verified"])

        comp = CompressionEngine(sim, "c.comp")
        packet = frame()
        packet.meta.annotations["compress"] = True
        compressed = comp.handle(packet)[0][0]
        ratio = compressed.frame_bytes / frame().frame_bytes
        restored = comp.handle(compressed)[0][0]
        assert restored.frame_bytes == frame().frame_bytes
        rows.append(["compression", f"{engine_goodput_gbps(comp, frame()):.1f}",
                     f"ratio {ratio:.2f} on text"])

        cache = KvCacheEngine(sim, "c.kv")
        cache.cache_put(b"key", b"x" * 256)
        get = build_kv_request_frame(KvRequest(KvOpcode.GET, 1, 1, b"key"))
        response = cache.handle(get)[0][0]
        assert response.meta.annotations.get("cache_hit")
        rows.append(["kvcache", f"{engine_goodput_gbps(cache, get):.1f}",
                     "LRU hit served"])

        dpi = RegexEngine(sim, "c.dpi", patterns=[b"fox", b"dog"])
        packet = frame()
        out = dpi.handle(packet)[0][0]
        matches = len(out.meta.annotations["dpi_matches"])
        rows.append(["regex (DPI)", f"{engine_goodput_gbps(dpi, packet):.1f}",
                     f"{matches} matches found"])

        csum = ChecksumEngine(sim, "c.csum")
        packet = frame()
        out = csum.handle(packet)[0][0]
        assert out.meta.annotations["csum_ok"]
        rows.append(["checksum", f"{engine_goodput_gbps(csum, packet):.1f}",
                     "IPv4+UDP verified"])

        limiter = RateLimiterEngine(sim, "c.rl")
        limiter.set_rate(1, rate_bps=10e9)
        rows.append(["ratelimit", "policy-defined",
                     "token-bucket pacing"])
        return rows

    rows = run_once(benchmark, run)
    banner("Sec 2.1: offload engine characterization "
           f"({len(PAYLOAD)}B payload)")
    print(format_table(["engine", "goodput (Gbps, cost model)", "functional check"],
                       rows))
    assert len(rows) == 6
