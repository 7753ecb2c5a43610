"""Functional tests for the offload engines (IPSec, compression, KV
cache, checksum, regex) -- they transform real bytes, so we assert real
round trips, not just counters."""

import pytest

from repro.engines import (
    AhoCorasick,
    ChecksumEngine,
    CompressionEngine,
    CompressionError,
    IpsecEngine,
    IpsecError,
    IpsecSa,
    KvCacheEngine,
    RegexEngine,
    compress,
    decompress,
    keystream,
)
from repro.packet import (
    IP_PROTO_ESP,
    KvOpcode,
    KvRequest,
    KvStatus,
    Packet,
    build_kv_request_frame,
    build_udp_frame,
    parse_frame,
)
from repro.packet.packet import Direction, PacketMetadata
from repro.sim import Simulator


def udp_packet(payload=b"payload", dscp=0):
    return Packet(
        build_udp_frame(
            src_mac="02:00:00:00:00:01",
            dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1",
            dst_ip="10.9.0.2",
            src_port=5555,
            dst_port=6666,
            payload=payload,
            dscp=dscp,
        )
    )


def has_annotations(packet):
    """Whether the frame's lazy ``meta.annotations`` dict was made."""
    try:
        PacketMetadata.annotations.__get__(packet.meta)
    except AttributeError:
        return False
    return True


@pytest.fixture
def ipsec(sim):
    engine = IpsecEngine(sim, "ipsec")
    engine.install_sa(
        IpsecSa(spi=0x100, key=b"secret", tunnel_src="1.1.1.1", tunnel_dst="2.2.2.2")
    )
    return engine


class TestIpsec:
    def test_encrypt_decrypt_roundtrip(self, ipsec):
        original = udp_packet(b"top secret payload")
        encrypted = ipsec.encrypt(original, 0x100)
        outer = parse_frame(encrypted.data)
        assert outer.ipv4.protocol == IP_PROTO_ESP
        assert outer.esp.spi == 0x100
        assert b"top secret" not in encrypted.data
        decrypted = ipsec.decrypt(encrypted)
        assert parse_frame(decrypted.data).payload == b"top secret payload"

    def test_tunnel_endpoints_from_sa(self, ipsec):
        encrypted = ipsec.encrypt(udp_packet(), 0x100)
        outer = parse_frame(encrypted.data)
        assert str(outer.ipv4.src) == "1.1.1.1"
        assert str(outer.ipv4.dst) == "2.2.2.2"

    def test_sequence_numbers_increment(self, ipsec):
        first = ipsec.encrypt(udp_packet(), 0x100)
        second = ipsec.encrypt(udp_packet(), 0x100)
        assert parse_frame(first.data).esp.seq == 1
        assert parse_frame(second.data).esp.seq == 2

    def test_same_plaintext_different_ciphertext(self, ipsec):
        a = ipsec.encrypt(udp_packet(b"same"), 0x100)
        b = ipsec.encrypt(udp_packet(b"same"), 0x100)
        assert a.data != b.data  # seq feeds the keystream

    def test_tampered_ciphertext_fails_auth(self, ipsec):
        encrypted = ipsec.encrypt(udp_packet(), 0x100)
        tampered = bytearray(encrypted.data)
        tampered[-10] ^= 0x01
        with pytest.raises(IpsecError):
            ipsec.decrypt(Packet(bytes(tampered)))
        assert ipsec.auth_failures == 1

    def test_unknown_spi_rejected(self, ipsec):
        with pytest.raises(IpsecError):
            ipsec.encrypt(udp_packet(), 0x999)

    def test_handle_classifies_esp_for_decrypt(self, ipsec):
        encrypted = ipsec.encrypt(udp_packet(b"x"), 0x100)
        outputs = ipsec.handle(encrypted)
        assert len(outputs) == 1
        assert ipsec.decrypted == 1
        assert parse_frame(outputs[0][0].data).payload == b"x"

    def test_handle_encrypts_on_annotation(self, ipsec):
        packet = udp_packet()
        packet.meta.annotations["ipsec_spi"] = 0x100
        outputs = ipsec.handle(packet)
        assert ipsec.encrypted == 1
        assert parse_frame(outputs[0][0].data).ipv4.protocol == IP_PROTO_ESP

    def test_handle_passthrough_for_plain_traffic(self, ipsec):
        packet = udp_packet()
        outputs = ipsec.handle(packet)
        assert outputs[0][0] is packet
        assert not has_annotations(packet)

    def test_service_time_scales_with_size(self, ipsec):
        small = udp_packet(b"x")
        large = udp_packet(b"x" * 1000)
        assert ipsec.service_time_ps(large) > ipsec.service_time_ps(small)

    def test_keystream_deterministic(self):
        assert keystream(b"k", 1, 2, 64) == keystream(b"k", 1, 2, 64)
        assert keystream(b"k", 1, 2, 64) != keystream(b"k", 1, 3, 64)

    def test_duplicate_sa_rejected(self, ipsec):
        with pytest.raises(ValueError):
            ipsec.install_sa(
                IpsecSa(spi=0x100, key=b"k", tunnel_src="1.1.1.1",
                        tunnel_dst="2.2.2.2")
            )


class TestCompressionCodec:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"a",
            b"abcabcabcabcabcabc",
            b"the quick brown fox " * 50,
            bytes(range(256)),
            b"\x00" * 1000,
        ],
    )
    def test_roundtrip(self, data):
        assert decompress(compress(data)) == data

    def test_repetitive_data_shrinks(self):
        data = b"hello world, " * 100
        assert len(compress(data)) < len(data) // 2

    def test_bad_magic_rejected(self):
        with pytest.raises(CompressionError):
            decompress(b"XXX\x00\x00\x00\x00")

    def test_truncated_stream_rejected(self):
        blob = compress(b"hello hello hello hello")
        with pytest.raises(CompressionError):
            decompress(blob[:-2])

    def test_length_mismatch_detected(self):
        blob = bytearray(compress(b"aaaaaaaaaaaaaaaa"))
        blob[3:7] = (999).to_bytes(4, "big")
        with pytest.raises(CompressionError):
            decompress(bytes(blob))


class TestCompressionEngine:
    def test_compress_annotation_transforms_frame(self, sim):
        engine = CompressionEngine(sim, "comp")
        packet = udp_packet(b"abc " * 100)
        packet.meta.annotations["compress"] = True
        out = engine.handle(packet)[0][0]
        assert out.frame_bytes < packet.frame_bytes
        assert engine.compressed == 1

    def test_decompress_on_magic(self, sim):
        engine = CompressionEngine(sim, "comp")
        packet = udp_packet(b"abc " * 100)
        packet.meta.annotations["compress"] = True
        compressed = engine.handle(packet)[0][0]
        restored = engine.handle(compressed)[0][0]
        assert parse_frame(restored.data).payload == b"abc " * 100

    def test_incompressible_payload_passes_unchanged(self, sim):
        import os

        engine = CompressionEngine(sim, "comp")
        packet = udp_packet(bytes(os.urandom(64)))
        packet.meta.annotations["compress"] = True
        out = engine.handle(packet)[0][0]
        assert out is packet

    def test_plain_payload_passes_without_annotations(self, sim):
        engine = CompressionEngine(sim, "comp")
        packet = udp_packet(b"abc " * 100)
        assert engine.handle(packet)[0][0] is packet
        assert not has_annotations(packet)

    def test_non_udp_passthrough(self, sim):
        engine = CompressionEngine(sim, "comp")
        packet = Packet(b"\x00" * 60)
        assert engine.handle(packet)[0][0] is packet

    def test_bytes_saved_counter(self, sim):
        engine = CompressionEngine(sim, "comp")
        packet = udp_packet(b"abc " * 100)
        packet.meta.annotations["compress"] = True
        engine.handle(packet)
        assert engine.bytes_saved > 0


class TestKvCacheEngine:
    def test_lru_eviction(self, sim):
        cache = KvCacheEngine(sim, "kv", capacity_bytes=30)
        cache.cache_put(b"a", b"0123456789")  # 11 bytes
        cache.cache_put(b"b", b"0123456789")
        cache.cache_get(b"a")  # refresh a
        cache.cache_put(b"c", b"0123456789")  # evicts b (LRU)
        assert cache.cache_get(b"b") is None
        assert cache.cache_get(b"a") is not None
        assert cache.evictions == 1

    def test_capacity_accounting_on_update(self, sim):
        cache = KvCacheEngine(sim, "kv", capacity_bytes=100)
        cache.cache_put(b"k", b"x" * 50)
        cache.cache_put(b"k", b"y" * 10)
        assert cache._used_bytes == 11

    def test_oversized_entry_rejected(self, sim):
        cache = KvCacheEngine(sim, "kv", capacity_bytes=10)
        with pytest.raises(ValueError):
            cache.cache_put(b"k", b"x" * 100)

    def test_get_hit_builds_response(self, sim):
        cache = KvCacheEngine(sim, "kv")
        cache.cache_put(b"key", b"val")
        request = build_kv_request_frame(KvRequest(KvOpcode.GET, 7, 55, b"key"))
        outputs = cache.handle(request)
        response = parse_frame(outputs[0][0].data).kv_response()
        assert response.status == KvStatus.OK
        assert response.value == b"val"
        assert response.request_id == 55
        assert cache.hits == 1

    def test_get_response_swaps_addressing(self, sim):
        cache = KvCacheEngine(sim, "kv")
        cache.cache_put(b"key", b"val")
        request = build_kv_request_frame(KvRequest(KvOpcode.GET, 7, 55, b"key"))
        req_frame = parse_frame(request.data)
        out = cache.handle(request)[0][0]
        resp_frame = parse_frame(out.data)
        assert resp_frame.ipv4.dst == req_frame.ipv4.src
        assert resp_frame.udp.dst_port == req_frame.udp.src_port

    def test_get_miss_continues_chain(self, sim):
        cache = KvCacheEngine(sim, "kv")
        request = build_kv_request_frame(KvRequest(KvOpcode.GET, 7, 55, b"nope"))
        outputs = cache.handle(request)
        assert outputs[0][0] is request
        assert cache.misses == 1

    def test_set_writes_through_only_hot_keys(self, sim):
        cache = KvCacheEngine(sim, "kv")
        cache.cache_put(b"hot", b"old")
        hot_set = build_kv_request_frame(
            KvRequest(KvOpcode.SET, 7, 1, b"hot", b"new")
        )
        cold_set = build_kv_request_frame(
            KvRequest(KvOpcode.SET, 7, 2, b"cold", b"value")
        )
        cache.handle(hot_set)
        cache.handle(cold_set)
        assert cache.cache_get(b"hot") == b"new"
        assert cache.cache_get(b"cold") is None
        assert cache.writethroughs == 1

    def test_delete_invalidates(self, sim):
        cache = KvCacheEngine(sim, "kv")
        cache.cache_put(b"k", b"v")
        request = build_kv_request_frame(KvRequest(KvOpcode.DELETE, 7, 3, b"k"))
        cache.handle(request)
        assert cache.cache_get(b"k") is None

    def test_non_kv_traffic_passthrough(self, sim):
        cache = KvCacheEngine(sim, "kv")
        packet = udp_packet()
        assert cache.handle(packet)[0][0] is packet


class TestChecksumEngine:
    def test_rx_valid_checksum_annotated(self, sim):
        engine = ChecksumEngine(sim, "csum")
        packet = udp_packet()
        out = engine.handle(packet)[0][0]
        assert out.meta.annotations["csum_ok"] is True
        assert engine.verified == 1

    def test_rx_corrupted_detected(self, sim):
        engine = ChecksumEngine(sim, "csum")
        raw = bytearray(udp_packet(b"payload!").data)
        raw[-1] ^= 0xFF  # flip payload byte; UDP checksum now wrong
        out = engine.handle(Packet(bytes(raw)))[0][0]
        assert out.meta.annotations["csum_ok"] is False
        assert engine.bad_checksums == 1

    def test_tx_regenerates_checksums(self, sim):
        engine = ChecksumEngine(sim, "csum")
        packet = udp_packet(b"data")
        packet.meta.direction = Direction.TX
        out = engine.handle(packet)[0][0]
        assert out is not packet and out.meta is packet.meta
        assert engine.generated == 1
        out.meta.direction = Direction.RX  # now verify like a receiver
        verify = ChecksumEngine(sim, "csum2")
        checked = verify.handle(out)[0][0]
        assert checked.meta.annotations["csum_ok"] is True

    def test_non_ip_passthrough(self, sim):
        engine = ChecksumEngine(sim, "csum")
        packet = Packet(b"\x00" * 60)
        assert engine.handle(packet)[0][0] is packet


class TestAhoCorasick:
    def test_overlapping_patterns(self):
        ac = AhoCorasick([b"he", b"she", b"his", b"hers"])
        hits = {idx for _end, idx in ac.search(b"ushers")}
        assert hits == {0, 1, 3}  # he, she, hers

    def test_no_match(self):
        assert AhoCorasick([b"xyz"]).search(b"abcabc") == []

    def test_match_positions(self):
        ac = AhoCorasick([b"ab"])
        assert ac.search(b"abab") == [(2, 0), (4, 0)]

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            AhoCorasick([b""])


class TestRegexEngine:
    def test_annotates_matches(self, sim):
        engine = RegexEngine(sim, "dpi", patterns=[b"attack"])
        packet = udp_packet(b"this is an attack payload")
        out = engine.handle(packet)[0][0]
        matches = out.meta.annotations["dpi_matches"]
        assert any(pattern == b"attack" for _end, pattern in matches)

    def test_block_pattern_drops(self, sim):
        engine = RegexEngine(sim, "dpi", block_patterns=[b"EVIL"])
        packet = udp_packet(b"xxEVILxx")
        assert engine.handle(packet) == []
        assert engine.blocked == 1

    def test_watch_pattern_does_not_drop(self, sim):
        engine = RegexEngine(
            sim, "dpi", patterns=[b"watch"], block_patterns=[b"EVIL"]
        )
        packet = udp_packet(b"just watch me")
        outputs = engine.handle(packet)
        assert len(outputs) == 1

    def test_no_patterns_passthrough(self, sim):
        engine = RegexEngine(sim, "dpi")
        packet = udp_packet(b"anything")
        assert engine.handle(packet)[0][0] is packet
