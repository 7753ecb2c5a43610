"""The PANIC reproduction's test suite, and the frame most of it sends."""

from functools import partial

from repro.packet import build_udp_frame

#: ``build_udp_frame`` between the two hosts most tests address.
udp_frame = partial(
    build_udp_frame, src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
    src_ip="10.0.0.1", dst_ip="10.0.0.2")
