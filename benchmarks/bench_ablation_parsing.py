"""Ablation: byte-level UDP port extraction vs pre-decoded lookup.

Algorithm 1 runs on every buffered frame at every DTIM; this measures
what the byte-accurate LLC/SNAP + IPv4 + UDP parsing path costs compared
to reading a cached attribute, i.e. the price of realism in the AP model.
The parsing arm calls the byte parser itself: ``DataFrame.udp_dst_port``
memoizes its answer on the frame, so timing it would time memo reads.
"""

from repro.dot11.data import DataFrame
from repro.dot11.mac_address import MacAddress
from repro.net.packet import (
    build_broadcast_udp_packet,
    extract_udp_dst_port_from_dot11_body,
)

BSSID = MacAddress.from_string("02:aa:00:00:00:01")
SRC = MacAddress.from_string("02:bb:00:00:00:99")

FRAMES = [
    DataFrame.broadcast_udp(
        bssid=BSSID,
        source=SRC,
        ip_packet=build_broadcast_udp_packet(5353 + (i % 7), b"x" * 180),
    )
    for i in range(100)
]


def test_parse_ports_from_bytes(benchmark):
    def parse_all():
        return [
            extract_udp_dst_port_from_dot11_body(frame.llc_payload)
            for frame in FRAMES
        ]

    ports = benchmark(parse_all)
    assert all(p is not None for p in ports)


def test_cached_port_lookup_baseline(benchmark):
    cached = {id(frame): frame.udp_dst_port() for frame in FRAMES}

    def read_all():
        return [cached[id(frame)] for frame in FRAMES]

    ports = benchmark(read_all)
    assert all(p is not None for p in ports)
