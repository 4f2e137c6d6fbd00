"""On-air bytes of each frame kind the simulator transmits, pinned.

The encoders take shortcuts (precomputed frame-control bytes, memoized
SSID / Supported Rates / DSSS elements, strip-based bitmap compression);
none of them may change a byte on air.
"""

import pytest

from repro.dot11.control import Ack, PsPoll
from repro.dot11.data import DataFrame
from repro.dot11.elements.btim import BtimElement
from repro.dot11.elements.dsss import DsssParameterElement
from repro.dot11.elements.tim import TimElement
from repro.dot11.information_element import RawInformationElement
from repro.dot11.mac_address import MacAddress
from repro.dot11.management import Beacon, UdpPortMessage
from repro.net.packet import build_broadcast_udp_packet

AP = MacAddress.from_string("02:aa:00:00:00:01")
STA = MacAddress.station(7)


def frames():
    ip_packet = build_broadcast_udp_packet(5353, b"mdns query")
    data = {
        more: DataFrame.broadcast_udp(
            bssid=AP,
            source=MacAddress.station(99),
            ip_packet=ip_packet,
            more_data=more,
            sequence=2049,
        )
        for more in (True, False)
    }
    return {
        # TIM with unicast AIDs and the group bit, a BTIM, one vendor element.
        "hide_beacon": Beacon(
            bssid=AP,
            timestamp_us=123456789,
            beacon_interval_tu=100,
            tim=TimElement(
                dtim_count=0,
                dtim_period=1,
                group_traffic_buffered=True,
                aids_with_traffic=frozenset({3, 17}),
            ),
            btim=BtimElement(frozenset({1, 9, 250})),
            ssid="hide-net",
            dsss=DsssParameterElement(11),
            sequence=4001,
            extra_elements=(RawInformationElement(221, b"\x00\x50\xf2\x01"),),
        ),
        "legacy_beacon": Beacon(
            bssid=AP,
            timestamp_us=102400,
            beacon_interval_tu=100,
            tim=TimElement(dtim_count=1, dtim_period=3),
            ssid="cafe",
            sequence=12,
        ),
        # 130 ports: one full Open UDP Ports element (127) plus a second.
        "port_message": UdpPortMessage(
            source=STA,
            bssid=AP,
            ports=frozenset(range(1000, 1130)),
            report_sequence=513,
            sequence=77,
        ),
        "ack": Ack(STA),
        "ps_poll": PsPoll(aid=5, bssid=AP, transmitter=STA),
        "data_more_data": data[True],
        "data_last": data[False],
    }


PINNED_HEX = {
    "hide_beacon": (
        "80000000ffffffffffff02aa0000000102aa0000000110fa15cd5b0700000000"
        "640001000008686964652d6e6574010482848b9603010b0506000101080002c9"
        "2100020200000000000000000000000000000000000000000000000000000000"
        "0004dd040050f201de38098d"
    ),
    "legacy_beacon": (
        "80000000ffffffffffff02aa0000000102aa00000001c0000090010000000000"
        "64000100000463616665010482848b960301060504010300000170911f"
    ),
    "port_message": (
        "f000000002aa0000000102000000000702aa00000001d0040102c8fe03e803e9"
        "03ea03eb03ec03ed03ee03ef03f003f103f203f303f403f503f603f703f803f9"
        "03fa03fb03fc03fd03fe03ff0400040104020403040404050406040704080409"
        "040a040b040c040d040e040f0410041104120413041404150416041704180419"
        "041a041b041c041d041e041f0420042104220423042404250426042704280429"
        "042a042b042c042d042e042f0430043104320433043404350436043704380439"
        "043a043b043c043d043e043f0440044104420443044404450446044704480449"
        "044a044b044c044d044e044f0450045104520453045404550456045704580459"
        "045a045b045c045d045e045f0460046104620463046404650466c80604670468"
        "0469182042c3"
    ),
    "ack": "d4000000020000000007ed73dc66",
    "ps_poll": "a40005c002aa00000001020000000007c5083e60",
    "data_more_data": (
        "08220000ffffffffffff02aa000000010200000000631080aaaa030000000800"
        "45000026000000000111f808c0a80117ffffffffc00014e9001284f96d646e73"
        "2071756572792eaa3d76"
    ),
    "data_last": (
        "08020000ffffffffffff02aa000000010200000000631080aaaa030000000800"
        "45000026000000000111f808c0a80117ffffffffc00014e9001284f96d646e73"
        "207175657279ba58460c"
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_HEX))
def test_on_air_bytes_unchanged(name):
    assert frames()[name].to_bytes().hex() == PINNED_HEX[name]


def test_port_message_needs_two_elements():
    assert len(frames()["port_message"].elements()) == 2


@pytest.mark.parametrize("name", sorted(PINNED_HEX))
def test_pinned_bytes_decode_to_the_same_frame(name):
    frame = frames()[name]
    assert type(frame).from_bytes(bytes.fromhex(PINNED_HEX[name])) == frame
