import pytest

from repro.errors import ConfigurationError
from repro.station.udp_sockets import UdpSocketTable


class TestSocketTable:
    def test_open_and_report(self):
        table = UdpSocketTable()
        table.open_port(5353)
        table.open_port(1900)
        assert table.reportable_ports() == frozenset({5353, 1900})

    def test_specific_binding_not_reported(self):
        # Paper §III-B: only INADDR_ANY sockets go in the UDP Port Message.
        table = UdpSocketTable()
        table.open_port(5353, inaddr_any=True)
        table.open_port(8080, inaddr_any=False)
        assert table.reportable_ports() == frozenset({5353})
        assert table.open_ports() == frozenset({5353, 8080})

    def test_broadcast_delivery(self):
        table = UdpSocketTable()
        table.open_port(5353, inaddr_any=True)
        table.open_port(8080, inaddr_any=False)
        assert table.delivers_broadcast_on(5353)
        assert not table.delivers_broadcast_on(8080)
        assert not table.delivers_broadcast_on(9999)

    def test_close(self):
        table = UdpSocketTable()
        table.open_port(5353)
        table.close_port(5353)
        assert not table.delivers_broadcast_on(5353)
        assert table.reportable_ports() == frozenset()
        table.open_port(5353)  # the port is free again
        assert table.opens == 2
        assert table.closes == 1

    def test_double_open_rejected(self):
        table = UdpSocketTable()
        table.open_port(5353)
        with pytest.raises(ConfigurationError):
            table.open_port(5353)

    def test_close_unopened_rejected(self):
        table = UdpSocketTable()
        with pytest.raises(ConfigurationError):
            table.close_port(5353)

    def test_port_range(self):
        table = UdpSocketTable()
        with pytest.raises(ConfigurationError):
            table.open_port(0)
        with pytest.raises(ConfigurationError):
            table.open_port(65536)

    def test_len(self):
        table = UdpSocketTable()
        assert len(table) == 0
        table.open_port(1)
        table.open_port(2)
        assert len(table) == 2
