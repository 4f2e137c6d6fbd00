"""What a DES fleet holds per station: slotted objects, shared port sets.

A fleet of N stations holds one client, its counters, power machine,
wakelock and socket table per station, and one UDP Port Message per
queued report. Each is slotted, and the socket entries and reportable
port sets that every station opens alike are shared through an intern
table, so the bytes a station costs stay bounded.
"""

import copy
import dataclasses
import gc
import pickle
import tracemalloc

import pytest

from repro.dot11.mac_address import MacAddress
from repro.dot11.management import UdpPortMessage
from repro.experiments.des_run import DesRunConfig, prepare_trace_des
from repro.station import udp_sockets
from repro.station.udp_sockets import UdpSocketTable, _SocketEntry
from repro.traces.generators import generate_trace
from repro.traces.scenarios import scenario_by_name

#: Traced bytes one more station costs after prepare. Slotted and
#: shared it is ~2.3-2.4 KB on CPython 3.9-3.12; with an instance dict
#: per object and a socket entry and port set per station it was
#: 3.7-4.3 KB.
MAX_BYTES_PER_STATION = 3000


@pytest.fixture(scope="module")
def trace():
    return generate_trace(scenario_by_name("DenseFleet")).slice(0, 2)


def _prepare(trace, clients):
    return prepare_trace_des(
        trace, DesRunConfig(client_count=clients, duration_s=2.0)
    )


def _traced_bytes(trace, clients):
    gc.collect()
    tracemalloc.start()
    try:
        run = _prepare(trace, clients)
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del run
    return size


def _port_message():
    return UdpPortMessage(
        source=MacAddress.station(1),
        bssid=MacAddress.station(99),
        ports=frozenset({137, 5353}),
        report_sequence=7,
        sequence=3,
    )


def test_bytes_per_station_after_prepare(trace):
    _prepare(trace, 50)  # warm module-level caches
    per_station = (_traced_bytes(trace, 400) - _traced_bytes(trace, 200)) / 200
    assert per_station < MAX_BYTES_PER_STATION


def test_per_station_objects_have_no_instance_dict(trace):
    run = _prepare(trace, 2)
    client = run.clients[0]
    objects = [
        client,
        client.counters,
        client.power,
        client.power.counters,
        client.wakelock,
        client.sockets,
        *client.sockets._sockets.values(),
        run.access_point.associations.by_mac(client.mac),
        _port_message(),
    ]
    for obj in objects:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_stations_share_socket_entries_and_port_sets(trace):
    first, second = _prepare(trace, 2).clients
    assert first.sockets.reportable_ports() is second.sockets.reportable_ports()
    assert first.sockets._sockets.keys() == second.sockets._sockets.keys()
    for port, entry in first.sockets._sockets.items():
        assert second.sockets._sockets[port] is entry


def test_intern_table_stays_bounded():
    table = UdpSocketTable()
    for port in range(1, udp_sockets._SHARED_LIMIT + 100):
        table.open_port(port)
    assert len(udp_sockets._SHARED) <= udp_sockets._SHARED_LIMIT
    assert len(table) == udp_sockets._SHARED_LIMIT + 99
    assert table.delivers_broadcast_on(1)
    assert table.reportable_ports() == frozenset(range(1, len(table) + 1))


@pytest.mark.parametrize(
    "record",
    [_port_message(), _SocketEntry(5353, True, "mdns")],
    ids=["UdpPortMessage", "_SocketEntry"],
)
class TestFrozenSlottedRecords:
    def test_pickle_round_trip(self, record):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(record, protocol))
            assert restored == record
            assert type(restored) is type(record)

    def test_copy_round_trip(self, record):
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record

    def test_assignment_refused(self, record):
        field = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, field)
