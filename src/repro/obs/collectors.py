"""Read simulator-component state as metric rows.

Entities keep their cheap native counters (``ApCounters``,
``ClientCounters``, ``PowerCounters``, ``PortTableStats``, the
simulator's own tallies). :data:`FAMILIES` declares every end-of-run
series family once: its name, kind, help, the population it covers and
how to read one member's value. :func:`metric_rows` walks that table
and yields the rows in (name, labels) order as they are read, so the
determinism fingerprint and the ``sim run --metrics-out`` exports hold
one chunk of rows at a time. A live DES scrape adds the host-clock
rows of :func:`collect_profiler` and :func:`collect_delivery`, and a
telemetry window reads :data:`WINDOW_SERIES` through the same families
(:func:`window_values`).

Naming follows Prometheus conventions: ``repro_<component>_<what>`` with
``_total`` for counters and ``_seconds`` for durations.
"""

from __future__ import annotations

from functools import reduce
from operator import add, attrgetter, itemgetter, methodcaller
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Tuple,
)

from repro.obs.metrics import (
    LabelItems,
    Row,
    _check_label_names,
    _check_name,
    counter_row,
    gauge_row,
)


class Family(NamedTuple):
    """One end-of-run series family.

    ``read`` takes one member of ``population`` (``simulator``,
    ``medium``, ``ap`` or ``client``) and returns its value, or None
    when the member has no such series. With ``label`` set it returns
    ``{label value: value}`` instead: one series per entry, labelled
    ``label`` after the member's own labels.
    """

    name: str
    kind: str
    help: str
    population: str
    read: Callable[[Any], Any]
    label: str = ""


def _table(population: str, kind: str, entries, label: str = "") -> Tuple[Family, ...]:
    """Families from ``(name, help, read)`` entries; a string ``read``
    is an attribute path."""
    return tuple(
        Family(
            name,
            kind,
            help_text,
            population,
            attrgetter(read) if isinstance(read, str) else read,
            label,
        )
        for name, help_text, read in entries
    )


def _power(field_name: str):
    read = attrgetter(f"power.counters.{field_name}")
    return lambda client: None if client.power is None else read(client)


def _wakelock(read):
    return lambda client: None if client.wakelock is None else read(client.wakelock)


_PORT_TABLE_OPS = ("inserts", "deletes", "lookups", "refreshes", "expirations")

_SIMULATOR = _table(
    "simulator",
    "counter",
    (
        (
            "repro_sim_events_processed_total",
            "Events popped and executed",
            "events_processed",
        ),
        (
            "repro_sim_events_cancelled_total",
            "Events cancelled before firing",
            "events_cancelled",
        ),
        (
            "repro_sim_probes_fired_total",
            "Observer-probe firings (telemetry flushes; never heap events)",
            lambda sim: getattr(sim, "probes_fired", 0),
        ),
        (
            "repro_sim_run_wall_seconds_total",
            "Wall time spent inside run()",
            "run_wall_time_s",
        ),
    ),
) + _table(
    "simulator",
    "gauge",
    (
        (
            "repro_sim_pending_events",
            "Live (non-cancelled) scheduled events",
            "pending_events",
        ),
        (
            "repro_sim_queue_depth",
            "Event-queue entries including cancelled tombstones",
            "queue_depth",
        ),
        # A duplicate of the series above.  Deterministic run fingerprints
        # hash every exported series, and committed baselines (the e2e
        # bench's expected fingerprints among them) include this one, so it
        # goes only together with a regeneration of those baselines.
        ("repro_sim_heap_depth", "Alias of repro_sim_queue_depth", "queue_depth"),
        ("repro_sim_time_seconds", "Current simulation clock", "now"),
        (
            "repro_sim_wall_seconds_per_sim_second",
            "Wall-clock cost of advancing the simulation one second",
            lambda sim: sim.run_wall_time_s / sim.now if sim.now > 0 else 0.0,
        ),
    ),
)

_MEDIUM = _table(
    "medium",
    "counter",
    (
        (
            "repro_medium_transmissions_total",
            "Frames delivered on the channel",
            "transmissions_completed",
        ),
        ("repro_medium_busy_seconds_total", "Channel-occupancy seconds", "busy_time"),
        (
            "repro_medium_frames_dropped_total",
            "Frames lost to injected failures",
            "frames_dropped",
        ),
        (
            "repro_medium_queue_wait_seconds_total",
            "Seconds frames waited behind a busy channel",
            "queue_wait_s",
        ),
        (
            "repro_medium_frames_queued_total",
            "Frames that found the channel busy and deferred",
            "frames_queued",
        ),
    ),
) + _table(
    "medium",
    "counter",
    (
        (
            "repro_medium_airtime_seconds_total",
            "Airtime by frame kind",
            "airtime_by_kind",
        ),
        ("repro_medium_frames_total", "Transmissions by frame kind", "frames_by_kind"),
        (
            "repro_medium_injected_drops_total",
            "Frames dropped by the fault injector, by frame kind",
            "drops_by_kind",
        ),
    ),
    label="kind",
)

_ACCESS_POINT = _table(
    "ap",
    "counter",
    tuple(
        (
            f"repro_ap_{field_name}"
            if field_name.endswith("_total")
            else f"repro_ap_{field_name}_total",
            help_text,
            f"counters.{field_name}",
        )
        for field_name, help_text in (
            ("beacons_sent", "Beacons transmitted"),
            ("dtims_sent", "DTIM beacons transmitted"),
            ("broadcast_frames_sent", "Broadcast data frames transmitted"),
            ("broadcast_frames_buffered", "Broadcast frames buffered for a DTIM"),
            ("port_messages_received", "UDP Port Messages accepted"),
            ("acks_sent", "ACKs transmitted"),
            ("ps_polls_received", "PS-Polls received"),
            ("unicast_frames_sent", "Unicast data frames released"),
            ("association_requests_received", "Association requests handled"),
            ("probe_requests_answered", "Probe requests answered"),
            ("disassociations_received", "Disassociations processed"),
            ("btim_bits_set_total", "AID bits set across all BTIMs"),
            ("algorithm1_runs", "Algorithm 1 executions (one per DTIM)"),
            (
                "port_entries_expired",
                "Port-table clients aged out by the refresh-timer TTL",
            ),
        )
    )
    + (
        (
            "repro_ap_algorithm1_wall_seconds_total",
            "Wall time spent computing broadcast flags",
            "counters.algorithm1_wall_s",
        ),
        (
            "repro_ap_broadcast_buffer_dropped_total",
            "Broadcast frames dropped at a full buffer",
            "broadcast_buffer.dropped",
        ),
    ),
) + _table(
    "ap",
    "gauge",
    (
        (
            "repro_ap_associated_clients",
            "Currently associated stations",
            lambda ap: len(ap.associations),
        ),
        (
            "repro_ap_broadcast_buffer_depth",
            "Broadcast frames currently buffered",
            lambda ap: len(ap.broadcast_buffer),
        ),
        (
            "repro_ap_port_table_entries",
            "(port, AID) pairs stored",
            lambda ap: len(ap.port_table),
        ),
        (
            "repro_ap_port_table_distinct_ports",
            "Distinct ports stored",
            "port_table.distinct_ports",
        ),
        (
            "repro_ap_port_table_clients",
            "Clients with a stored report",
            "port_table.client_count",
        ),
    ),
) + _table(
    "ap",
    "counter",
    (
        (
            "repro_ap_port_table_ops_total",
            "Port-table operations by kind",
            lambda ap: {op: getattr(ap.port_table.stats, op) for op in _PORT_TABLE_OPS},
        ),
    ),
    label="op",
)

_CLIENT = _table(
    "client",
    "counter",
    tuple(
        (f"repro_client_{field_name}_total", help_text, f"counters.{field_name}")
        for field_name, help_text in (
            ("beacons_received", "Beacons decoded"),
            ("dtims_received", "DTIM beacons decoded"),
            ("broadcast_frames_received", "Broadcast frames received awake"),
            ("broadcast_frames_ignored", "Broadcast frames slept through"),
            ("useful_frames_received", "Received frames an app wanted"),
            ("useless_frames_received", "Received frames nobody wanted"),
            ("frames_delivered_to_apps", "Frames handed to applications"),
            ("port_messages_sent", "UDP Port Messages sent"),
            ("port_message_retransmissions", "Port Message retries"),
            ("port_message_bytes_sent", "Port Message bytes on air"),
            ("acks_received", "ACKs received"),
            ("ps_polls_sent", "PS-Polls sent"),
            ("unicast_frames_received", "Unicast frames received"),
            ("useful_frames_missed", "Useful delivered frames slept through"),
            ("beacon_misses_detected", "Beacon watchdog firings"),
            ("conservative_fallbacks", "Falls into conservative receive-all"),
            ("port_refreshes", "Keep-alive port reports sent"),
            ("crashes", "Injected crashes"),
            ("rejoins", "Rejoins after an injected crash"),
        )
    )
    + (
        (
            "repro_client_wakeups_total",
            "Resume operations triggered (suspended arrivals)",
            _power("resumes"),
        ),
        (
            "repro_client_suspends_completed_total",
            "Suspend operations that finished",
            _power("suspends_completed"),
        ),
        (
            "repro_client_suspends_aborted_total",
            "Suspend operations aborted by a wake",
            _power("suspends_aborted"),
        ),
        (
            "repro_client_aborted_suspend_seconds_total",
            "Seconds spent in suspends that were aborted",
            _power("aborted_suspend_time"),
        ),
        (
            "repro_client_forced_suspends_total",
            "Abrupt drops to SUSPENDED (crash injection)",
            _power("forced_suspends"),
        ),
        (
            "repro_client_wakelock_held_seconds_total",
            "Total wakelock-held seconds",
            _wakelock(methodcaller("total_held_time")),
        ),
        (
            "repro_client_wakelock_acquisitions_total",
            "Wakelock acquisitions (renewals excluded)",
            _wakelock(attrgetter("acquisitions")),
        ),
    ),
)

#: Each population's own label names. A family's ``label`` must sort
#: after them, so that members in label order give series in label order.
_POPULATION_LABELS = {
    "simulator": (),
    "medium": (),
    "ap": ("ap",),
    "client": ("aid", "client"),
}


def _checked(families: Iterable[Family]) -> Tuple[Family, ...]:
    """The families in name order, each name and label grammar checked
    once here instead of per series."""
    ordered = tuple(sorted(families, key=attrgetter("name")))
    for before, family in zip(ordered, ordered[1:]):
        if before.name == family.name:
            raise ValueError(f"metric family {family.name!r} declared twice")
    for family in ordered:
        _check_name(family.name)
        names = _POPULATION_LABELS[family.population] + (
            (family.label,) if family.label else ()
        )
        if list(names) != sorted(names):
            raise ValueError(f"labels of {family.name!r} out of order: {names}")
        _check_label_names(family.name, tuple((name, "") for name in names))
    return ordered


#: Every end-of-run family, in name order.
FAMILIES: Tuple[Family, ...] = _checked(
    _SIMULATOR + _MEDIUM + _ACCESS_POINT + _CLIENT
)


#: The series one telemetry window reads: the counters Section IV's
#: energy timeline is built from. A window closes once per DTIM, so it
#: reads this fixed set rather than every series (hundreds at 25
#: clients); client families are summed fleet-wide, the per-client
#: split staying on ``/metrics`` and the end-of-run rows.
WINDOW_SERIES: Tuple[str, ...] = (
    "repro_sim_events_processed_total",
    "repro_sim_time_seconds",
    "repro_medium_transmissions_total",
    "repro_medium_busy_seconds_total",
    "repro_medium_frames_dropped_total",
    "repro_medium_frames_queued_total",
    "repro_ap_beacons_sent_total",
    "repro_ap_dtims_sent_total",
    "repro_ap_broadcast_frames_sent_total",
    "repro_ap_broadcast_frames_buffered_total",
    "repro_ap_btim_bits_set_total",
    "repro_ap_algorithm1_runs_total",
    "repro_ap_broadcast_buffer_depth",
    "repro_ap_associated_clients",
    "repro_client_broadcast_frames_received_total",
    "repro_client_broadcast_frames_ignored_total",
    "repro_client_useful_frames_received_total",
    "repro_client_useless_frames_received_total",
    "repro_client_frames_delivered_to_apps_total",
    "repro_client_useful_frames_missed_total",
    "repro_client_ps_polls_sent_total",
    "repro_client_wakeups_total",
    "repro_client_suspends_completed_total",
    "repro_client_wakelock_held_seconds_total",
)

_WINDOW_FAMILIES = tuple(
    family for family in FAMILIES if family.name in WINDOW_SERIES
)


def window_values(simulator, medium, ap, clients) -> Dict[str, float]:
    """The :data:`WINDOW_SERIES` values now, each read by its family.

    A client family's value is the fleet total: a left fold with ``+``
    in client order (``sum`` of floats is compensated from Python 3.12
    on and could move the last bit of a total). Clients without the
    series read None and are skipped, as are zeros, which add nothing.
    """
    members = {"simulator": simulator, "medium": medium, "ap": ap}
    values: Dict[str, float] = {}
    for family in _WINDOW_FAMILIES:
        read = family.read
        if family.population == "client":
            value = reduce(add, filter(None, map(read, clients)), 0)
        else:
            value = read(members[family.population])
        values[family.name] = float(value)
    return values


def _ap_labels(ap) -> LabelItems:
    return (("ap", str(ap.mac)),)


def _client_labels(client) -> LabelItems:
    """A crashed client has ``aid = None``, so the label falls back to
    the last AID it held: its series keep accumulating across a
    crash/rejoin instead of forking an aid-less copy."""
    aid = client.aid if client.aid is not None else getattr(client, "last_aid", None)
    if aid is None:
        return (("client", str(client.mac)),)
    return (("aid", str(aid)), ("client", str(client.mac)))


def _labelled(members: Iterable, labels_of) -> List[Tuple[LabelItems, Any]]:
    """``(labels, member)`` pairs sorted once by label tuple; two members
    with one label set would merge into one series, so they are refused."""
    pairs = sorted(
        ((labels_of(member), member) for member in members), key=itemgetter(0)
    )
    for (before, _), (labels, _) in zip(pairs, pairs[1:]):
        if before == labels:
            raise ValueError(
                f"two components share the labels {dict(labels)}: "
                "their series would merge"
            )
    return pairs


def _row(family: Family, label_items: LabelItems, value) -> Row:
    if family.kind == "counter" and value < 0:
        raise ValueError(f"counter total must be non-negative: {value}")
    return Row(family.name, family.kind, family.help, label_items, float(value))


def metric_rows(
    simulator=None,
    medium=None,
    access_points: Iterable = (),
    clients: Iterable = (),
) -> Iterator[Row]:
    """Every end-of-run series of a DES run, in (name, labels) order.

    Family names sorted, label tuples sorted within a family: the
    order a live ``/metrics`` page sorts its rows into. Holds the
    members sorted by labels, nothing per series.
    """
    members = {
        "simulator": [] if simulator is None else [((), simulator)],
        "medium": [] if medium is None else [((), medium)],
        "ap": _labelled(access_points, _ap_labels),
        "client": _labelled(clients, _client_labels),
    }
    for family in FAMILIES:
        read = family.read
        for labels, member in members[family.population]:
            value = read(member)
            if value is None:
                continue
            if not family.label:
                yield _row(family, labels, value)
                continue
            for key, item in sorted((str(k), v) for k, v in value.items()):
                yield _row(family, labels + ((family.label, key),), item)


def collect_profiler(profiler) -> List[Row]:
    """Attribution-profiler state: per-site wall time and event counts.

    Every family here measures the *host* clock, so these rows only
    ever reach live scrapes — never the end-of-run rows that
    determinism fingerprints hash (:data:`FAMILIES` deliberately knows
    nothing about profilers).
    """
    rows = [
        counter_row(
            "repro_profile_events_total",
            "Events executed under the attribution profiler",
            profiler.events_seen,
        ),
        counter_row(
            "repro_profile_run_wall_seconds_total",
            "Wall time of profiled run() windows",
            profiler.run_wall_s,
        ),
        counter_row(
            "repro_profile_attributed_wall_seconds_total",
            "Wall time attributed to event callbacks (scaled in sampling mode)",
            profiler.attributed_wall_s,
        ),
        counter_row(
            "repro_profile_scheduler_overhead_seconds_total",
            "Run wall time left to the engine's own pop/push/dispatch",
            profiler.scheduler_overhead_s,
        ),
    ]
    for site in profiler.site_rows():
        labels = {
            "site": f"{site['owner']}.{site['method']}",
            "kind": str(site["kind"]),
        }
        rows += [
            counter_row(
                "repro_profile_site_wall_seconds_total",
                "Attributed wall seconds by callback site",
                site["wall_s"],
                labels,
            ),
            counter_row(
                "repro_profile_site_events_total",
                "Attributed events by callback site",
                site["events"],
                labels,
            ),
        ]
    return rows


def collect_delivery(medium) -> List[Row]:
    """Delivery internals: slot columns and accrual batching.

    Like :func:`collect_profiler`, these rows describe the *machinery*
    (how often the deferred accrual settled, fan-out cache churn) rather
    than the protocol, so they only ever reach live scrapes — never the
    end-of-run rows that determinism fingerprints hash. Reads state
    without settling it, so it is safe from scrape threads.
    """
    radios = medium.radio_array
    return [
        gauge_row(
            "repro_delivery_slots", "Client radio slots currently bound", len(radios)
        ),
        gauge_row(
            "repro_delivery_listeners",
            "Slots with the radio up (listening or conservative receive-all)",
            radios.listeners,
        ),
        gauge_row(
            "repro_delivery_subscribed_ports",
            "Distinct UDP ports with at least one subscribed slot",
            len(radios.port_masks),
        ),
        counter_row(
            "repro_delivery_broadcast_frames_total",
            "Broadcast frames credited through the O(1) accrual path",
            radios.frames_total,
        ),
        counter_row(
            "repro_delivery_settles_total",
            "Per-slot deferred-accrual settlements",
            radios.settles,
        ),
        counter_row(
            "repro_delivery_flushes_total",
            "Whole-array accrual flushes at sync boundaries",
            radios.flushes,
        ),
        counter_row(
            "repro_delivery_fanout_rebuilds_total",
            "Broadcast fan-out cache recomputations",
            medium.fanout_rebuilds,
        ),
    ]
