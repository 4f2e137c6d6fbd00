"""Hot-path attribution: where does the run loop's wall time go?

The engine's own counters say *how many* events fired; this module says
*which code* they spent their wall time in.  An
:class:`AttributionProfiler` hooks the simulator's run loop (see
:meth:`repro.sim.engine.Simulator.attach_profiler`) and attributes wall
time and event counts to callback *sites* — the owning entity class,
the method, and the event kind (one-shot ``event`` vs ``recurring``
timer).  A site is resolved once per distinct callback target and
cached, so steady state is a dict hit, not reflection.

Two modes:

* ``exact`` — every event is timed with ``perf_counter`` and its site
  counters are exact.  Highest fidelity, noticeable overhead.
* ``sampling`` — only every ``stride``-th event is resolved and timed;
  per-site totals are scaled estimates (each sample stands for
  ``stride`` events).  The steady-state cost is one method call and an
  integer decrement per event, which is what keeps the < 5% overhead
  contract (``profiler_overhead_fraction`` in ``repro bench``).

Attaching a profiler changes **nothing the simulation can observe**:
no events are added, removed, or reordered, so same-seed determinism
fingerprints are bit-identical with profiling on or off, in either
mode — the profiler-determinism suite pins exactly that.

Outputs: a ``repro-profile/v1`` JSON report (:meth:`report`), a
collapsed-stack file any flamegraph tool consumes
(:meth:`write_collapsed`), and a top-N hotspot table
(:func:`render_profile_table`) behind ``repro profile``.
"""

from __future__ import annotations

import functools
import json
import time as _time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError

PROFILE_SCHEMA = "repro-profile/v1"

PROFILE_MODES = ("exact", "sampling")

#: Site-stats list layout: metadata first, hot counters last so the run
#: loop updates fixed small indices.
_OWNER, _METHOD, _KIND, _EVENTS, _SAMPLED, _WALL, _REF = range(7)


@dataclass(frozen=True)
class ProfilerConfig:
    """Knobs for one attribution profiler (picklable, sweep-friendly)."""

    mode: str = "sampling"
    stride: int = 16

    def __post_init__(self) -> None:
        if self.mode not in PROFILE_MODES:
            raise ConfigurationError(
                f"profiler mode must be one of {PROFILE_MODES}: {self.mode!r}"
            )
        if self.stride < 1:
            raise ConfigurationError(
                f"profiler stride must be >= 1: {self.stride}"
            )


class AttributionProfiler:
    """Attribute run-loop wall time to callback sites.

    The run loop hands every event to :meth:`profiled_call`, which
    drives the hot counters (``_resolve`` returns the site's stats list;
    the call bumps indices in place); everything else — reports,
    collapsed stacks, tables — reads them afterwards.
    """

    def __init__(self, config: Optional[ProfilerConfig] = None) -> None:
        self.config = config or ProfilerConfig()
        self.mode = self.config.mode
        self.stride = self.config.stride if self.mode == "sampling" else 1
        #: Exact count of events executed while attached (engine-fed).
        self.events_seen = 0
        #: Wall seconds of run() while attached (engine-fed).
        self.run_wall_s = 0.0
        #: Sampling countdown, persisted across run() calls so stride
        #: phase survives probe boundaries and repeated run() windows.
        self._skip = 1 if self.mode == "exact" else self.stride
        self._sites: Dict[Any, list] = {}

    # -- site resolution (the cached reflection) -----------------------

    def _resolve(self, callback: Callable[[], None], interval: Any) -> list:
        """The stats list for ``callback``'s site, resolving on miss.

        The cache key pins the callback's *target* — the underlying
        function object for bound methods, the code object for plain
        functions and lambdas — so every bound-method object created
        from the same class method, and every lambda instance from the
        same source line, share one site.  The keyed object itself is
        held in the stats record, so its id can never be recycled into
        a different site.
        """
        recurring = interval is not None
        target = callback
        while isinstance(target, functools.partial):
            target = target.func
        func = getattr(target, "__func__", None)
        if func is not None:  # bound method
            owner_cls = target.__self__.__class__
            key = (id(func), owner_cls, recurring)
            stats = self._sites.get(key)
            if stats is None:
                stats = [
                    owner_cls.__name__,
                    func.__name__,
                    "recurring" if recurring else "event",
                    0, 0, 0.0,
                    func,
                ]
                self._sites[key] = stats
            return stats
        code = getattr(target, "__code__", None)
        pin = code if code is not None else type(target)
        key = (id(pin), recurring)
        stats = self._sites.get(key)
        if stats is None:
            module = getattr(target, "__module__", None) or "?"
            qualname = getattr(target, "__qualname__", None) or repr(target)
            stats = [
                module.rsplit(".", 1)[-1],
                qualname,
                "recurring" if recurring else "event",
                0, 0, 0.0,
                pin,
            ]
            self._sites[key] = stats
        return stats

    # -- the per-event observation path ----------------------------------

    def profiled_call(self, record: list) -> None:
        """Execute one event record with attribution.

        :meth:`Simulator.run` and :meth:`Simulator.step` call this in
        place of the bare callback whenever a profiler is attached.
        """
        callback = record[3]
        self.events_seen += 1
        self._skip -= 1
        if self._skip <= 0:
            start = _time.perf_counter()
            callback()
            elapsed = _time.perf_counter() - start
            stats = self._resolve(callback, record[5])
            stats[_EVENTS] += 1
            stats[_SAMPLED] += 1
            stats[_WALL] += elapsed
            self._skip = self.stride
        else:
            callback()

    # -- derived totals ------------------------------------------------

    @property
    def sites(self) -> List[list]:
        """Live stats lists (internal layout), hottest first."""
        return sorted(self._sites.values(), key=lambda s: -s[_WALL])

    @property
    def attributed_wall_s(self) -> float:
        """Estimated callback wall seconds across all sites.

        Exact mode sums the measured times; sampling mode scales each
        sample by the stride (each timed event stands for ``stride``).
        """
        return sum(s[_WALL] for s in self._sites.values()) * self.stride

    @property
    def scheduler_overhead_s(self) -> float:
        """Run wall time not attributed to callbacks: the engine's own
        pop/push/dispatch cost (plus sampling estimation error)."""
        return max(0.0, self.run_wall_s - self.attributed_wall_s)

    def site_rows(self) -> List[Dict[str, object]]:
        """Per-site report entries, hottest first."""
        scale = self.stride
        rows: List[Dict[str, object]] = []
        attributed = self.attributed_wall_s
        for stats in self.sites:
            wall = stats[_WALL] * scale
            events = stats[_EVENTS] * scale
            sampled = stats[_SAMPLED]
            rows.append(
                {
                    "owner": stats[_OWNER],
                    "method": stats[_METHOD],
                    "kind": stats[_KIND],
                    "events": events,
                    "sampled_events": sampled,
                    "wall_s": wall,
                    "wall_fraction": wall / attributed if attributed > 0 else 0.0,
                    "mean_us": (wall / events * 1e6) if events else 0.0,
                }
            )
        return rows

    def report(self, run_wall_s: Optional[float] = None) -> Dict[str, object]:
        """The ``repro-profile/v1`` document for everything seen so far."""
        run_wall = self.run_wall_s if run_wall_s is None else run_wall_s
        attributed = self.attributed_wall_s
        return {
            "schema": PROFILE_SCHEMA,
            "mode": self.mode,
            "stride": self.stride,
            "events_total": self.events_seen,
            "events_attributed": sum(
                s[_EVENTS] for s in self._sites.values()
            ) * self.stride,
            "run_wall_s": run_wall,
            "attributed_wall_s": attributed,
            "scheduler_overhead_s": max(0.0, run_wall - attributed),
            "sites": self.site_rows(),
        }

    # -- collapsed stacks ----------------------------------------------

    def collapsed_lines(self) -> List[str]:
        """Flamegraph collapsed-stack lines: ``owner;method;kind usec``.

        Values are integer microseconds (the conventional unit), scaled
        by the stride in sampling mode.
        """
        return collapsed_from_sites(self.site_rows())

    def write_collapsed(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            for line in self.collapsed_lines():
                stream.write(line + "\n")


def collapsed_from_sites(sites: Iterable[Dict[str, object]]) -> List[str]:
    """Collapsed-stack lines from report-style site entries."""
    lines = []
    for site in sites:
        usec = int(round(float(site["wall_s"]) * 1e6))
        if usec <= 0 and float(site["events"]) <= 0:
            continue
        lines.append(
            f"{site['owner']};{site['method']};{site['kind']} {usec}"
        )
    return lines


def write_profile_json(document: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")


def merge_profiles(
    documents: Iterable[Dict[str, object]]
) -> Optional[Dict[str, object]]:
    """Fold per-run ``repro-profile/v1`` documents into one.

    Sites merge by (owner, method, kind) with events and wall summed;
    totals sum across runs.  Returns ``None`` for an empty input, so a
    sweep without profiling never grows an empty profile section.
    """
    merged: Dict[Tuple[str, str, str], Dict[str, object]] = {}
    events_total = 0
    run_wall = 0.0
    attributed = 0.0
    modes = set()
    strides = set()
    count = 0
    for doc in documents:
        if not doc:
            continue
        count += 1
        modes.add(str(doc.get("mode", "?")))
        strides.add(int(doc.get("stride", 1)))
        events_total += int(doc.get("events_total", 0))
        run_wall += float(doc.get("run_wall_s", 0.0))
        attributed += float(doc.get("attributed_wall_s", 0.0))
        for site in doc.get("sites", []):
            key = (str(site["owner"]), str(site["method"]), str(site["kind"]))
            into = merged.get(key)
            if into is None:
                merged[key] = {
                    "owner": key[0], "method": key[1], "kind": key[2],
                    "events": float(site["events"]),
                    "sampled_events": int(site.get("sampled_events", 0)),
                    "wall_s": float(site["wall_s"]),
                }
            else:
                into["events"] += float(site["events"])
                into["sampled_events"] += int(site.get("sampled_events", 0))
                into["wall_s"] += float(site["wall_s"])
    if count == 0:
        return None
    sites = sorted(merged.values(), key=lambda s: -float(s["wall_s"]))
    for site in sites:
        site["wall_fraction"] = (
            float(site["wall_s"]) / attributed if attributed > 0 else 0.0
        )
        site["mean_us"] = (
            float(site["wall_s"]) / float(site["events"]) * 1e6
            if site["events"] else 0.0
        )
    return {
        "schema": PROFILE_SCHEMA,
        "mode": modes.pop() if len(modes) == 1 else "mixed",
        "stride": strides.pop() if len(strides) == 1 else 0,
        "runs_merged": count,
        "events_total": events_total,
        "run_wall_s": run_wall,
        "attributed_wall_s": attributed,
        "scheduler_overhead_s": max(0.0, run_wall - attributed),
        "sites": sites,
    }


def render_profile_table(
    document: Dict[str, object], top: Optional[int] = 15
) -> str:
    """The hotspot table plus a one-line attribution summary."""
    from repro.reporting import render_table

    sites = list(document.get("sites", []))
    shown = sites if top is None else sites[:top]
    rows = []
    for site in shown:
        rows.append(
            [
                f"{site['owner']}.{site['method']}",
                str(site["kind"]),
                f"{float(site['events']):.0f}",
                f"{float(site['wall_s']) * 1e3:.2f}",
                f"{float(site['wall_fraction']):.1%}",
                f"{float(site['mean_us']):.1f}",
            ]
        )
    mode = document.get("mode", "?")
    stride = document.get("stride", 1)
    title = (
        f"hotspots ({mode}"
        + (f", stride {stride}" if mode == "sampling" else "")
        + f"): top {len(shown)}/{len(sites)} sites"
    )
    table = render_table(
        ["site", "kind", "events", "wall (ms)", "share", "mean (µs)"],
        rows,
        title=title,
    )
    run_wall = float(document.get("run_wall_s", 0.0))
    attributed = float(document.get("attributed_wall_s", 0.0))
    overhead = float(document.get("scheduler_overhead_s", 0.0))
    summary = (
        f"run wall {run_wall * 1e3:.2f} ms = callbacks {attributed * 1e3:.2f} ms "
        f"({attributed / run_wall:.1%}) + scheduler {overhead * 1e3:.2f} ms"
        if run_wall > 0
        else "run wall 0 ms"
    )
    return table + "\n" + summary
