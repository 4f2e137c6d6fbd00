"""End-to-end fault injection, protocol recovery, and determinism.

The acceptance contract for the fault layer:

* 10 % uniform loss with recovery enabled finishes with **zero**
  invariant violations and zero slept-through useful frames.
* With recovery disabled, killing every UDP Port Message makes the
  useful-frame-miss invariant fire — and the error carries the seed.
* A zero-loss plan is byte-identical to no plan at all.
* The same seed + plan produces an identical run: metrics fingerprint,
  Prometheus export (wall-clock lines excluded), and trace-event
  sequence.
"""

import json
from dataclasses import asdict

import pytest

from repro.experiments.des_run import DesRunConfig, run_trace_des
from repro.faults import ClientCrashEvent, FaultPlan
from repro.obs.exporters import render_prometheus
from repro.obs.tracing import JsonlTracer
from repro.sim.invariants import InvariantViolation
from repro.traces.generators import generate_trace


def _trace(seed: int = 3):
    return generate_trace("Starbucks", seed=seed)


def _config(**kwargs) -> DesRunConfig:
    kwargs.setdefault("duration_s", 20.0)
    kwargs.setdefault("client_count", 3)
    return DesRunConfig(**kwargs)


class TestRecoveryUnderLoss:
    def test_ten_percent_loss_zero_violations(self):
        """The headline acceptance criterion: 10 % uniform loss with the
        recovery protocol on -> no invariant trips, nothing missed."""
        result = run_trace_des(
            _trace(),
            _config(
                check_invariants=True,
                fault_plan=FaultPlan.uniform(0.10, seed=42),
            ),
        )
        assert result.invariants is not None
        assert result.invariants.violations() == []
        assert all(
            c.counters.useful_frames_missed == 0 for c in result.clients
        )
        # The plan actually did something.
        assert result.fault_injector.injected_drops > 0

    def test_report_loss_retransmits_until_acked(self):
        """Killing half the Port Messages forces backoff retransmission;
        the reports still all land eventually (no give-up)."""
        result = run_trace_des(
            _trace(),
            _config(
                check_invariants=True,
                fault_plan=FaultPlan(
                    seed=11, loss_by_kind={"UdpPortMessage": 0.5}
                ),
            ),
        )
        dropped = result.fault_injector.drops_by_kind.get("UdpPortMessage", 0)
        retransmitted = sum(
            c.counters.port_message_retransmissions for c in result.clients
        )
        assert dropped > 0
        assert retransmitted >= dropped
        assert result.invariants.violations() == []

    def test_beacon_loss_triggers_conservative_fallback(self):
        """Losing beacons flips clients into receive-all until a decoded
        DTIM resynchronizes them; no useful frame is missed."""
        result = run_trace_des(
            _trace(),
            _config(
                check_invariants=True,
                fault_plan=FaultPlan(seed=5, beacon_loss=0.3),
            ),
        )
        assert result.fault_injector.drops_by_kind.get("Beacon", 0) > 0
        assert sum(c.counters.beacon_misses_detected for c in result.clients) > 0
        assert result.invariants.violations() == []

    def test_recovery_disabled_invariant_fires_with_seed(self):
        """The demonstration the issue demands: turn recovery off, kill
        every Port Message, and the useful-frame-miss invariant fires."""
        with pytest.raises(InvariantViolation) as excinfo:
            run_trace_des(
                _trace(),
                _config(
                    check_invariants=True,
                    recovery=False,
                    fault_plan=FaultPlan(
                        seed=13, loss_by_kind={"UdpPortMessage": 1.0}
                    ),
                ),
            )
        assert excinfo.value.seed == 13
        assert any(
            v.invariant == "useful-frame-miss" for v in excinfo.value.violations
        )


class TestNullPlanIdentity:
    def test_zero_loss_plan_reproduces_headline_exactly(self):
        trace = _trace()
        baseline = run_trace_des(trace, _config())
        under_null = run_trace_des(trace, _config(fault_plan=FaultPlan()))
        assert under_null.fault_injector is None
        assert (
            under_null.deterministic_fingerprint()
            == baseline.deterministic_fingerprint()
        )
        # Energy numbers match to the bit, not just approximately.
        assert [m.average_power_w for m in under_null.meter()] == [
            m.average_power_w for m in baseline.meter()
        ]

    def test_invariant_checking_does_not_perturb_the_protocol(self):
        trace = _trace()
        baseline = run_trace_des(trace, _config())
        checked = run_trace_des(trace, _config(check_invariants=True))
        assert [asdict(c.counters) for c in checked.clients] == [
            asdict(c.counters) for c in baseline.clients
        ]
        assert [m.average_power_w for m in checked.meter()] == [
            m.average_power_w for m in baseline.meter()
        ]


def _run_traced(tmp_path, name):
    log = tmp_path / f"{name}.jsonl"
    tracer = JsonlTracer(str(log))
    try:
        result = run_trace_des(
            _trace(),
            _config(
                check_invariants=True,
                fault_plan=FaultPlan.uniform(0.05, seed=99),
            ),
            tracer=tracer,
        )
    finally:
        tracer.close()
    return result, log


def _event_sequence(log_path):
    """(name, sim_time, other-fields) tuples, wall-clock data stripped."""
    events = []
    with open(log_path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            record.pop("wall_time", None)
            record.pop("wall_duration_s", None)
            events.append(tuple(sorted(record.items())))
    return events


def _stable_prometheus(result):
    """The .prom export minus host-speed (wall-clock) lines."""
    text = render_prometheus(result.metric_rows())
    return "\n".join(
        line for line in text.splitlines() if "wall" not in line
    )


class TestDeterminism:
    def test_same_seed_and_plan_identical_run(self, tmp_path):
        a, log_a = _run_traced(tmp_path, "a")
        b, log_b = _run_traced(tmp_path, "b")
        assert a.deterministic_fingerprint() == b.deterministic_fingerprint()
        assert _stable_prometheus(a) == _stable_prometheus(b)
        sequence_a, sequence_b = _event_sequence(log_a), _event_sequence(log_b)
        assert sequence_a, "expected traced events"
        assert sequence_a == sequence_b

    def test_different_seed_diverges(self):
        trace = _trace()
        a = run_trace_des(
            trace, _config(fault_plan=FaultPlan.uniform(0.10, seed=1))
        )
        b = run_trace_des(
            trace, _config(fault_plan=FaultPlan.uniform(0.10, seed=2))
        )
        assert a.deterministic_fingerprint() != b.deterministic_fingerprint()


class TestCrashRejoinAndTtl:
    def test_crash_expires_rejoin_relearns(self):
        """A crashed client ages out of the port table; after rejoin the
        AP relearns its ports and the keep-alive holds the TTL at bay."""
        result = run_trace_des(
            _trace(),
            _config(
                check_invariants=True,
                port_entry_ttl_s=2.0,
                port_refresh_interval_s=0.9,
                fault_plan=FaultPlan(
                    seed=5,
                    crashes=(
                        ClientCrashEvent(0, crash_at_s=4.0, rejoin_at_s=9.0),
                    ),
                ),
            ),
        )
        crashed = result.clients[0]
        survivor = result.clients[1]
        ap = result.access_point
        assert crashed.counters.crashes == 1
        assert crashed.counters.rejoins == 1
        assert crashed.power.counters.forced_suspends == 1
        # The TTL reaped the dead client's entry...
        assert ap.counters.port_entries_expired >= 1
        # ...and the rejoin re-associated (same AID) and re-reported.
        assert crashed.aid == 1
        assert ap.port_table.ports_for_client(1) == result.useful_ports
        # Live clients kept refreshing and never expired.
        assert survivor.counters.port_refreshes > 0
        assert ap.port_table.ports_for_client(survivor.aid) == result.useful_ports
        assert result.invariants.violations() == []

    def test_crash_without_rejoin_stays_dark(self):
        result = run_trace_des(
            _trace(),
            _config(
                check_invariants=True,
                port_entry_ttl_s=2.0,
                port_refresh_interval_s=0.9,
                fault_plan=FaultPlan(
                    seed=6, crashes=(ClientCrashEvent(0, crash_at_s=4.0),)
                ),
            ),
        )
        crashed = result.clients[0]
        assert crashed.counters.crashes == 1
        assert crashed.counters.rejoins == 0
        assert crashed.aid is None
        assert result.access_point.port_table.ports_for_client(1) == frozenset()
        # The dead client's radio stayed off: the invariant suite must
        # not charge it for frames it could never have received.
        assert result.invariants.violations() == []

    def test_refresh_must_stay_below_ttl(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            _config(port_entry_ttl_s=1.0, port_refresh_interval_s=1.0)
