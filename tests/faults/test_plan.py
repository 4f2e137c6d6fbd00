"""FaultPlan: validation, null detection, serialization, spec parsing."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    BEACON_KIND,
    MAX_CLOCK_JITTER_S,
    ClientCrashEvent,
    FaultPlan,
)


class TestValidation:
    def test_default_plan_is_null(self):
        assert FaultPlan().is_null

    @pytest.mark.parametrize("rate", [-0.1, 1.1])
    def test_rejects_bad_probabilities(self, rate):
        with pytest.raises(ConfigurationError):
            FaultPlan(default_loss=rate)
        with pytest.raises(ConfigurationError):
            FaultPlan(beacon_loss=rate)
        with pytest.raises(ConfigurationError):
            FaultPlan(loss_by_kind={"DataFrame": rate})

    def test_rejects_excess_jitter(self):
        FaultPlan(clock_jitter_s=MAX_CLOCK_JITTER_S)  # boundary is legal
        with pytest.raises(ConfigurationError):
            FaultPlan(clock_jitter_s=MAX_CLOCK_JITTER_S * 1.01)

    def test_crash_event_ordering(self):
        with pytest.raises(ConfigurationError):
            ClientCrashEvent(client_index=0, crash_at_s=5.0, rejoin_at_s=5.0)
        with pytest.raises(ConfigurationError):
            ClientCrashEvent(client_index=0, crash_at_s=0.0)
        with pytest.raises(ConfigurationError):
            ClientCrashEvent(client_index=-1, crash_at_s=1.0)

    def test_null_detection_covers_every_knob(self):
        assert not FaultPlan(default_loss=0.1).is_null
        assert not FaultPlan(beacon_loss=0.1).is_null
        assert not FaultPlan(clock_jitter_s=1e-4).is_null
        assert not FaultPlan(loss_by_kind={"Ack": 0.5}).is_null
        assert not FaultPlan(
            crashes=(ClientCrashEvent(0, crash_at_s=1.0),)
        ).is_null
        # Zero-valued overrides inject nothing.
        assert FaultPlan(loss_by_kind={"Ack": 0.0}).is_null
        # The seed alone never makes a plan non-null.
        assert FaultPlan(seed=123).is_null


class TestLossLookup:
    def test_beacons_exempt_from_default_loss(self):
        plan = FaultPlan.uniform(0.3)
        assert plan.loss_for_kind("DataFrame") == 0.3
        assert plan.loss_for_kind(BEACON_KIND) == 0.0

    def test_per_kind_override_beats_default(self):
        plan = FaultPlan(default_loss=0.1, loss_by_kind={"UdpPortMessage": 0.9})
        assert plan.loss_for_kind("UdpPortMessage") == 0.9
        assert plan.loss_for_kind("DataFrame") == 0.1

    def test_beacon_loss_via_its_own_knob(self):
        plan = FaultPlan(beacon_loss=0.25)
        assert plan.loss_for_kind(BEACON_KIND) == 0.25


class TestSerialization:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=7,
            default_loss=0.1,
            loss_by_kind={"Ack": 0.5},
            beacon_loss=0.02,
            clock_jitter_s=1e-4,
            crashes=(
                ClientCrashEvent(0, crash_at_s=5.0, rejoin_at_s=15.0),
                ClientCrashEvent(2, crash_at_s=9.0),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json("{not json")

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"loss": 0.5}', "'loss'"),
            ('{"seed": 1, "default_loss": 0.1, "beacon": 0.2}', "'beacon'"),
            ('{"crashes": [{"client_index": 0, "crash_at_s": 1, "rejoin_s": 2}]}',
             "'rejoin_s'"),
        ],
    )
    def test_from_json_rejects_unknown_keys(self, text, key):
        match = f"unknown fault plan .*key: {key}"
        with pytest.raises(ConfigurationError, match=match):
            FaultPlan.from_json(text)

    def test_misspelled_json_plan_fails_the_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "plan.json"
        path.write_text('{"loss": 0.5}')
        args = ["sim", "run", "Classroom", "--duration", "2"]
        assert main([*args, "--fault-plan", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown fault plan key: 'loss'" in err

    def test_parse_reads_json_file(self, tmp_path):
        plan = FaultPlan(seed=3, default_loss=0.05)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.parse(str(path)) == plan


class TestInlineSpec:
    def test_full_spec(self):
        plan = FaultPlan.parse(
            "loss=0.1, beacon=0.05, seed=7, jitter=1e-4,"
            " UdpPortMessage=0.5, crash=0@5:15, crash=1@9"
        )
        assert plan.seed == 7
        assert plan.default_loss == 0.1
        assert plan.beacon_loss == 0.05
        assert plan.clock_jitter_s == pytest.approx(1e-4)
        assert plan.loss_by_kind == {"UdpPortMessage": 0.5}
        assert plan.crashes == (
            ClientCrashEvent(0, crash_at_s=5.0, rejoin_at_s=15.0),
            ClientCrashEvent(1, crash_at_s=9.0),
        )

    def test_rejects_unknown_key_and_bad_values(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("bogus=1")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("loss")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("loss=high")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("crash=0")
