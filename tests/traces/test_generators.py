import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.traces.generators import FRAME_OVERHEAD_BYTES, TraceGenerator, generate_trace
from repro.traces.release import release_bursts
from repro.traces.scenarios import PAPER_SCENARIOS, ScenarioSpec, scenario_by_name
from repro.units import BEACON_INTERVAL_S, mbps


@pytest.fixture(scope="module")
def small_spec():
    return ScenarioSpec(
        name="small", duration_s=120.0, quiet_rate_fps=1.0, burst_rate_fps=20.0,
        quiet_dwell_s=8.0, burst_dwell_s=2.0, seed=3,
    )


@pytest.fixture(scope="module")
def small_trace(small_spec):
    return generate_trace(small_spec)


class TestScenarios:
    def test_five_paper_scenarios(self):
        assert [s.name for s in PAPER_SCENARIOS] == [
            "Classroom", "CS_Dept", "WML", "Starbucks", "WRL",
        ]

    def test_durations_30_to_60_minutes(self):
        for spec in PAPER_SCENARIOS:
            assert 30 * 60 <= spec.duration_s <= 60 * 60

    def test_lookup_case_insensitive(self):
        assert scenario_by_name("wml").name == "WML"
        with pytest.raises(ConfigurationError):
            scenario_by_name("nope")

    def test_mean_rate(self):
        spec = ScenarioSpec("x", 10, 1.0, 10.0, 5.0, 5.0, 1)
        assert spec.mean_rate_fps == pytest.approx(5.5)

    def test_volume_ordering_matches_paper(self):
        # Figure 6: WML and Classroom heavy, Starbucks/WRL light.
        means = {
            spec.name: spec.mean_rate_fps for spec in PAPER_SCENARIOS
        }
        assert means["WML"] > means["Classroom"] > means["CS_Dept"]
        assert means["CS_Dept"] > means["Starbucks"] > means["WRL"]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec("x", 0, 1, 1, 1, 1, 1)
        with pytest.raises(ConfigurationError):
            ScenarioSpec("x", 10, -1, 1, 1, 1, 1)
        with pytest.raises(ConfigurationError):
            ScenarioSpec("x", 10, 1, 1, 0, 1, 1)


def records_digest(trace) -> str:
    digest = hashlib.sha256()
    for r in trace.records:
        fields = (
            r.time,
            r.udp_port,
            r.length_bytes,
            r.rate_bps,
            r.more_data,
            r.offered_time,
        )
        digest.update(repr(fields).encode())
    return digest.hexdigest()


class TestPinnedTraces:
    """Every RNG draw and every record of two seeded scenario traces,
    and of a rebased slice of each, pinned as SHA-256 digests."""

    @pytest.mark.parametrize(
        "scenario, seed, records, full_digest, slice_digest",
        [
            (
                "Classroom",
                1,
                36104,
                "fbe70c44bd7a9df6ef3b4be7d445f6b505bee12351434112a19c8b38eb00c70a",
                "69119389e82052a670c70cf79cf556e04b03552727c8205703f78036dc6c8dfb",
            ),
            (
                "Starbucks",
                5,
                3764,
                "ebb3e85eda1e0b91ed969ac3f3c53ccad2768fdee107678a08b1056b4ec44ca4",
                "66329356c0cc9179af78448e363db296042e91a7400f2a6fc3e23f801b56f082",
            ),
        ],
    )
    def test_records_unchanged(
        self, scenario, seed, records, full_digest, slice_digest
    ):
        trace = generate_trace(scenario, seed=seed)
        assert len(trace) == records
        assert records_digest(trace) == full_digest
        assert records_digest(trace.slice(300.0, 900.0)) == slice_digest


class TestGeneration:
    def test_deterministic_with_seed(self, small_spec):
        a = generate_trace(small_spec)
        b = generate_trace(small_spec)
        assert len(a) == len(b)
        assert all(
            ra.time == rb.time and ra.udp_port == rb.udp_port
            for ra, rb in zip(a, b)
        )

    def test_different_seeds_differ(self, small_spec):
        a = generate_trace(small_spec, seed=1)
        b = generate_trace(small_spec, seed=2)
        assert [r.time for r in a] != [r.time for r in b]

    def test_mean_rate_near_spec(self, small_spec, small_trace):
        # Wide tolerance: 2 minutes of an MMPP is noisy.
        assert small_trace.mean_frames_per_second == pytest.approx(
            small_spec.mean_rate_fps, rel=0.6
        )

    def test_ports_from_registry(self, small_trace):
        from repro.net.ports import WELL_KNOWN_BROADCAST_SERVICES

        assert set(small_trace.port_histogram()) <= set(
            WELL_KNOWN_BROADCAST_SERVICES
        )

    def test_lengths_include_overhead(self, small_trace):
        assert all(r.length_bytes > FRAME_OVERHEAD_BYTES for r in small_trace)

    def test_rates_are_basic(self, small_trace):
        assert set(r.rate_bps for r in small_trace) <= {mbps(1), mbps(2), mbps(5.5)}

    def test_generate_by_name(self):
        trace = generate_trace("Starbucks")
        assert trace.name == "Starbucks"

    def test_port_weight_overrides_respected(self):
        base = ScenarioSpec("b", 300, 2.0, 10.0, 10.0, 2.0, 5)
        skewed = ScenarioSpec(
            "s", 300, 2.0, 10.0, 10.0, 2.0, 5,
            port_weight_overrides=((5353, 50.0),),
        )
        base_hist = generate_trace(base).port_histogram()
        skewed_hist = generate_trace(skewed).port_histogram()
        base_share = base_hist.get(5353, 0) / sum(base_hist.values())
        skewed_share = skewed_hist.get(5353, 0) / sum(skewed_hist.values())
        assert skewed_share > base_share * 2


def _release(offered, **kwargs):
    return list(release_bursts(sorted(offered, key=lambda item: item[0]), **kwargs))


class TestDtimRelease:
    def test_frames_air_after_dtim_boundaries(self):
        offered = [(0.01, 137, 100, mbps(1)), (0.05, 138, 100, mbps(1))]
        records = _release(offered, duration_s=1.0)
        assert all(r.time >= BEACON_INTERVAL_S for r in records)
        # Both offered in interval 0 -> both air right after beacon 1.
        assert records[0].time == pytest.approx(BEACON_INTERVAL_S + 0.9e-3)

    def test_burst_serialized_back_to_back(self):
        offered = [(0.01 * i, 137, 125, mbps(1)) for i in range(3)]
        records = _release(offered, duration_s=1.0)
        gaps = [b.time - a.time for a, b in zip(records, records[1:])]
        assert all(0.001 < gap < 0.002 for gap in gaps)  # airtime + SIFS

    def test_more_data_bits(self):
        offered = [(0.01 * i, 137, 100, mbps(1)) for i in range(3)]
        records = _release(offered, duration_s=1.0)
        assert [r.more_data for r in records] == [True, True, False]

    def test_offered_time_preserved(self):
        offered = [(0.033, 137, 100, mbps(1))]
        (record,) = _release(offered, duration_s=1.0)
        assert record.offered_time == pytest.approx(0.033)
        assert record.buffering_delay_s > 0

    def test_dtim_period_delays_release(self):
        offered = [(0.01, 137, 100, mbps(1))]
        (period1,) = _release(offered, duration_s=2.0, dtim_period=1)
        (period3,) = _release(offered, duration_s=2.0, dtim_period=3)
        assert period3.time > period1.time

    def test_records_sorted_and_within_duration(self):
        offered = [(0.9 * i % 5, 137, 100, mbps(1)) for i in range(50)]
        records = _release(offered, duration_s=6.0)
        times = [r.time for r in records]
        assert times == sorted(times)
        assert all(t < 6.0 for t in times)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            release_bursts([], duration_s=0)
        with pytest.raises(ConfigurationError):
            release_bursts([], duration_s=1.0, dtim_period=0)
