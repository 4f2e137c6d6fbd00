import pytest

from repro import errors, units


class TestUnits:
    def test_conversions(self):
        assert units.ms(46) == pytest.approx(0.046)
        assert units.us(20) == pytest.approx(20e-6)
        assert units.mj(18.26) == pytest.approx(0.01826)
        assert units.mw(530) == pytest.approx(0.530)
        assert units.mbps(11) == pytest.approx(11e6)

    def test_beacon_interval_is_100_tus(self):
        # One 802.11 time unit is 1024 µs.
        assert units.BEACON_INTERVAL_S == pytest.approx(100 * 1024e-6)

    def test_airtime(self):
        assert units.airtime(125, units.mbps(1)) == pytest.approx(0.001)
        assert units.airtime(0, units.mbps(1)) == 0.0

    def test_airtime_validation(self):
        with pytest.raises(ValueError):
            units.airtime(100, 0)
        with pytest.raises(ValueError):
            units.airtime(-1, units.mbps(1))


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "FrameError",
            "FrameDecodeError",
            "FrameEncodeError",
            "SimulationError",
            "ConfigurationError",
            "AssociationError",
            "TraceFormatError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_decode_and_encode_are_frame_errors(self):
        assert issubclass(errors.FrameDecodeError, errors.FrameError)
        assert issubclass(errors.FrameEncodeError, errors.FrameError)

    def test_one_except_catches_library_failures(self):
        from repro.traces.scenarios import scenario_by_name

        with pytest.raises(errors.ReproError):
            scenario_by_name("not-a-scenario")

    def test_public_api_surface(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name}"

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"
