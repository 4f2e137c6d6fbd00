"""CLI behaviour, exercised in-process through repro.cli.main."""

import pytest

from repro.cli import main


class TestTraceCommands:
    def test_generate_and_inspect(self, tmp_path, capsys):
        out = tmp_path / "starbucks.jsonl"
        csv = tmp_path / "starbucks.csv"
        assert main(
            ["trace", "generate", "Starbucks", "--out", str(out), "--csv", str(csv)]
        ) == 0
        captured = capsys.readouterr().out
        assert "wrote" in captured
        assert out.exists() and csv.exists()

        assert main(["trace", "inspect", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "Starbucks" in captured
        assert "frames/s CDF" in captured

    def test_inspect_by_scenario_name(self, capsys):
        assert main(["trace", "inspect", "WRL"]) == 0
        assert "WRL" in capsys.readouterr().out

    def test_unknown_scenario_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["trace", "generate", "Mars_Base", "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["trace", "inspect", "/nonexistent/trace.jsonl"]) == 2

    def test_malformed_trace_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "list.jsonl"
        path.write_text("[1]\n")
        assert main(["trace", "inspect", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}")


class TestEnergyCompare:
    def test_compare_runs(self, capsys):
        assert main(
            ["energy", "compare", "WRL", "--device", "galaxy-s4",
             "--fraction", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "receive-all" in out
        assert "hide" in out
        assert "Galaxy S4" in out

    def test_compare_strategies(self, capsys):
        for strategy in ("clustered", "random", "spread"):
            assert main(
                ["energy", "compare", "WRL", "--strategy", strategy]
            ) == 0
            assert strategy in capsys.readouterr().out


class TestOverheadCommands:
    def test_capacity(self, capsys):
        assert main(["overhead", "capacity", "--nodes", "50",
                     "--adoption", "0.75"]) == 0
        out = capsys.readouterr().out
        assert "decrease" in out
        assert "0.12" in out  # ~0.125%

    def test_delay(self, capsys):
        assert main(["overhead", "delay", "--nodes", "50",
                     "--interval", "10"]) == 0
        out = capsys.readouterr().out
        assert "RTT increase" in out
        assert "2.3" in out


class TestExperimentsCommands:
    def test_run_only_fast_figures(self, capsys):
        assert main(["experiments", "run", "--only", "figure10,figure11"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "Figure 11" in out

    def test_run_only_tables(self, capsys):
        assert main(["experiments", "run", "--only", "table1,table2"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out

    def test_run_only_prints_the_full_report_section(self, capsys):
        from repro.experiments import runner

        rule = "=" * 72
        assert main(["experiments", "run"]) == 0
        report = capsys.readouterr().out.split("\n" + rule + "\n")
        names = [name for name, _ in runner._SECTIONS]
        assert main(["experiments", "run", "--only", "figure9"]) == 0
        only = capsys.readouterr().out
        assert only == report[names.index("figure9")] + "\n" + rule + "\n"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["trace"])


class TestSimRunProfileFlags:
    def test_profile_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "Classroom"])
        assert exc.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--profile-stride", "4"], ["--profile", "exact", "--profile-stride", "4"]],
    )
    def test_stride_without_sampling_exits_2(self, flags, capsys):
        assert main(["sim", "run", "Classroom", "--duration", "2", *flags]) == 2
        assert "--profile-stride needs --profile sampling" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flag", ["--profile-out", "--collapsed"])
    def test_profile_outputs_without_profile_exit_2(self, flag, tmp_path, capsys):
        path = tmp_path / "out"
        assert main(["sim", "run", "Classroom", flag, str(path)]) == 2
        assert "need --profile" in capsys.readouterr().err
        assert not path.exists()

    def test_profiling_leaves_the_metrics_export_unchanged(self, tmp_path):
        from repro.obs.diff import diff_files

        plain, profiled = tmp_path / "plain.prom", tmp_path / "profiled.prom"
        base = ["sim", "run", "Classroom", "--duration", "5", "--clients", "4"]
        assert main([*base, "--metrics-out", str(plain)]) == 0
        assert main(
            [*base, "--metrics-out", str(profiled), "--profile", "exact"]
        ) == 0
        result = diff_files(
            str(plain), str(profiled), rel_tol=0.0, abs_tol=0.0,
            ignore=("wall",),
        )
        assert result.ok(fail_on_missing=True)

    def test_engine_line_matches_the_metrics_export(self, tmp_path, capsys):
        """Pending events and queue depth (tombstones included) are two
        gauges; the summary prints both, as the export has them."""
        import re

        from repro.obs.diff import load_metrics_file

        prom = tmp_path / "run.prom"
        assert main([
            "sim", "run", "Classroom", "--duration", "8", "--clients", "4",
            "--metrics-out", str(prom),
        ]) == 0
        line = next(
            text for text in capsys.readouterr().out.splitlines()
            if text.startswith("engine: ")
        )
        match = re.match(r"engine: (\d+) pending, (\d+) queued, ", line)
        assert match, line
        pending, queued = (int(group) for group in match.groups())
        series = load_metrics_file(str(prom))
        assert pending == series["repro_sim_pending_events"]
        assert queued == series["repro_sim_queue_depth"]
        # Renewals leave superseded deadlines behind, so the two differ.
        assert queued > pending

    def test_delivery_line_adds_up_and_leaves_the_export_alone(
        self, tmp_path, capsys
    ):
        """Every listener-frame is booked by the lease or walked; the
        counters behind the line stay out of the export, which matches
        the everyone-receives oracle's, where no lease exists."""
        import re

        from repro.obs.diff import diff_files, load_metrics_file
        from tests.sim.reference_medium import oracle_des

        flags = ["sim", "run", "Classroom", "--duration", "20", "--clients", "8"]
        prom = tmp_path / "run.prom"
        assert main(flags + ["--metrics-out", str(prom)]) == 0
        line = next(
            text for text in capsys.readouterr().out.splitlines()
            if text.startswith("delivery: ")
        )
        match = re.match(
            r"delivery: (\d+) listener-frames, (\d+) booked by the listener "
            r"lease \((\d+\.\d)%\), (\d+) walked$",
            line,
        )
        assert match, line
        delivered, booked, walked = (int(match.group(i)) for i in (1, 2, 4))
        assert delivered == booked + walked
        assert booked > 0
        assert float(match.group(3)) == round(100 * booked / delivered, 1)
        series = load_metrics_file(str(prom))
        received = sum(
            value for name, value in series.items()
            if name.startswith("repro_client_broadcast_frames_received_total")
        )
        assert received == delivered
        assert not [name for name in series if "lease" in name]
        reference = tmp_path / "reference.prom"
        with oracle_des():
            assert main(flags + ["--metrics-out", str(reference)]) == 0
        diff = diff_files(
            str(reference), str(prom), rel_tol=0.0, abs_tol=0.0,
            ignore=("wall",),
        )
        assert diff.ok(fail_on_missing=True)


class TestSharedDesFlags:
    """`sim run` and `sweep` read the shared DES flags identically."""

    SHARED = (
        "policy", "client_count", "useful_fraction", "duration_s",
        "dtim_period", "check_invariants", "recovery", "profiler",
    )

    @staticmethod
    def configs(monkeypatch, flags):
        """The DesRunConfig each command builds from ``flags``."""
        import repro.experiments.des_run
        import repro.experiments.sweep

        seen = {}

        class Stop(Exception):
            pass

        def fake_prepare(trace, config, **kwargs):
            seen["sim"] = config
            raise Stop

        def fake_sweep(spec, **kwargs):
            seen["sweep"] = spec.config
            raise Stop

        monkeypatch.setattr(
            repro.experiments.des_run, "prepare_trace_des", fake_prepare
        )
        monkeypatch.setattr(repro.experiments.sweep, "run_sweep", fake_sweep)
        with pytest.raises(Stop):
            main(["sim", "run", "Classroom", *flags])
        with pytest.raises(Stop):
            main(["sweep", "Classroom", "--no-progress", *flags])
        return seen["sim"], seen["sweep"]

    def test_same_flags_give_the_same_config(self, monkeypatch):
        flags = [
            "--policy", "client-side", "--clients", "5", "--fraction", "0.2",
            "--duration", "7", "--dtim-period", "2", "--check-invariants",
            "--no-recovery", "--profile", "sampling", "--profile-stride", "4",
        ]
        sim, sweep = self.configs(monkeypatch, flags)
        for name in self.SHARED:
            assert getattr(sim, name) == getattr(sweep, name), name
        assert sim.duration_s == 7.0 and sim.client_count == 5

    def test_defaults_differ_only_in_duration(self, monkeypatch):
        sim, sweep = self.configs(monkeypatch, [])
        assert (sim.duration_s, sweep.duration_s) == (60.0, 10.0)
        for name in self.SHARED:
            if name != "duration_s":
                assert getattr(sim, name) == getattr(sweep, name), name
