"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``trace generate`` — synthesize a scenario trace to JSONL (and CSV).
* ``trace inspect`` — volume stats, CDF, and service mix of a trace.
* ``energy compare`` — receive-all vs client-side vs HIDE on a trace.
* ``sim run`` — replay a scenario through the event-level simulator,
  with ``--metrics-out`` (Prometheus/JSONL export), ``--trace-log``
  (structured JSONL event trace), ``--serve-metrics PORT`` (live
  ``/metrics`` + ``/timeseries`` + ``/healthz`` endpoint),
  ``--timeseries-out`` (windowed per-DTIM telemetry dump),
  ``--ledger-out`` (the frame-lifecycle delay/energy ledger), and
  ``--profile`` (the attribution profiler: a hotspot table of where
  callback wall time goes, plus ``--profile-out`` for the
  ``repro-profile/v1`` JSON report and ``--collapsed`` for a
  collapsed-stack file for flamegraph tooling).
* ``experiments run`` — regenerate paper tables/figures (all or some).
* ``experiments headline`` — the headline-claims scorecard.
* ``overhead capacity`` / ``overhead delay`` — Section V analyses.
* ``obs summarize`` — aggregate a ``--trace-log`` file into span/event
  statistics.
* ``obs diff`` — compare two runs' metrics/timeseries/bench/profile/
  ledger/loadgen artifacts with tolerances (nonzero exit on
  regression).
* ``obs slo`` — evaluate a declarative ``repro-slo/v1`` spec against
  run artifacts; any burned objective exits nonzero (the CI gate).
* ``sweep`` — sharded seed/scenario sweeps with per-cell progress
  lines, optional per-run profiling (``--profile``), and a live
  fleet-telemetry endpoint (``--serve-metrics``).
* ``bench`` — the observer attach-cost contracts (telemetry, ledger,
  sampling profiler); writes ``BENCH_telemetry.json`` for ``obs diff``.
* ``serve`` — the stand-alone async AP port-service: live Port
  Messages over UDP into sharded port tables, per-DTIM TTL expiry
  and Algorithm 1, ``/metrics`` + ``/healthz``.
* ``loadgen`` — replay the scenario catalog as thousands of simulated
  clients against a running ``repro serve``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ConfigurationError, ReproError

# Each handler imports the modules its command uses, so ``repro serve``
# never loads the closed-form solutions and ``sim run`` never loads the
# Section V analyses.

_DEVICES = ("galaxy-s4", "nexus-one")
_STRATEGIES = ("clustered", "random", "spread")


def _device(name: str):
    from repro.energy.profile import GALAXY_S4, NEXUS_ONE

    return {"nexus-one": NEXUS_ONE, "galaxy-s4": GALAXY_S4}[name]


def _load_trace(source: str):
    """A scenario name or a path to a JSONL trace."""
    from repro.traces import generate_trace, load_trace_jsonl, scenario_by_name

    try:
        return generate_trace(scenario_by_name(source))
    except ReproError:
        return load_trace_jsonl(source)


def cmd_trace_generate(args: argparse.Namespace) -> int:
    from repro.traces import (
        generate_trace,
        save_trace_jsonl,
        scenario_by_name,
        trace_to_csv,
    )

    trace = generate_trace(scenario_by_name(args.scenario), seed=args.seed)
    save_trace_jsonl(trace, args.out)
    print(f"wrote {len(trace)} frames to {args.out}")
    if args.csv:
        trace_to_csv(trace, args.csv)
        print(f"wrote CSV to {args.csv}")
    return 0


def cmd_trace_inspect(args: argparse.Namespace) -> int:
    from repro.reporting import render_cdf, render_table

    trace = _load_trace(args.source)
    cdf = trace.volume_cdf()
    print(
        f"{trace.name}: {len(trace)} frames over {trace.duration_s / 60:.1f} min "
        f"({trace.mean_frames_per_second:.2f} frames/s)"
    )
    print(
        f"volume: p50 {cdf.quantile(0.5):.0f}, p95 {cdf.quantile(0.95):.0f}, "
        f"max {cdf.max:.0f} frames/s"
    )
    print(render_cdf(cdf.points(), title="frames/s CDF",
                     x_max=max(10.0, cdf.quantile(0.99))))
    from repro.net.ports import service_for_port

    rows = []
    for port, count in sorted(
        trace.port_histogram().items(), key=lambda kv: -kv[1]
    )[:10]:
        service = service_for_port(port)
        rows.append(
            [str(port), service.name if service else "?",
             str(count), f"{count / max(1, len(trace)):.1%}"]
        )
    print(render_table(["port", "service", "frames", "share"], rows))

    from repro.traces.stats import compute_stats

    stats = compute_stats(trace)
    print(
        f"\nstructure: {stats.burst_count} bursts "
        f"(mean {stats.mean_burst_frames:.1f} frames / "
        f"{stats.mean_burst_duration_s * 1e3:.0f} ms), "
        f"dispersion index {stats.index_of_dispersion:.1f}, "
        f"{stats.sleepable_gap_fraction:.0%} of gaps long enough to suspend"
    )
    return 0


def cmd_energy_compare(args: argparse.Namespace) -> int:
    from repro.reporting import render_table
    from repro.solutions import ClientSideSolution, HideSolution, ReceiveAllSolution
    from repro.traces import (
        clustered_fraction_mask,
        random_fraction_mask,
        spread_fraction_mask,
    )

    strategies = {
        "clustered": clustered_fraction_mask,
        "random": random_fraction_mask,
        "spread": lambda trace, fraction, seed=0: spread_fraction_mask(trace, fraction),
    }
    trace = _load_trace(args.source)
    profile = _device(args.device)
    mask = strategies[args.strategy](trace, args.fraction, seed=args.seed)
    solutions = [ReceiveAllSolution(), ClientSideSolution(), HideSolution()]
    results = [s.evaluate(trace, mask, profile) for s in solutions]
    baseline = results[0]
    rows = [
        [
            r.solution,
            f"{r.average_power_mw:.1f}",
            f"{r.suspend_fraction:.1%}",
            f"{r.savings_vs(baseline):.1%}",
        ]
        for r in results
    ]
    print(
        render_table(
            ["solution", "avg power (mW)", "suspended", "saving"],
            rows,
            title=(
                f"{trace.name} on {profile.name}, "
                f"{mask.achieved_fraction:.1%} useful "
                f"({mask.strategy} assignment)"
            ),
        )
    )
    return 0


def _make_tracer(path: Optional[str]):
    from repro.obs import NULL_TRACER, JsonlTracer

    return JsonlTracer(path) if path else NULL_TRACER


def _write_metrics_file(rows, path: str) -> None:
    from repro.obs import format_for_path, write_metrics

    write_metrics(rows, path, format_for_path(path))
    print(f"wrote metrics to {path}")


def cmd_experiments_run(args: argparse.Namespace) -> int:
    from repro.experiments import runner

    if args.only:
        import importlib

        from repro.experiments.context import default_context

        context = default_context()
        sections = dict(runner._SECTIONS)
        for name in args.only.split(","):
            name = name.strip()
            render_section = sections.get(name)
            if render_section is not None:
                print(render_section(context))
            else:
                module = importlib.import_module(f"repro.experiments.{name}")
                print(module.render())
            print("=" * 72)
        return 0
    tracer = _make_tracer(args.trace_log)
    try:
        sections, timings = runner.run_sections(tracer=tracer)
        print(runner.render_report(sections, timings))
    finally:
        tracer.close()
    if args.trace_log:
        print(f"wrote trace log to {args.trace_log}")
    if args.metrics_out:
        _write_metrics_file(runner.section_rows(timings), args.metrics_out)
    return 0


def _parse_timeseries_window(spec: str):
    if spec == "dtim":
        return "dtim"
    try:
        return float(spec)
    except ValueError:
        raise ConfigurationError(
            f"--timeseries-window must be 'dtim' or seconds: {spec!r}"
        )


def _seed_list(spec: str):
    """``--seed-list`` value: comma-separated integers."""
    try:
        return tuple(int(seed) for seed in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {spec!r}"
        )


def _profiler_config(args: argparse.Namespace):
    """``--profile``/``--profile-stride`` as a ProfilerConfig, or None.

    Only the sampling profiler has a stride, so one given without
    ``--profile sampling`` is an error rather than silently ignored.
    """
    if args.profile_stride is not None and args.profile != "sampling":
        raise ConfigurationError("--profile-stride needs --profile sampling")
    if args.profile is None:
        return None
    from repro.obs.profiler import ProfilerConfig

    if args.profile_stride is None:
        return ProfilerConfig(mode=args.profile)
    return ProfilerConfig(mode=args.profile, stride=args.profile_stride)


def _add_profile_flags(
    parser: argparse.ArgumentParser, profile_help: str
) -> None:
    parser.add_argument(
        "--profile", choices=["exact", "sampling"], default=None,
        metavar="MODE", help=profile_help,
    )
    parser.add_argument(
        "--profile-stride", type=int, default=None, metavar="N",
        help="sampling stride for --profile sampling (default 16)",
    )


def _add_des_flags(
    parser: argparse.ArgumentParser,
    duration: float,
    fault_plan_help: str,
    check_invariants_help: str,
    serve_metrics_help: str,
) -> None:
    """The DES flags ``sim run`` and ``sweep`` share (read by
    :func:`_des_run_config`); help differs only where the meaning does."""
    parser.add_argument(
        "--policy", choices=["receive-all", "client-side", "hide"],
        default="hide",
    )
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument("--fraction", type=float, default=0.10)
    parser.add_argument(
        "--duration", type=float, default=duration,
        help="simulated seconds per run (capped at the trace duration)",
    )
    parser.add_argument("--dtim-period", type=int, default=1)
    parser.add_argument(
        "--fault-plan", default=None, metavar="SPEC", help=fault_plan_help
    )
    parser.add_argument(
        "--check-invariants", action="store_true", help=check_invariants_help
    )
    parser.add_argument(
        "--no-recovery", action="store_true",
        help="disable the client loss-recovery protocol under a fault plan",
    )
    parser.add_argument(
        "--serve-metrics", type=int, default=None, metavar="PORT",
        help=serve_metrics_help,
    )


def _des_run_config(args: argparse.Namespace, **settings):
    """A DesRunConfig from the :func:`_add_des_flags` flags plus
    ``settings`` (the fields only one command sets)."""
    from repro.experiments.des_run import DesRunConfig
    from repro.station.client import ClientPolicy

    return DesRunConfig(
        policy=ClientPolicy(args.policy),
        client_count=args.clients,
        useful_fraction=args.fraction,
        duration_s=args.duration,
        dtim_period=args.dtim_period,
        check_invariants=args.check_invariants,
        recovery=not args.no_recovery,
        **settings,
    )


def cmd_sim_run(args: argparse.Namespace) -> int:
    from repro.experiments.des_run import (
        CLIENT_SUMMARY_HEADERS,
        TelemetryConfig,
        client_summary_rows,
        prepare_trace_des,
    )
    from repro.faults import FaultPlan
    from repro.reporting import render_table
    from repro.sim.invariants import InvariantViolation

    profiler = _profiler_config(args)
    if profiler is None and (args.profile_out or args.collapsed):
        raise ConfigurationError("--profile-out and --collapsed need --profile")
    source = args.source or args.scenario
    if source is None:
        print("error: give a scenario (positional or --scenario)",
              file=sys.stderr)
        return 2
    trace = _load_trace(source)
    profile = _device(args.device)
    tracer = _make_tracer(args.trace_log)
    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = FaultPlan.parse(args.fault_plan)
        except (ConfigurationError, ValueError, OSError) as exc:
            print(f"error: bad --fault-plan: {exc}", file=sys.stderr)
            return 2
    # Built (so validated) even when telemetry is off, so a typo never
    # passes silently.
    telemetry = TelemetryConfig(
        window=_parse_timeseries_window(args.timeseries_window),
        serve_port=args.serve_metrics,
    )
    config = _des_run_config(
        args,
        profile=profile,
        hide_ap=not args.no_hide_ap,
        fault_plan=fault_plan,
        port_entry_ttl_s=args.port_ttl,
        port_refresh_interval_s=args.port_refresh,
        telemetry=(
            telemetry
            if args.serve_metrics is not None or args.timeseries_out
            else None
        ),
        ledger=bool(args.ledger or args.ledger_out),
        profiler=profiler,
    )
    prepared = prepare_trace_des(trace, config, tracer=tracer)
    if prepared.metrics_server is not None:
        print(
            f"serving metrics on {prepared.metrics_server.url}/metrics "
            "(also /timeseries, /healthz, /profile)"
        )
    try:
        result = prepared.execute()
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    finally:
        tracer.close()
        prepared.close()
    sim, ap = result.simulator, result.access_point
    print(
        f"{trace.name}: {result.duration_s:.0f} s simulated under "
        f"{args.policy} ({config.client_count} clients, {profile.name}), "
        f"{sim.events_processed} events in {sim.run_wall_time_s:.3f} s wall"
    )
    rate = (
        sim.events_processed / sim.run_wall_time_s
        if sim.run_wall_time_s > 0 else 0.0
    )
    print(
        f"engine: {sim.pending_events} pending, {sim.queue_depth} queued, "
        f"{sim.events_cancelled} cancelled, {sim.probes_fired} probes, "
        f"{rate:,.0f} events/s wall"
    )
    radios = result.medium.radio_array
    delivered = radios.lease_booked + radios.walked
    print(
        f"delivery: {delivered} listener-frames, {radios.lease_booked} "
        f"booked by the listener lease "
        f"({radios.lease_booked / max(1, delivered):.1%}), "
        f"{radios.walked} walked"
    )
    print(
        f"AP: {ap.counters.dtims_sent} DTIMs, "
        f"{ap.counters.broadcast_frames_sent} broadcast frames sent, "
        f"{ap.counters.btim_bits_set_total} BTIM bits set, "
        f"Algorithm 1 mean "
        f"{ap.counters.algorithm1_wall_s / max(1, ap.counters.algorithm1_runs) * 1e6:.1f} µs"
    )
    if result.fault_injector is not None:
        injector = result.fault_injector
        drops = (
            ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(injector.drops_by_kind.items())
            )
            or "none"
        )
        crashed = sum(c.counters.crashes for c in result.clients)
        print(
            f"faults (seed {injector.plan.seed}): "
            f"{injector.injected_drops} frames dropped ({drops}), "
            f"{crashed} client crash(es)"
        )
    if result.invariants is not None:
        print(
            f"invariants: {result.invariants.checks_run} sweeps, 0 violations; "
            f"broadcast delivered "
            f"{result.invariants.broadcast_frames_delivered}"
            f"/{result.invariants.broadcast_frames_aired}"
        )
    ports = ",".join(str(p) for p in sorted(result.useful_ports)) or "none"
    print(
        render_table(
            list(CLIENT_SUMMARY_HEADERS),
            client_summary_rows(result),
            title=f"clients (useful ports: {ports})",
        )
    )
    if args.trace_log:
        print(f"wrote trace log to {args.trace_log}")
    if args.metrics_out:
        _write_metrics_file(result.metric_rows(), args.metrics_out)
    if args.timeseries_out and result.timeseries is not None:
        result.timeseries.write(args.timeseries_out)
        print(
            f"wrote {len(result.timeseries.windows)} timeseries window(s) "
            f"to {args.timeseries_out}"
        )
    ledger_document = result.ledger_document()
    if ledger_document is not None:
        from repro.obs.ledger import render_ledger
        from repro.reporting import write_json

        print(render_ledger(ledger_document))
        if args.ledger_out:
            write_json(ledger_document, args.ledger_out)
            print(f"wrote ledger to {args.ledger_out}")
    profile_document = result.profile_report()
    if profile_document is not None:
        from repro.obs.profiler import render_profile_table
        from repro.reporting import write_json

        print(render_profile_table(profile_document))
        if args.profile_out:
            write_json(profile_document, args.profile_out)
            print(f"wrote profile report to {args.profile_out}")
        if args.collapsed:
            result.profiler.write_collapsed(args.collapsed)
            print(f"wrote collapsed stacks to {args.collapsed}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import (
        SweepSpec,
        SweepTelemetry,
        render_progress_line,
        render_sweep,
        run_sweep,
    )
    from repro.reporting import write_json

    config = _des_run_config(args, profiler=_profiler_config(args))
    spec = SweepSpec(
        scenarios=tuple(args.scenarios),
        seeds=tuple(range(args.seeds)) if args.seed_list is None
        else args.seed_list,
        config=config,
        fault_spec=args.fault_plan,
        timeseries_dir=args.timeseries_dir,
    )
    telemetry = None
    server = None
    if args.serve_metrics is not None:
        from repro.obs.server import MetricsServer

        telemetry = SweepTelemetry()
        server = MetricsServer(
            telemetry.metric_rows,
            health_fn=telemetry.health,
            port=args.serve_metrics,
        )
        server.start()
        print(
            f"serving sweep telemetry on {server.url}/metrics "
            "(also /healthz)"
        )

    def progress(entry, done, total):
        print(render_progress_line(entry, done, total), flush=True)

    try:
        document = run_sweep(
            spec,
            workers=args.workers,
            progress=None if args.no_progress else progress,
            telemetry=telemetry,
        )
    finally:
        if server is not None:
            server.stop()
    print(render_sweep(document))
    if args.out:
        write_json(document, args.out)
        print(f"wrote {args.out}")
    if document["totals"]["failed"]:
        failing = ", ".join(
            f"{f['scenario']}/{f['seed']}" for f in document["failures"]
        )
        print(f"sweep: failing cells: {failing}", file=sys.stderr)
        return 1
    return 0


def cmd_obs_summarize(args: argparse.Namespace) -> int:
    from repro.obs import render_summary, summarize_trace

    summary = summarize_trace(args.trace_log)
    if summary.skipped_lines:
        print(
            f"warning: skipped {summary.skipped_lines} malformed line(s) "
            f"in {args.trace_log}",
            file=sys.stderr,
        )
    print(render_summary(summary))
    return 0


def cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs.diff import diff_files, render_diff

    try:
        result = diff_files(
            args.file_a, args.file_b,
            rel_tol=args.rel_tol, abs_tol=args.abs_tol,
            ignore=tuple(args.ignore or ()),
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_diff(result, show_ok=args.show_ok))
    if result.ok(fail_on_missing=args.fail_on_missing):
        return 0
    print("obs diff: regression beyond tolerance", file=sys.stderr)
    return 1


def cmd_obs_slo(args: argparse.Namespace) -> int:
    from repro.obs.diff import load_metrics_file
    from repro.obs.slo import evaluate_slo, load_slo_spec, render_slo

    spec = load_slo_spec(args.spec)
    metrics: dict = {}
    for path in args.artifacts:
        try:
            loaded = load_metrics_file(path)
        except (ValueError, OSError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        metrics.update(loaded)
    report = evaluate_slo(spec, metrics)
    print(render_slo(report))
    if report.ok():
        return 0
    print("obs slo: objectives burned", file=sys.stderr)
    return 1


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench import render_bench, run_benchmarks
    from repro.reporting import write_json

    document = run_benchmarks(quick=args.quick, repeats=args.repeat)
    print(render_bench(document))
    if args.out:
        write_json(document, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, run_service

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        ttl_s=args.ttl,
        dtim_interval_s=args.dtim_interval,
        scenario=args.scenario,
        feed_seed=args.feed_seed,
        metrics_port=args.serve_metrics,
        duration_s=args.duration,
        port_file=args.port_file,
        final_state_path=args.final_state,
    )
    state = run_service(config)
    totals = state["totals"]
    print(
        f"port-service: {state['uptime_s']:.1f} s up, "
        f"{totals['datagrams_received']} datagrams "
        f"({totals['reports']} reports, {totals['keepalives']} keep-alives, "
        f"{totals['garbage']} garbage), "
        f"{totals['drops']} dropped by the kernel, "
        f"{totals['clients']} clients live at shutdown"
    )
    print(
        f"algorithm 1: {totals['algorithm1_runs']} DTIM passes, "
        f"{totals['flags_computed']} flags; "
        f"expirations {totals['expirations']}, "
        f"shard errors {totals['shard_errors']}"
    )
    if args.final_state:
        print(f"wrote final state to {args.final_state}")
    return 0 if totals["shard_errors"] == 0 else 1


def cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.reporting import write_json
    from repro.service.loadgen import LoadgenConfig, render_report, run_loadgen

    config = LoadgenConfig(
        host=args.host,
        port=args.port,
        clients=args.clients,
        rate=args.rate,
        duration_s=args.duration,
        ramp_s=args.ramp,
        scenario=args.scenario,
        seed=args.seed,
        keepalive_fraction=args.keepalive_fraction,
        ack_every=args.ack_every,
    )
    report = run_loadgen(config)
    print(render_report(report))
    if args.out:
        write_json(report.to_document(), args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_experiments_headline(args: argparse.Namespace) -> int:
    from repro.experiments import headline

    result = headline.compute()
    print(headline.render(result))
    return 0 if result.all_match else 1


def cmd_overhead_capacity(args: argparse.Namespace) -> int:
    from repro.analysis.capacity import CapacityAnalysis

    analysis = CapacityAnalysis()
    result = analysis.evaluate(
        args.nodes,
        args.adoption,
        port_message_interval_s=args.interval,
        ports_per_message=args.ports,
    )
    print(
        f"baseline capacity: {result.baseline_capacity_bps / 1e6:.3f} Mb/s\n"
        f"with HIDE:         {result.hide_capacity_bps / 1e6:.3f} Mb/s\n"
        f"decrease:          {result.capacity_decrease:.4%}"
    )
    return 0


def cmd_overhead_delay(args: argparse.Namespace) -> int:
    from repro.analysis.delay import DelayAnalysis

    analysis = DelayAnalysis()
    result = analysis.evaluate(
        args.nodes,
        hide_fraction=args.adoption,
        port_message_interval_s=args.interval,
        open_ports_per_client=args.ports,
        buffered_frames_per_dtim=args.buffered,
    )
    print(
        f"t1 (table refresh): {result.refresh_time_s * 1e3:.3f} ms\n"
        f"t2 (DTIM lookups):  {result.lookup_time_s * 1e3:.3f} ms\n"
        f"RTT increase:       {result.delay_increase:.3%} "
        f"(over {result.baseline_rtt_s * 1e3:.1f} ms)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HIDE (ICDCS 2016) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    trace = commands.add_parser("trace", help="trace tooling")
    trace_sub = trace.add_subparsers(dest="subcommand", required=True)
    generate = trace_sub.add_parser("generate", help="synthesize a scenario trace")
    generate.add_argument("scenario", help="Classroom, CS_Dept, WML, Starbucks, WRL")
    generate.add_argument("--out", required=True, help="output JSONL path")
    generate.add_argument("--csv", help="also write a CSV export")
    generate.add_argument("--seed", type=int, default=None)
    generate.set_defaults(func=cmd_trace_generate)
    inspect = trace_sub.add_parser("inspect", help="summarize a trace")
    inspect.add_argument("source", help="scenario name or JSONL path")
    inspect.set_defaults(func=cmd_trace_inspect)

    energy = commands.add_parser("energy", help="energy evaluation")
    energy_sub = energy.add_subparsers(dest="subcommand", required=True)
    compare = energy_sub.add_parser("compare", help="compare the solutions")
    compare.add_argument("source", help="scenario name or JSONL path")
    compare.add_argument("--device", choices=_DEVICES, default="nexus-one")
    compare.add_argument("--fraction", type=float, default=0.10)
    compare.add_argument("--strategy", choices=_STRATEGIES, default="clustered")
    compare.add_argument("--seed", type=int, default=42)
    compare.set_defaults(func=cmd_energy_compare)

    sim = commands.add_parser("sim", help="event-level simulation")
    sim_sub = sim.add_subparsers(dest="subcommand", required=True)
    sim_run = sim_sub.add_parser("run", help="replay a scenario through the DES")
    sim_run.add_argument(
        "source", nargs="?", default=None,
        help="scenario name or JSONL path",
    )
    sim_run.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="scenario name (alternative to the positional source)",
    )
    _add_des_flags(
        sim_run,
        duration=60.0,
        fault_plan_help="seeded fault plan: a JSON file path or an inline "
        "spec like 'loss=0.1,beacon=0.02,seed=7,crash=0@5:15' (capitalized "
        "keys override loss per frame kind)",
        check_invariants_help="run the invariant suite during and after the "
        "simulation (exit 3 on violation)",
        serve_metrics_help="serve live /metrics, /timeseries, and /healthz on "
        "this port during the run (0 = pick an ephemeral port)",
    )
    sim_run.add_argument("--device", choices=_DEVICES, default="nexus-one")
    sim_run.add_argument(
        "--port-ttl", type=float, default=None, metavar="SECONDS",
        help="AP refresh-timer TTL for Client UDP Port Table entries",
    )
    sim_run.add_argument(
        "--port-refresh", type=float, default=None, metavar="SECONDS",
        help="client keep-alive period for re-sending port reports "
             "(must stay below --port-ttl)",
    )
    sim_run.add_argument(
        "--no-hide-ap", action="store_true",
        help="run against a plain 802.11 AP (no BTIM)",
    )
    sim_run.add_argument(
        "--metrics-out",
        help="write a metrics export (.prom = Prometheus text, .jsonl = JSON lines)",
    )
    sim_run.add_argument(
        "--trace-log", help="write structured events/spans as JSONL"
    )
    sim_run.add_argument(
        "--timeseries-out", metavar="PATH",
        help="write the windowed timeseries dump as JSON after the run",
    )
    sim_run.add_argument(
        "--timeseries-window", default="dtim", metavar="SPEC",
        help="aggregation window: 'dtim' (one window per DTIM interval, "
             "the default) or a width in simulated seconds",
    )
    sim_run.add_argument(
        "--ledger", action="store_true",
        help="attach the frame-lifecycle ledger (per-frame delay spans, "
             "per-client energy attribution); fingerprints are "
             "unaffected",
    )
    sim_run.add_argument(
        "--ledger-out", default=None, metavar="PATH",
        help="write the repro-ledger/v1 JSON here (implies --ledger)",
    )
    _add_profile_flags(
        sim_run,
        "attribute the run's callback wall time to sites and print the "
        "hotspot table: 'exact' times every event, 'sampling' every "
        "--profile-stride-th event at near-zero overhead",
    )
    sim_run.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="write the repro-profile/v1 JSON report here (needs --profile)",
    )
    sim_run.add_argument(
        "--collapsed", default=None, metavar="PATH",
        help="write collapsed-stack lines here for flamegraph.pl / "
             "speedscope (needs --profile)",
    )
    sim_run.set_defaults(func=cmd_sim_run)

    experiments = commands.add_parser("experiments", help="paper reproductions")
    experiments_sub = experiments.add_subparsers(dest="subcommand", required=True)
    run = experiments_sub.add_parser("run", help="regenerate tables/figures")
    run.add_argument(
        "--only", help="comma-separated module names, e.g. figure10,figure11"
    )
    run.add_argument(
        "--metrics-out",
        help="write section-timing metrics (full runs only)",
    )
    run.add_argument(
        "--trace-log",
        help="write per-section spans as JSONL (full runs only)",
    )
    run.set_defaults(func=cmd_experiments_run)
    headline = experiments_sub.add_parser("headline", help="claims scorecard")
    headline.set_defaults(func=cmd_experiments_headline)

    sweep = commands.add_parser(
        "sweep",
        help="sharded seed/scenario sweep: fan DES runs across worker "
             "processes and merge into one report",
    )
    sweep.add_argument(
        "scenarios", nargs="+",
        help="scenario names (Classroom, CS_Dept, WML, Starbucks, WRL)",
    )
    sweep.add_argument(
        "--seeds", type=int, default=10, metavar="N",
        help="sweep trace seeds 0..N-1 (default 10)",
    )
    sweep.add_argument(
        "--seed-list", type=_seed_list, default=None, metavar="S1,S2,...",
        help="explicit comma-separated seed list (overrides --seeds)",
    )
    sweep.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes (1 = in-process; report is identical "
             "either way)",
    )
    _add_des_flags(
        sweep,
        duration=10.0,
        fault_plan_help="fault-plan spec applied to every run with its seed "
        "replaced by the run's trace seed",
        check_invariants_help="arm the invariant suite in every run; "
        "violations become failing cells, not aborts",
        serve_metrics_help="serve live fleet telemetry (/metrics + /healthz) "
        "on this port while the sweep runs (0 = ephemeral port): cells "
        "done/failed, per-worker throughput, profiler hot totals",
    )
    sweep.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the repro-sweep/v1 JSON report here",
    )
    sweep.add_argument(
        "--timeseries-dir", default=None, metavar="DIR",
        help="write one windowed timeseries dump per run into DIR",
    )
    _add_profile_flags(
        sweep,
        "profile every run's callback sites ('exact' or 'sampling'); "
        "the merged attribution profile lands in the report's "
        "'profile' section",
    )
    sweep.add_argument(
        "--no-progress", action="store_true",
        help="suppress the per-cell progress lines",
    )
    sweep.set_defaults(func=cmd_sweep)

    overhead = commands.add_parser("overhead", help="Section V analyses")
    overhead_sub = overhead.add_subparsers(dest="subcommand", required=True)
    capacity = overhead_sub.add_parser("capacity", help="network capacity cost")
    capacity.add_argument("--nodes", type=int, default=50)
    capacity.add_argument("--adoption", type=float, default=0.5)
    capacity.add_argument("--interval", type=float, default=10.0)
    capacity.add_argument("--ports", type=int, default=50)
    capacity.set_defaults(func=cmd_overhead_capacity)
    delay = overhead_sub.add_parser("delay", help="RTT cost")
    delay.add_argument("--nodes", type=int, default=50)
    delay.add_argument("--adoption", type=float, default=0.5)
    delay.add_argument("--interval", type=float, default=10.0)
    delay.add_argument("--ports", type=int, default=50)
    delay.add_argument("--buffered", type=float, default=10.0)
    delay.set_defaults(func=cmd_overhead_delay)

    obs = commands.add_parser("obs", help="observability tooling")
    obs_sub = obs.add_subparsers(dest="subcommand", required=True)
    summarize = obs_sub.add_parser("summarize", help="aggregate a trace log")
    summarize.add_argument("trace_log", help="path to a JSONL trace log")
    summarize.set_defaults(func=cmd_obs_summarize)
    diff = obs_sub.add_parser(
        "diff",
        help="compare two runs' metrics/timeseries/bench files "
             "(exit 1 beyond tolerance)",
    )
    diff.add_argument("file_a", help="baseline artifact (.prom/.jsonl/.json)")
    diff.add_argument("file_b", help="candidate artifact to compare")
    diff.add_argument(
        "--rel-tol", type=float, default=0.0, metavar="FRACTION",
        help="allowed relative delta per metric (e.g. 0.05 = 5%%)",
    )
    diff.add_argument(
        "--abs-tol", type=float, default=0.0, metavar="VALUE",
        help="allowed absolute delta per metric (passes if either "
             "tolerance holds)",
    )
    diff.add_argument(
        "--ignore", action="append", metavar="REGEX",
        help="skip series matching this pattern on both sides "
             "(repeatable; e.g. --ignore wall for host-speed families)",
    )
    diff.add_argument(
        "--fail-on-missing", action="store_true",
        help="also fail when a metric appears on only one side",
    )
    diff.add_argument(
        "--show-ok", action="store_true",
        help="list metrics within tolerance too, not just changes",
    )
    diff.set_defaults(func=cmd_obs_diff)
    slo = obs_sub.add_parser(
        "slo",
        help="evaluate a repro-slo/v1 spec against run artifacts "
             "(exit 1 when any objective burns)",
    )
    slo.add_argument(
        "--spec", required=True, metavar="PATH",
        help="repro-slo/v1 JSON spec file",
    )
    slo.add_argument(
        "artifacts", nargs="+", metavar="ARTIFACT",
        help="artifacts to merge and evaluate (ledger/loadgen/bench "
             "JSON, .prom, .jsonl, timeseries); later files win on "
             "duplicate keys",
    )
    slo.set_defaults(func=cmd_obs_slo)

    bench = commands.add_parser(
        "bench",
        help="observer attach-cost contracts (telemetry, ledger, profiler)",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="smaller workloads and fewer repeats (CI smoke mode)",
    )
    bench.add_argument(
        "--repeat", type=int, default=None, metavar="N",
        help="repeats per benchmark (best sample wins)",
    )
    bench.add_argument(
        "--out", default="BENCH_telemetry.json", metavar="PATH",
        help="write the repro-bench/v1 JSON here ('' to skip)",
    )
    bench.set_defaults(func=cmd_bench)

    serve = commands.add_parser(
        "serve",
        help="run the stand-alone async AP port-service (live UDP Port "
             "Messages, per-BSS port tables, per-DTIM TTL expiry + Algorithm 1)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="UDP port for Port Messages (0 = ephemeral; see --port-file)",
    )
    serve.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="deprecated and ignored: the service keeps one port state "
             "and applies each socket batch in one pass",
    )
    serve.add_argument(
        "--ttl", type=float, default=30.0, metavar="SECONDS",
        help="keep-alive TTL before a client's entries expire at the next "
             "DTIM pass (default 30)",
    )
    serve.add_argument(
        "--dtim-interval", type=float, default=0.1024, metavar="SECONDS",
        help="DTIM pass cadence: expiry, then Algorithm 1 (default "
             "102.4 ms, the paper's DTIM)",
    )
    serve.add_argument(
        "--scenario", default="Classroom",
        help="scenario trace feeding the per-DTIM broadcast buffer",
    )
    serve.add_argument("--feed-seed", type=int, default=None)
    serve.add_argument(
        "--serve-metrics", type=int, default=None, metavar="PORT",
        help="serve /metrics + /healthz on this port (0 = ephemeral)",
    )
    serve.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="auto-stop after this long (default: run until SIGTERM/SIGINT)",
    )
    serve.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write bound ports as JSON once listening (for scripts/CI)",
    )
    serve.add_argument(
        "--final-state", default=None, metavar="PATH",
        help="write the repro-service-state/v2 shutdown snapshot here",
    )
    serve.set_defaults(func=cmd_serve)

    loadgen = commands.add_parser(
        "loadgen",
        help="replay the scenario catalog as simulated clients against "
             "a running 'repro serve'",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument(
        "--port", type=int, required=True,
        help="the service's UDP port (see its --port-file)",
    )
    loadgen.add_argument(
        "--clients", type=int, default=1000,
        help="simulated clients; AIDs wrap at 2007 into extra BSSes",
    )
    loadgen.add_argument(
        "--rate", type=float, default=50_000.0, metavar="MSGS_PER_S",
        help="target aggregate send rate (default 50k/s)",
    )
    loadgen.add_argument(
        "--duration", type=float, default=10.0, metavar="SECONDS",
    )
    loadgen.add_argument(
        "--ramp", type=float, default=0.0, metavar="SECONDS",
        help="linear ramp from 10%% to 100%% of --rate over this long",
    )
    loadgen.add_argument(
        "--scenario", default="Classroom",
        help="scenario whose service mix shapes per-client open ports",
    )
    loadgen.add_argument("--seed", type=int, default=1)
    loadgen.add_argument(
        "--keepalive-fraction", type=float, default=0.75, metavar="F",
        help="fraction of steady-state sends that are keep-alives",
    )
    loadgen.add_argument(
        "--ack-every", type=int, default=64, metavar="N",
        help="every Nth send requests an ACK (0 = never)",
    )
    loadgen.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the repro-loadgen/v1 JSON report here",
    )
    loadgen.set_defaults(func=cmd_loadgen)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
