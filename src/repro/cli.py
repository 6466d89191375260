"""Command-line interface: regenerate paper artifacts and run experiments.

Usage (after ``pip install -e .``):

    python -m repro figure2                # Figure 2 table
    python -m repro figure3                # Figure 3 table
    python -m repro table1 [--scale 0.1]   # Table I (message-level engine)
    python -m repro headline               # §V-A ×55 / ÷3.5 rendition
    python -m repro fig1                   # Figure 1 as validation counts
    python -m repro simulate srbb fifa     # one chain × one workload
    python -m repro saturate srbb          # max sustainable TPS (bisection)
    python -m repro traces                 # workload envelope statistics
"""

from __future__ import annotations

import argparse
import os
import sys


def _open_output(path: str):
    """Open an output path for writing, creating parent directories.

    Failures surface as :class:`repro.errors.OutputWriteError` so
    :func:`main` can report a one-line error (exit 1) instead of a
    traceback.
    """
    from repro.errors import OutputWriteError

    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return open(path, "w")
    except OSError as exc:
        raise OutputWriteError(f"cannot write {path}: {exc}") from exc


def _cmd_figure2(args) -> int:
    from repro.analysis.figures import figure2
    from repro.diablo.report import format_results_table

    print(format_results_table(
        figure2(scale=args.scale),
        title="Figure 2 — avg throughput (TPS) and commit %",
    ))
    return 0


def _cmd_figure3(args) -> int:
    from repro.analysis.figures import figure3
    from repro.diablo.report import format_results_table

    print(format_results_table(
        figure3(scale=args.scale), title="Figure 3 — avg latency (s)"
    ))
    return 0


def _cmd_table1(args) -> int:
    from repro.analysis.figures import table1
    from repro.diablo.report import format_table1

    no_rpm, with_rpm = table1(
        valid_count=int(20_000 * args.scale),
        invalid_count=int(10_000 * args.scale),
        flood_per_block=max(50, int(2_500 * args.scale)),
    )
    print(format_table1(no_rpm.as_report_mapping(), with_rpm.as_report_mapping()))
    gain = with_rpm.throughput_tps / no_rpm.throughput_tps - 1
    print(f"RPM gain: {gain:+.1%} (paper: +7%)")
    return 0


def _cmd_headline(args) -> int:
    from repro.analysis.figures import tvpr_headline

    h = tvpr_headline()
    print(f"SRBB     : {h.srbb_tps:9.1f} TPS   {h.srbb_latency_s:6.1f} s")
    print(f"EVM+DBFT : {h.baseline_tps:9.1f} TPS   {h.baseline_latency_s:6.1f} s")
    print(f"ratios   : ×{h.throughput_ratio:.1f} throughput (paper ×55), "
          f"÷{h.latency_ratio:.1f} latency (paper ÷3.5)")
    return 0


def _cmd_fig1(args) -> int:
    from repro.analysis.figures import figure1_counts

    counts = figure1_counts(n=args.n, txs=args.txs)
    for mode, row in counts.items():
        print(f"{mode:7s} eager validations/tx: "
              f"{row['eager_validations_per_tx']:.1f}   "
              f"tx gossip messages: {row['tx_gossip_messages']}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.sim.chains import chain_model
    from repro.sim.engine import simulate_chain
    from repro.workloads import fifa_trace, nasdaq_trace, uber_trace

    traces = {
        "nasdaq": nasdaq_trace, "uber": uber_trace, "fifa": fifa_trace,
    }
    trace = traces[args.workload]()
    if args.scale != 1.0:
        trace = trace.scaled(args.scale, name=trace.name)
    result = simulate_chain(chain_model(args.chain), trace)
    for key, value in result.summary_row().items():
        print(f"{key:15s} {value}")
    return 0


def _cmd_saturate(args) -> int:
    from repro.sim.chains import chain_model
    from repro.sim.sweep import saturation_throughput

    rate = saturation_throughput(chain_model(args.chain), duration_s=args.duration)
    print(f"{args.chain}: sustains ~{rate} TPS with ≥99.9% commit")
    return 0


def _cmd_dapp(args) -> int:
    from repro.diablo.runner import run_dapp_workload

    outcome = run_dapp_workload(
        args.workload, scale=args.scale, n=args.n,
        tvpr=not args.no_tvpr, rpm=args.rpm,
    )
    for key, value in outcome.result.summary_row().items():
        print(f"{key:15s} {value}")
    print(f"{'safety':15s} {outcome.safety_holds}")
    print(f"{'states agree':15s} {outcome.states_agree}")
    return 0


def _cmd_watch(args) -> int:
    from repro.analysis.timeseries import congestion_series
    from repro.sim.chains import chain_model
    from repro.workloads import fifa_trace, nasdaq_trace, uber_trace

    traces = {"nasdaq": nasdaq_trace, "uber": uber_trace, "fifa": fifa_trace}
    trace = traces[args.workload]()
    if args.scale != 1.0:
        trace = trace.scaled(args.scale, name=trace.name)
    result, series = congestion_series(chain_model(args.chain), trace)
    print(series.render(width=args.width))
    onset = series.congestion_onset_s()
    print(f"  throughput {result.throughput_tps:.1f} TPS, "
          f"latency {result.avg_latency_s:.1f} s, "
          f"commit {result.commit_rate:.1%}, "
          f"congestion onset: {'never' if onset is None else f'{onset:.0f}s'}")
    return 0


def _cmd_report(args) -> int:
    if args.trace:
        from repro.analysis.congestion_report import build_congestion_report
        from repro.telemetry.trace_event import load_jsonl

        text = build_congestion_report(
            load_jsonl(args.trace),
            html=bool(args.output and args.output.endswith(".html")),
        )
    else:
        from repro.analysis.report import build_report

        text = build_report(
            include_table1=not args.skip_table1,
            table1_scale=args.table1_scale,
        )
    if args.output:
        with _open_output(args.output) as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_traces(args) -> int:
    from repro.workloads import fifa_trace, nasdaq_trace, uber_trace
    from repro.workloads.replay import trace_stats

    from repro.diablo.report import format_results_table

    rows = [
        trace_stats(trace_fn()).as_row()
        for trace_fn in (nasdaq_trace, uber_trace, fifa_trace)
    ]
    print(format_results_table(rows, title="DIABLO DApp workload envelopes"))
    return 0


def _cmd_bench_run(args) -> int:
    from repro.bench import run_scenarios, scenario_names

    names = args.scenarios or scenario_names()
    run_scenarios(names, out_dir=args.out_dir, log=lambda m: print(m, file=sys.stderr))
    return 0


def _cmd_bench_list(args) -> int:
    from repro.bench import get_scenario, scenario_names

    for name in scenario_names():
        print(f"{name:26s} {get_scenario(name).description}")
    return 0


def _cmd_metrics_diff(args) -> int:
    from repro.bench import compare_files

    text, rc = compare_files(
        args.old, args.new,
        max_rows=args.max_rows, show_unchanged=args.show_unchanged,
    )
    print(text)
    return rc


def _profile_scenario(args) -> int:
    from repro.bench import run_scenario

    artifact = run_scenario(args.scenario)
    for key, value in sorted(artifact.headline.items()):
        print(f"{key:32s} {value}")
    return 0


def _cmd_profile(args) -> int:
    import tracemalloc

    from repro.telemetry import profiling

    path = os.path.join(
        args.out_dir, f"PROFILE_{args.profile_slug(args)}.collapsed"
    )
    start_tracing = args.memory and not tracemalloc.is_tracing()
    if start_tracing:
        tracemalloc.start()
    try:
        with profiling.sample() as stacks:
            rc = args.profile_fn(args)
        print(profiling.render_table(stacks, top=args.top))
        if args.memory:
            print(profiling.render_memory(top=args.top))
    finally:
        if start_tracing:
            tracemalloc.stop()
    with _open_output(path) as fh:
        fh.write(profiling.to_collapsed(stacks))
    print(f"profile written to {path}", file=sys.stderr)
    return rc


def _telemetry_parent() -> argparse.ArgumentParser:
    """Options every subcommand shares (observability wiring)."""
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("observability")
    group.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="dump telemetry metrics after the run (Prometheus text "
        "format, or JSON if PATH ends in .json)",
    )
    group.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="dump the structured JSONL trace after the run (streamed "
        "incrementally unless --trace-event-out also needs the buffer)",
    )
    group.add_argument(
        "--trace-event-out", metavar="PATH", default=None,
        help="dump the trace as Chrome trace-event JSON (open at "
        "ui.perfetto.dev) with per-node tracks and per-tx flow arrows",
    )
    group.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log more (-v: info, -vv: debug) on the repro.* loggers",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    from repro.sim.chains import CHAIN_MODELS

    chains = sorted(CHAIN_MODELS)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Smart Redbelly Blockchain reproduction — regenerate "
        "the paper's tables and figures",
    )
    common = _telemetry_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("figure2", help="Fig. 2: throughput + commit %")
    p.add_argument("--scale", type=float, default=1.0, help="workload rate scale")
    p.set_defaults(fn=_cmd_figure2)

    p = add_parser("figure3", help="Fig. 3: latency")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(fn=_cmd_figure3)

    p = add_parser("table1", help="Table I: RPM under flooding")
    p.add_argument("--scale", type=float, default=1.0,
                   help="scale of the 20K/10K transaction counts")
    p.set_defaults(fn=_cmd_table1)

    p = add_parser("headline", help="§V-A SRBB vs EVM+DBFT ratios")
    p.set_defaults(fn=_cmd_headline)

    p = add_parser("fig1", help="Fig. 1 as measured validation counts")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--txs", type=int, default=16)
    p.set_defaults(fn=_cmd_fig1)

    p = add_parser("simulate", help="one chain × one workload")
    p.add_argument("chain", choices=chains)
    p.add_argument("workload", choices=["nasdaq", "uber", "fifa"])
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(fn=_cmd_simulate)

    p = add_parser("saturate", help="max sustainable TPS (bisection)")
    p.add_argument("chain", choices=chains)
    p.add_argument("--duration", type=int, default=30)
    p.set_defaults(fn=_cmd_saturate)

    p = add_parser("traces", help="workload envelope statistics")
    p.set_defaults(fn=_cmd_traces)

    p = add_parser(
        "dapp", help="run a DApp workload on the message-level engine"
    )
    p.add_argument("workload", choices=["nasdaq", "uber", "fifa"])
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--no-tvpr", action="store_true",
                   help="modern-blockchain mode (gossip everything)")
    p.add_argument("--rpm", action="store_true")
    p.set_defaults(fn=_cmd_dapp)

    p = add_parser("watch", help="sparkline congestion series for one run")
    p.add_argument("chain", choices=chains)
    p.add_argument("workload", choices=["nasdaq", "uber", "fifa"])
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--width", type=int, default=60)
    p.set_defaults(fn=_cmd_watch)

    p = add_parser(
        "bench",
        help="scenario benchmark harness (BENCH_*.json artifacts)",
        description="Run canonical benchmark scenarios and manage their "
        "schema-versioned BENCH_<scenario>.json artifacts.",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    b = bench_sub.add_parser(
        "run", parents=[common],
        help="run scenarios and write BENCH_<scenario>.json artifacts",
    )
    b.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                   help="scenario names (default: all; see 'bench list')")
    b.add_argument("--out-dir", default=".",
                   help="directory for BENCH_*.json artifacts (default: .)")
    b.set_defaults(fn=_cmd_bench_run)
    b = bench_sub.add_parser(
        "list", parents=[common], help="list registered scenarios"
    )
    b.set_defaults(fn=_cmd_bench_list)

    p = add_parser(
        "profile",
        help="sample a run's Python stacks (PROFILE_*.collapsed flamegraph)",
        description="Run a target under a stack sampler that fires every "
        "1 ms of CPU time: prints sample shares per repro/ module and the "
        "top leaf functions, and writes collapsed stacks for flamegraph.pl "
        "or speedscope.",
    )
    prof_sub = p.add_subparsers(dest="profile_command", required=True)
    prof_common = argparse.ArgumentParser(add_help=False)
    prof_group = prof_common.add_argument_group("profiling")
    prof_group.add_argument(
        "--out-dir", default=".",
        help="directory for PROFILE_<target>.collapsed (default: .)",
    )
    prof_group.add_argument(
        "--memory", action="store_true",
        help="also trace allocations and print the top allocation sites "
        "and peak RSS at the end (adds overhead; off by default)",
    )
    prof_group.add_argument(
        "--top", type=int, default=15,
        help="rows per terminal table (default 15)",
    )

    q = prof_sub.add_parser(
        "simulate", parents=[common, prof_common],
        help="profile one chain × one workload (tick-level engine)",
    )
    q.add_argument("chain", choices=chains)
    q.add_argument("workload", choices=["nasdaq", "uber", "fifa"])
    q.add_argument("--scale", type=float, default=1.0)
    q.set_defaults(
        fn=_cmd_profile, profile_fn=_cmd_simulate,
        profile_slug=lambda a: (
            f"simulate_{a.chain.replace('+', '-')}_{a.workload}"
        ),
    )

    q = prof_sub.add_parser(
        "dapp", parents=[common, prof_common],
        help="profile a DApp workload (message-level engine)",
    )
    q.add_argument("workload", choices=["nasdaq", "uber", "fifa"])
    q.add_argument("--scale", type=float, default=0.01)
    q.add_argument("--n", type=int, default=4)
    q.add_argument("--no-tvpr", action="store_true")
    q.add_argument("--rpm", action="store_true")
    q.set_defaults(
        fn=_cmd_profile, profile_fn=_cmd_dapp,
        profile_slug=lambda a: f"dapp_{a.workload}",
    )

    q = prof_sub.add_parser(
        "scenario", parents=[common, prof_common],
        help="profile one bench scenario (see 'repro bench list')",
    )
    q.add_argument("scenario", help="scenario name")
    q.set_defaults(
        fn=_cmd_profile, profile_fn=_profile_scenario,
        profile_slug=lambda a: f"scenario_{a.scenario}",
    )

    p = add_parser(
        "metrics-diff",
        help="diff two metric dumps with regression thresholds",
        description="Compare two BENCH_*.json artifacts, --metrics-out JSON "
        "snapshots, or Prometheus text dumps under direction-aware "
        "thresholds; exits 1 when a gated metric regresses.",
    )
    p.add_argument("old", help="baseline artifact/dump (JSON or Prometheus)")
    p.add_argument("new", help="candidate artifact/dump (JSON or Prometheus)")
    p.add_argument("--max-rows", type=int, default=40,
                   help="max table rows to print (default 40)")
    p.add_argument("--show-unchanged", action="store_true",
                   help="also list metrics that did not change")
    p.set_defaults(fn=_cmd_metrics_diff)

    p = add_parser(
        "report",
        help="regenerate the full markdown report, or render a saved "
        "trace (--trace) into a congestion report",
    )
    p.add_argument("--output", "-o", default=None,
                   help="write to a file (.html selects the HTML renderer "
                   "for congestion reports)")
    p.add_argument("--skip-table1", action="store_true",
                   help="skip the (slow) message-level Table I run")
    p.add_argument("--table1-scale", type=float, default=1.0)
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="JSONL trace (from --trace-out); renders its "
                   "critical-path latency attribution and congestion "
                   "series")
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    from repro import telemetry

    args = build_parser().parse_args(argv)
    telemetry.configure_logging(args.verbose)
    tracing = bool(args.trace_out or args.trace_event_out)
    capture = bool(args.metrics_out or tracing)
    if capture:
        # Fresh counts per invocation so the dump reconciles with this
        # run's results even when main() is called repeatedly in-process.
        registry = telemetry.get_registry()
        registry.reset()
        registry.enable()
    if tracing:
        tracer = telemetry.get_tracer()
        tracer.clear()
        tracer.enabled = True
        if args.trace_out and not args.trace_event_out:
            # Stream the JSONL trace incrementally (bounded memory).  The
            # trace-event exporter needs the full buffer, so when it is
            # also requested the trace stays buffered and both dumps
            # happen at the end.
            tracer.stream_to(args.trace_out)

    from repro.errors import OutputWriteError

    try:
        try:
            rc = args.fn(args)
        except OutputWriteError as exc:
            print(f"repro: {exc}", file=sys.stderr)
            rc = 1
    finally:
        # A bad output path must not swallow the run's results with a
        # traceback — report it and fail the exit code instead.
        for path, write in (
            (args.metrics_out, lambda p: telemetry.write_metrics(p)),
            (args.trace_event_out,
             lambda p: telemetry.get_tracer().dump_trace_event(p)),
            (args.trace_out, lambda p: telemetry.get_tracer().dump(p)),
        ):
            if not path:
                continue
            try:
                parent = os.path.dirname(path)
                if parent:
                    os.makedirs(parent, exist_ok=True)
                write(path)
            except OSError as exc:
                print(f"repro: cannot write {path}: {exc}", file=sys.stderr)
                rc = 1
            else:
                print(f"telemetry written to {path}", file=sys.stderr)
        # Scope telemetry to this invocation: library-style callers of
        # main() must not keep paying for it, nor keep its records.
        if capture:
            telemetry.disable()
        if tracing:
            tracer.close_stream()
            tracer.enabled = False
            tracer.clear()
    return rc


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
