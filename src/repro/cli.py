"""Command-line experiment runner and BLIF optimizer.

Usage::

    python -m repro table2            # Script A   (paper Table II)
    python -m repro table3            # Script B   (paper Table III)
    python -m repro table4            # Script C   (paper Table IV)
    python -m repro table5            # script.algebraic (paper Table V)
    python -m repro all               # all four tables
    python -m repro --quick table2    # smaller suite
    python -m repro --circuits rnd1,add6 table2
    python -m repro --methods sis,basic table2

    # optimize a BLIF netlist (or a named suite circuit, bench:NAME)
    python -m repro optimize design.blif --method ext -o out.blif
    python -m repro optimize bench:rnd2 --script A --method ext_gdc
    python -m repro optimize design.blif --jobs 4 --stats-json run.json
    # simulation-guided resubstitution engine instead of division
    python -m repro optimize design.blif --method simguided -o out.blif

    # analyze a --trace file: critical path / Chrome trace / flamegraph
    python -m repro trace report run.jsonl
    python -m repro trace chrome run.jsonl -o run.chrome.json
    python -m repro trace flame run.jsonl -o run.folded

    # live telemetry: progress line, resource sampling, trace tailing
    python -m repro optimize design.blif --live --trace run.jsonl
    python -m repro tail run.jsonl       # follow a streaming trace

    # regression-gate two runs (stats-json reports or history ledgers)
    python -m repro compare base.json new.json --fail-on-regression 20
    python -m repro compare benchmarks/results/history.jsonl new.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

from repro.network.network import Network
from repro.bench.suite import benchmark_suite, build_benchmark
from repro.scripts.flows import (
    run_script_algebraic_table,
    run_script_table,
)
from repro.scripts.tables import format_table

_TABLE_SCRIPTS = {"table2": "A", "table3": "B", "table4": "C"}
_ALL_METHODS = ["sis", "basic", "ext", "ext_gdc"]


def _build_benchmarks(names: List[str]) -> Dict[str, Network]:
    return {name: build_benchmark(name) for name in names}


def _run_one(
    table: str, names: List[str], methods: List[str], verify: bool
) -> str:
    benchmarks = _build_benchmarks(names)
    if table in _TABLE_SCRIPTS:
        result = run_script_table(
            benchmarks, _TABLE_SCRIPTS[table], methods, verify=verify
        )
    elif table == "table5":
        result = run_script_algebraic_table(
            benchmarks, methods, verify=verify
        )
    else:
        raise ValueError(f"unknown table {table!r}")
    return format_table(result)


def _optimize_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro optimize",
        description="Optimize a BLIF netlist with Boolean substitution.",
    )
    parser.add_argument(
        "input",
        help="BLIF file, or bench:NAME for a suite circuit",
    )
    parser.add_argument(
        "--method",
        default="ext",
        choices=sorted(_method_table()),
        help="substitution method (default: ext)",
    )
    parser.add_argument(
        "--script",
        default="A",
        choices=["A", "B", "C", "none"],
        help="preparation script (default: A)",
    )
    parser.add_argument(
        "-o",
        "--output",
        help="write optimized BLIF here (default: stdout)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the equivalence check",
    )
    parser.add_argument(
        "--no-sim-filter",
        action="store_true",
        help="disable the signature-based divisor pre-filter",
    )
    parser.add_argument(
        "--sim-patterns",
        type=int,
        default=None,
        metavar="N",
        help="random patterns per simulation signature (default: 256)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for the substitution engine (default: 1; "
            ">1 enables speculative parallel evaluation — output is "
            "byte-identical to a serial run)"
        ),
    )
    parser.add_argument(
        "--stats-json",
        metavar="PATH",
        help="write the full run statistics (worker counters included) "
        "as JSON",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget for the substitution run; it stops "
            "cleanly at the deadline with the best network found so "
            "far (the stop is recorded in --stats-json)"
        ),
    )
    parser.add_argument(
        "--verify-commits",
        action="store_true",
        help=(
            "transactional mode: verify every accepted rewrite "
            "against the input, roll back and quarantine on miscompare"
        ),
    )
    parser.add_argument(
        "--verify-backend",
        default=None,
        choices=["auto", "bdd", "sat"],
        help=(
            "exact-equivalence backend for the final check and every "
            "exact check of the run (--verify-commits full checks, "
            "simguided validation): bdd builds output-cone ROBDDs, "
            "sat solves a budgeted CNF miter with the CDCL engine, "
            "auto (default) picks BDDs up to 16 inputs and SAT above; "
            "a SAT proof that cannot complete counts as not equal, so "
            "the choice can change the output (a commit rolls back) "
            "or fail the final check"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="FILE.jsonl",
        help=(
            "record a structured trace of the run (spans for every "
            "pass, pair, divide, ATPG sweep, commit and verify — "
            "worker spans merged in) as JSON lines; tracing never "
            "changes the optimized output"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print a per-phase wall/CPU profile table to stderr "
            "after the run"
        ),
    )
    parser.add_argument(
        "--profile-json",
        metavar="FILE",
        help=(
            "write the per-phase profile rollup as JSON (the same "
            "aggregation --profile prints, archivable and diffable "
            "alongside --stats-json)"
        ),
    )
    parser.add_argument(
        "--history",
        metavar="FILE.jsonl",
        help=(
            "append this run's metrics snapshot (plus machine "
            "fingerprint, git SHA and config hash) to a run-history "
            "ledger; see benchmarks/results/history.jsonl"
        ),
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help=(
            "render a live progress line on stderr (pass/pair/divide "
            "counters, literal estimate, pair throughput, RSS) driven "
            "by the span stream; never changes the optimized output"
        ),
    )
    parser.add_argument(
        "--sample-resources",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "emit resource_sample telemetry (RSS, CPU split, GC, "
            "/dev/shm usage) every SECONDS into the trace stream "
            "(needs --trace, --live or --profile*; default: 0.5 with "
            "--live, else off; 0 disables)"
        ),
    )
    parser.add_argument(
        "--stall-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "with -j >1: flag a worker shard silent past SECONDS as a "
            "stall and contain it through the retry ladder instead of "
            "waiting forever (default: off)"
        ),
    )
    parser.add_argument(
        "--heartbeat-dir",
        metavar="DIR",
        help=(
            "with -j >1: workers overwrite a per-pid heartbeat JSON "
            "file here at every batch boundary (crash-durable "
            "liveness; default: off)"
        ),
    )
    args = parser.parse_args(argv)

    from repro.network.blif import BlifParseError, read_blif, to_blif_str
    from repro.network.factor import network_literals
    from repro.network.verify import exact_equivalent
    from repro.scripts.flows import SCRIPTS, run_method

    try:
        if args.input.startswith("bench:"):
            network = build_benchmark(args.input[len("bench:"):])
        else:
            with open(args.input) as handle:
                network = read_blif(handle)
    except BlifParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read {args.input!r}: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # build_benchmark raises KeyError("unknown benchmark ...").
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    reference = network.copy("reference")
    initial = network_literals(network)

    if args.script != "none":
        SCRIPTS[args.script](network)
    overrides = {}
    if args.no_sim_filter:
        overrides["enable_sim_filter"] = False
    if args.sim_patterns is not None:
        if args.sim_patterns < 1:
            parser.error("--sim-patterns must be >= 1")
        overrides["sim_patterns"] = args.sim_patterns
    if args.jobs is not None:
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        overrides["n_jobs"] = args.jobs
    if args.deadline is not None:
        if args.deadline < 0:
            parser.error("--deadline must be >= 0")
        overrides["deadline_seconds"] = args.deadline
    if args.verify_commits:
        overrides["verify_commits"] = True
    if args.verify_backend is not None:
        overrides["verify_backend"] = args.verify_backend
    if args.stall_timeout is not None:
        if args.stall_timeout <= 0:
            parser.error("--stall-timeout must be > 0")
        overrides["stall_timeout_seconds"] = args.stall_timeout
    if args.heartbeat_dir is not None:
        overrides["heartbeat_dir"] = args.heartbeat_dir
    if args.sample_resources is not None and args.sample_resources < 0:
        parser.error("--sample-resources must be >= 0")
    if (
        overrides
        or args.trace
        or args.profile
        or args.profile_json
        or args.history
        or args.live
        or args.sample_resources
    ) and args.method == "sis":
        parser.error(
            "--no-sim-filter/--sim-patterns/--jobs/--deadline/"
            "--verify-commits/--verify-backend/--trace/--profile/"
            "--profile-json/--history/--live/--sample-resources/"
            "--stall-timeout/--heartbeat-dir do not apply to sis"
        )
    tracer = None
    trace_sink = None
    bus = None
    live_view = None
    sampler = None
    if args.trace or args.profile or args.profile_json or args.live:
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        sinks = []
        if args.trace:
            # Streaming sink: spans hit the disk as they close, so a
            # crash or kill -9 mid-run still leaves a parseable trace
            # (same bytes as the old write-at-end export for runs
            # that complete).
            from repro.obs.stream import StreamingJsonlSink

            trace_sink = StreamingJsonlSink(args.trace)
            sinks.append(trace_sink)
        if args.live:
            from repro.obs.live import LiveProgress
            from repro.obs.stream import TelemetryBus

            bus = TelemetryBus()
            live_view = LiveProgress(initial_literals=initial)
            bus.attach(live_view.on_event)
            sinks.append(bus.publish)
        if sinks:
            from repro.obs.stream import fanout

            tracer.set_sink(fanout(*sinks))
    sample_period = args.sample_resources
    if sample_period is None and args.live:
        sample_period = 0.5
    if tracer is not None and sample_period:
        from repro.obs.resource import ResourceSampler

        sampler = ResourceSampler(tracer, period=sample_period)
        sampler.start()
    try:
        stats = run_method(
            network, args.method, config_overrides=overrides, tracer=tracer
        )
        substats = stats.get("stats") or {}
        budget_report = substats.get("budget_report")
        if budget_report and budget_report.get("stopped"):
            print(
                f"# budget stop: {budget_report['reason']} after "
                f"{budget_report['elapsed_seconds']:.2f}s "
                f"({budget_report['divide_calls']} divide calls)",
                file=sys.stderr,
            )
        if substats.get("commits_rolled_back"):
            print(
                f"# {substats['commits_rolled_back']} commit(s) rolled "
                f"back and quarantined (see --stats-json incidents)",
                file=sys.stderr,
            )

        if not args.no_verify:
            from repro.obs.tracer import as_tracer

            with as_tracer(tracer).span(
                "verify", check="final-equivalence"
            ) as verify_span:
                verdict = exact_equivalent(
                    reference,
                    network,
                    backend=args.verify_backend or "auto",
                    tracer=tracer,
                )
                verify_span.annotate(
                    backend=verdict.backend,
                    status=verdict.status,
                    ok=bool(verdict),
                )
            if not verdict.complete:
                print(
                    "ERROR: equivalence unknown: the SAT proof ran out "
                    "of its conflict budget; no output written",
                    file=sys.stderr,
                )
                return 1
            if not verdict:
                print(
                    "ERROR: optimized network is NOT equivalent",
                    file=sys.stderr,
                )
                return 1
    finally:
        # Telemetry teardown in dependency order: stop the sampler
        # thread (its closing sample still flows through the sink),
        # release the live TTY line, then flush + close the trace
        # file so every recorded span is durable.
        if sampler is not None:
            sampler.stop()
        if live_view is not None:
            live_view.close()
        if bus is not None:
            bus.close()
        if trace_sink is not None:
            trace_sink.close()

    blif = to_blif_str(network)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(blif)
    else:
        sys.stdout.write(blif)
    if tracer is not None:
        if args.trace:
            # The streaming sink already wrote (and closed) the file.
            print(
                f"# trace: {len(tracer.events)} spans -> {args.trace}",
                file=sys.stderr,
            )
        if args.profile or args.profile_json:
            from repro.obs.profile import format_profile, profile_events

            rollup = profile_events(tracer.events)
            if args.profile:
                print(format_profile(rollup), file=sys.stderr)
            if args.profile_json:
                import json

                with open(args.profile_json, "w") as handle:
                    json.dump(rollup, handle, indent=2, sort_keys=True)
                    handle.write("\n")
    if args.stats_json:
        import json

        report = {
            "circuit": network.name,
            "method": args.method,
            "script": args.script,
            "jobs": args.jobs if args.jobs is not None else 1,
            "literals_initial": initial,
            "literals_final": int(stats["literals"]),
            "cpu_seconds": stats["cpu"],
            "substitution": stats.get("stats"),
            "metrics": stats.get("metrics"),
        }
        with open(args.stats_json, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    if args.history:
        from repro.obs.history import append_record, make_record

        if stats.get("metrics") is None:
            print(
                "error: --history needs a metrics-producing method",
                file=sys.stderr,
            )
            return 2
        append_record(
            make_record(
                bench="cli-optimize",
                circuit=network.name,
                metrics=stats["metrics"],
                config=stats.get("config"),
                wall_seconds=stats["cpu"],
                extra={
                    "method": args.method,
                    "script": args.script,
                    "literals_initial": initial,
                    "literals_final": int(stats["literals"]),
                },
            ),
            path=args.history,
        )
        print(f"# history: appended -> {args.history}", file=sys.stderr)
    print(
        f"# {network.name}: {initial} -> {int(stats['literals'])} "
        f"factored literals ({args.method}, {stats['cpu']:.2f}s)",
        file=sys.stderr,
    )
    return 0


def _method_table():
    from repro.scripts.flows import METHODS

    return METHODS


def _trace_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Analyze or convert a --trace JSONL file: 'report' prints "
            "the critical path, per-kind rollup and worker "
            "utilization; 'chrome' converts losslessly to Chrome "
            "trace-event / Perfetto JSON; 'flame' emits folded "
            "flamegraph.pl stack lines weighted by self wall time."
        ),
    )
    parser.add_argument("verb", choices=["report", "chrome", "flame"])
    parser.add_argument("file", help="trace file written by --trace")
    parser.add_argument(
        "-o",
        "--output",
        help="write here instead of stdout",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="slowest spans listed per kind in 'report' (default: 10)",
    )
    args = parser.parse_args(argv)
    if args.top < 0:
        parser.error("--top must be >= 0")

    from repro.obs.tracer import read_jsonl

    def _warn(message: str) -> None:
        print(f"warning: {message}", file=sys.stderr)

    try:
        events = read_jsonl(args.file, tolerant=True, on_warning=_warn)
    except OSError as exc:
        print(f"error: cannot read {args.file!r}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"error: {args.file}: empty trace file", file=sys.stderr)
        return 2

    if args.verb == "report":
        from repro.obs.analyze import analyze_trace, format_report

        text = format_report(analyze_trace(events, top_n=args.top)) + "\n"
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    elif args.verb == "chrome":
        from repro.obs.export import export_chrome_trace

        export_chrome_trace(events, args.output or sys.stdout)
    else:
        from repro.obs.export import export_folded_stacks

        export_folded_stacks(events, args.output or sys.stdout)
    if args.output:
        print(
            f"# {args.verb}: {len(events)} spans -> {args.output}",
            file=sys.stderr,
        )
    return 0


def _tail_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro tail",
        description=(
            "Follow a streaming --trace JSONL file in real time: "
            "prints a line per completed pass, stall warnings, and a "
            "live counter footer, until the run span arrives (or EOF "
            "with --no-follow)."
        ),
    )
    parser.add_argument("file", help="trace file being written by --trace")
    parser.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="poll interval while waiting for new lines (default: 0.2)",
    )
    parser.add_argument(
        "--no-follow",
        action="store_true",
        help="replay what is on disk and exit instead of following",
    )
    parser.add_argument(
        "--max-idle",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "give up after SECONDS without new data (default: follow "
            "forever)"
        ),
    )
    args = parser.parse_args(argv)
    if args.poll <= 0:
        parser.error("--poll must be > 0")
    if args.max_idle is not None and args.max_idle <= 0:
        parser.error("--max-idle must be > 0")

    import os

    from repro.obs.live import LiveProgress, TailReporter, follow_trace

    if not os.path.exists(args.file):
        print(
            f"error: cannot read {args.file!r}: no such file",
            file=sys.stderr,
        )
        return 2

    def _warn(message: str) -> None:
        print(f"warning: {message}", file=sys.stderr)

    progress = LiveProgress()
    reporter = TailReporter(progress)
    try:
        delivered = follow_trace(
            args.file,
            reporter.on_event,
            follow=not args.no_follow,
            poll_seconds=args.poll,
            max_idle_seconds=args.max_idle,
            on_warning=_warn,
        )
    except OSError as exc:
        print(f"error: cannot read {args.file!r}: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        progress.close()
        return 0
    progress.close()
    if delivered == 0 and args.no_follow:
        print(f"error: {args.file}: empty trace file", file=sys.stderr)
        return 2
    return 0


def _compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro compare",
        description=(
            "Diff two run snapshots for regressions.  Deterministic "
            "counters (divide_calls, accepted, literal counts) must "
            "match exactly; wall times are gated only with "
            "--fail-on-regression.  BASE/NEW are --stats-json "
            "reports, raw metrics snapshots, or *.jsonl run-history "
            "ledgers (latest record, optionally --circuit filtered)."
        ),
    )
    parser.add_argument("base", help="baseline snapshot or history ledger")
    parser.add_argument("new", help="candidate snapshot or history ledger")
    parser.add_argument(
        "--circuit",
        help="pick the latest history record for this circuit id",
    )
    parser.add_argument(
        "--fail-on-regression",
        type=float,
        default=None,
        metavar="PCT",
        help=(
            "also fail when a wall-time metric worsens by more than "
            "PCT percent (only meaningful for runs from the same "
            "machine)"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the full comparison report as JSON",
    )
    args = parser.parse_args(argv)
    if args.fail_on_regression is not None and args.fail_on_regression < 0:
        parser.error("--fail-on-regression must be >= 0")

    import json

    from repro.obs.regress import (
        compare_snapshots,
        format_comparison,
        load_comparable,
    )

    try:
        base_snapshot, base_wall, base_label = load_comparable(
            args.base, circuit=args.circuit
        )
        new_snapshot, new_wall, new_label = load_comparable(
            args.new, circuit=args.circuit
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = compare_snapshots(
        base_snapshot,
        new_snapshot,
        time_slack_pct=args.fail_on_regression,
        base_wall=base_wall,
        new_wall=new_wall,
    )
    print(format_comparison(report, base_label, new_label))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if report.ok else 1


def main(argv: List[str] = None) -> int:
    """CLI entry point; see the module docstring for usage."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "optimize":
        return _optimize_main(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "tail":
        return _tail_main(argv[1:])
    if argv and argv[0] == "compare":
        return _compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the experiment tables of 'Efficient Boolean "
            "Division and Substitution Using Redundancy Addition and "
            "Removing' (Chang & Cheng, DAC'98/TCAD'99)."
        ),
    )
    parser.add_argument(
        "tables",
        nargs="+",
        choices=["table2", "table3", "table4", "table5", "all"],
        help="which experiment table(s) to regenerate",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the smaller quick suite",
    )
    parser.add_argument(
        "--circuits",
        help="comma-separated circuit names (overrides the suite)",
    )
    parser.add_argument(
        "--methods",
        help=f"comma-separated subset of {','.join(_ALL_METHODS)}",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip per-run equivalence checking (faster)",
    )
    args = parser.parse_args(argv)

    if args.circuits:
        names = [n.strip() for n in args.circuits.split(",") if n.strip()]
    else:
        names = benchmark_suite(quick=args.quick)
    methods = _ALL_METHODS
    if args.methods:
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        unknown = [m for m in methods if m not in _ALL_METHODS]
        if unknown:
            parser.error(f"unknown methods: {unknown}")

    tables = args.tables
    if "all" in tables:
        tables = ["table2", "table3", "table4", "table5"]
    for table in tables:
        print(_run_one(table, names, methods, verify=not args.no_verify))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
