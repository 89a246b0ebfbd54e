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
    python -m repro optimize design.blif --deadline 300 --stats-json run.json
    # simulation-guided resubstitution engine instead of division
    python -m repro optimize design.blif --method simguided -o out.blif

    # analyze a --trace file: critical path / Chrome trace / flamegraph
    python -m repro trace report run.jsonl
    python -m repro trace chrome run.jsonl -o run.chrome.json
    python -m repro trace flame run.jsonl -o run.folded
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
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
        "--stats-json",
        metavar="PATH",
        help="write the full run statistics and the final check's "
        "backend and verdict as JSON",
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
            "transactional mode: prove every accepted rewrite "
            "equivalent to the input, roll back and quarantine any "
            "commit that is not proven (simguided proves every "
            "rewrite with or without this flag)"
        ),
    )
    parser.add_argument(
        "--verify-backend",
        default=None,
        choices=["auto", "sat"],
        help=(
            "exact-equivalence backend for the final check and every "
            "exact check of the run (--verify-commits proofs, "
            "simguided validation): auto (default) simulates every "
            "input pattern up to 20 inputs and solves a budgeted CNF "
            "miter with the CDCL engine above; sat always solves the "
            "miter.  A SAT proof that cannot complete counts as not "
            "equal, so the choice can change the output (a commit "
            "rolls back) or fail the final check"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="FILE.jsonl",
        help=(
            "record a structured trace of the run (spans for every "
            "pass, pair, divide, ATPG sweep, commit and verify) as "
            "JSON lines, each written as its span closes, so a "
            "killed run still leaves a parseable trace; tracing "
            "never changes the optimized output"
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
    args = parser.parse_args(argv)
    overrides = {}
    if args.deadline is not None:
        if not (math.isfinite(args.deadline) and args.deadline >= 0):
            parser.error("--deadline must be a finite number >= 0")
        overrides["deadline_seconds"] = args.deadline
    if args.verify_commits:
        overrides["verify_commits"] = True
    if args.verify_backend is not None:
        overrides["verify_backend"] = args.verify_backend
    if (
        overrides or args.trace or args.profile or args.profile_json
    ) and args.method == "sis":
        parser.error(
            "--deadline/--verify-commits/--verify-backend/--trace/"
            "--profile/--profile-json do not apply to sis"
        )
    # The outputs are written only after the final proof; check their
    # directories now, so a mistyped path costs no run.
    for path in (args.output, args.stats_json, args.profile_json, args.trace):
        if path and not _output_dir_exists(path):
            return 2

    from repro.network.blif import BlifParseError, read_blif, to_blif_str
    from repro.network.factor import network_literals
    from repro.network.verify import checked_equivalent
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
    tracer = None
    trace_sink = None
    if args.trace or args.profile or args.profile_json:
        from repro.obs.tracer import StreamingJsonlSink, Tracer

        if args.trace:
            # Spans hit the disk as they close, so a crash or kill -9
            # mid-run still leaves a parseable trace.
            try:
                trace_sink = StreamingJsonlSink(args.trace)
            except OSError as exc:
                _report_unwritable(args.trace, exc)
                return 2
        tracer = Tracer(sink=trace_sink)
    verdict = None
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
            verdict = checked_equivalent(
                reference,
                network,
                tracer,
                backend=args.verify_backend or "auto",
                check="final-equivalence",
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
        if trace_sink is not None:
            trace_sink.close()

    blif = to_blif_str(network)
    if args.output:
        if not _write_file(args.output, blif):
            return 2
    else:
        sys.stdout.write(blif)
    if tracer is not None:
        if args.trace:
            # A failed write leaves the run and its output alone; the
            # trace just stops at the last line that reached the disk.
            trace_error = tracer.sink_error or trace_sink.error
            if trace_error is None:
                print(
                    f"# trace: {len(tracer.events)} spans -> {args.trace}",
                    file=sys.stderr,
                )
            else:
                print(
                    f"warning: trace {args.trace} is incomplete: "
                    f"{trace_error}",
                    file=sys.stderr,
                )
        if args.profile or args.profile_json:
            from repro.obs.profile import format_profile, profile_events

            rollup = profile_events(tracer.events)
            if args.profile:
                print(format_profile(rollup), file=sys.stderr)
            if args.profile_json and not _write_file(
                args.profile_json,
                json.dumps(rollup, indent=2, sort_keys=True) + "\n",
            ):
                return 2
    if args.stats_json:
        report = {
            "circuit": network.name,
            "method": args.method,
            "script": args.script,
            "literals_initial": initial,
            "literals_final": int(stats["literals"]),
            "cpu_seconds": stats["cpu"],
            # The final check's verdict; None under --no-verify.
            "verify": (
                None
                if verdict is None
                else {"backend": verdict.backend, "status": verdict.status}
            ),
            "substitution": stats.get("stats"),
        }
        if not _write_file(
            args.stats_json, json.dumps(report, indent=2) + "\n"
        ):
            return 2
    print(
        f"# {network.name}: {initial} -> {int(stats['literals'])} "
        f"factored literals ({args.method}, {stats['cpu']:.2f}s)",
        file=sys.stderr,
    )
    return 0


def _report_unwritable(path: str, exc: OSError) -> None:
    print(
        f"error: cannot write {path!r}: {exc.strerror or exc}",
        file=sys.stderr,
    )


def _output_dir_exists(path: str) -> bool:
    """Whether *path*'s directory exists; if not, say so."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(parent):
        return True
    code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    _report_unwritable(path, OSError(code, os.strerror(code)))
    return False


def _write_file(path: str, text: str) -> bool:
    """Write *text* to *path*; on failure, say why and return False."""
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        _report_unwritable(path, exc)
        return False
    return True


def _method_table():
    from repro.scripts.flows import METHODS

    return METHODS


def _trace_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Analyze or convert a --trace JSONL file: 'report' prints "
            "the critical path, per-kind rollup and slowest spans; "
            "'chrome' converts losslessly to Chrome trace-event / "
            "Perfetto JSON; 'flame' emits folded flamegraph.pl stack "
            "lines weighted by self wall time."
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
    elif args.verb == "chrome":
        from repro.obs.export import to_chrome_trace

        text = json.dumps(to_chrome_trace(events), indent=1, sort_keys=True)
        text += "\n"
    else:
        from repro.obs.export import to_folded_stacks

        text = "".join(line + "\n" for line in to_folded_stacks(events))
    if not args.output:
        sys.stdout.write(text)
        return 0
    if not _write_file(args.output, text):
        return 2
    print(
        f"# {args.verb}: {len(events)} spans -> {args.output}",
        file=sys.stderr,
    )
    return 0


def main(argv: List[str] = None) -> int:
    """CLI entry point; see the module docstring for usage."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "optimize":
        return _optimize_main(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
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
