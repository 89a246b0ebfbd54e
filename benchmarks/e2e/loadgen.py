"""One workload's load generator: a closed loop with a single caller.

``run.py`` starts this script in fresh processes, one at a time, so
memo caches and the RSS high-water mark never leak from one workload
(or one process) into the next.  The process builds its job stream, runs
two warm-up jobs from a disjoint stream, then sends ``--jobs`` jobs one
at a time, each only after the previous one finished, and prints one
JSON result as the last line of its standard output.

A job is what a ``repro optimize`` user runs, through the same public
functions, in process:
``read_blif -> SCRIPTS["A"] -> run_method -> exact_equivalent ->
to_blif_str``.  Job inputs are generated before the job clock starts;
the independent oracle checks each output after it stops.  Each job's
times are scaled to the reference host by :func:`speed_kernel`, timed
just before and just after the job.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

import oracle
import workloads

WARMUP_JOBS = 2

#: Iterations of :func:`speed_kernel`, and its duration on the reference
#: host.  Reported times are scaled to that host's speed.
KERNEL_LOOPS = 100_000
KERNEL_REFERENCE_S = 0.010


@dataclasses.dataclass
class JobResult:
    wall_s: float
    cpu_s: float
    literals: int
    failure: Optional[str]
    stats: Dict[str, object]


class JobRunner:
    """Runs jobs of one workload and sums what the layers report."""

    def __init__(self, workload: workloads.Workload):
        # The packages re-export same-named functions, so import the
        # modules by path to reach their memo caches.
        factor = importlib.import_module("repro.network.factor")
        complement = importlib.import_module("repro.twolevel.complement")

        self.workload = workload
        self.caches = {
            "factor": factor._factored_literals_cached,
            "complement": complement._complement_cached,
        }
        self.counters: Dict[str, float] = {}
        self.phase_seconds: Dict[str, float] = {}
        #: Per-cache [hits, misses] summed over this runner's jobs.
        self.cache_totals = {name: [0, 0] for name in self.caches}

    def run(self, text: str, index: int, tracer=None) -> JobResult:
        from repro.network.blif import read_blif, to_blif_str
        from repro.network.verify import exact_equivalent
        from repro.obs.tracer import as_tracer
        from repro.scripts.flows import SCRIPTS, run_method

        spans = as_tracer(tracer)
        before = {n: c.cache_info() for n, c in self.caches.items()}
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        output = None
        stats: Dict[str, object] = {}
        literals = 0
        failure = None
        try:
            with spans.span("bench.job", job=index):
                with spans.span("bench.parse", job=index):
                    network = read_blif(text)
                    reference = network.copy("reference")
                with spans.span("bench.prep", job=index):
                    SCRIPTS["A"](network)
                with spans.span("bench.optimize", job=index):
                    result = run_method(
                        network,
                        self.workload.method,
                        config_overrides=dict(self.workload.overrides),
                        tracer=tracer,
                    )
                with spans.span("bench.verify", job=index):
                    equivalent = exact_equivalent(
                        reference, network, tracer=tracer
                    )
                with spans.span("bench.emit", job=index):
                    output = to_blif_str(network)
            stats = result.get("stats") or {}
            literals = int(result["literals"])
            if not equivalent:
                failure = "the program's verify reports not equivalent"
        except Exception as exc:  # a failed job is counted, not fatal
            failure = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        for name, cache in self.caches.items():
            info = cache.cache_info()
            self.cache_totals[name][0] += info.hits - before[name].hits
            self.cache_totals[name][1] += info.misses - before[name].misses
        if failure is None:
            failure = oracle.mismatch(text, output, seed=index)
        return JobResult(wall, cpu, literals, failure, stats)

    def count(self, stats: Dict[str, object]) -> None:
        for key, value in stats.items():
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                self.counters[key] = self.counters.get(key, 0) + value
        for phase, seconds in (stats.get("parallel_phase_seconds") or {}).items():
            self.phase_seconds[phase] = (
                self.phase_seconds.get(phase, 0.0) + seconds
            )


def layer_metrics(runner: JobRunner, events: List[dict], jobs: int,
                  speed: float) -> dict:
    """Per-layer metrics of one traced run, normalized per job.

    Counts come from ``run_method()["stats"]`` summed over the jobs
    and from memo-cache ``cache_info()`` deltas; times are self times
    folded from the trace with ``profile_events``, scaled to the
    reference host by the run's median *speed* factor.
    """
    from repro.obs.profile import profile_events

    rollup = profile_events(events)
    c = runner.counters
    jobs = max(jobs, 1)
    per_job_s = speed / jobs

    def count(key):
        return c.get(key, 0) / jobs, "count/job"

    def ratio(hit, total):
        return (hit / total if total else 0.0), "ratio"

    def self_s(kind):
        return rollup.get(kind, {}).get("self_wall", 0.0) * per_job_s, "s/job"

    def wall_s(kind):
        return rollup.get(kind, {}).get("wall", 0.0) * per_job_s, "s/job"

    def phase_s(phase):
        return runner.phase_seconds.get(phase, 0.0) * per_job_s, "s/job"

    def cache_ratio(name):
        hits, misses = runner.cache_totals[name]
        return ratio(hits, hits + misses)

    # Commit-ledger and resub solves are in the stats; the final verify's
    # solves only in its spans, directly under ``bench.verify``.
    verify_spans = {
        (e["proc"], e["id"]) for e in events if e["kind"] == "bench.verify"
    }
    final_solves = [
        e["attrs"] for e in events
        if e["kind"] == "sat_solve" and (e["proc"], e["parent"]) in verify_spans
    ]

    def sat(key, attr):
        total = c.get(key, 0) + sum(a.get(attr, 0) for a in final_solves)
        return total / jobs, "count/job"

    attempts = c.get("attempts", 0)
    metrics = {
        "network.parse_s": wall_s("bench.parse"),
        "network.prep_s": wall_s("bench.prep"),
        "network.verify_s": wall_s("bench.verify"),
        "network.emit_s": wall_s("bench.emit"),
        "network.prep_literals": (
            c.get("literals_before", 0) / jobs, "lit/job"
        ),
        "network.factor_cache.hit_ratio": cache_ratio("factor"),
        "twolevel.complement_cache.hit_ratio": cache_ratio("complement"),
        "twolevel.complement_cache.misses": (
            runner.cache_totals["complement"][1] / jobs, "count/job"
        ),
        "core.run_s": wall_s("run"),
        "core.attempts": count("attempts"),
        "core.accepted": count("accepted"),
        "core.accept_ratio": ratio(c.get("accepted", 0), attempts),
        "core.divide_calls": count("divide_calls"),
        "core.cores_extracted": count("cores_extracted"),
        "core.enumerate_self_s": self_s("enumerate"),
        "core.pair_self_s": self_s("pair"),
        "core.divide_self_s": self_s("divide"),
        "core.commit_self_s": self_s("commit"),
        "atpg.self_s": self_s("atpg"),
        "atpg.spans": (
            rollup.get("atpg", {}).get("count", 0) / jobs, "count/job"
        ),
        "atpg.incomplete": count("atpg_incomplete"),
        "sim.divisors_pruned": count("divisors_pruned"),
        "sim.variants_pruned": count("variants_pruned"),
        "sim.prune_ratio": ratio(
            c.get("divisors_pruned", 0),
            c.get("divisors_pruned", 0) + attempts,
        ),
        "sim.cache_hit_ratio": ratio(
            c.get("sim_cache_hits", 0),
            c.get("sim_cache_hits", 0) + c.get("sim_cache_misses", 0),
        ),
        "sim.resim_nodes": count("resim_nodes"),
        "parallel.batches": count("parallel_batches"),
        "parallel.pairs_evaluated": count("parallel_pairs_evaluated"),
        "parallel.reuse_ratio": ratio(
            c.get("parallel_pairs_reused", 0),
            c.get("parallel_pairs_evaluated", 0),
        ),
        "parallel.pairs_invalidated": count("parallel_pairs_invalidated"),
        "parallel.snapshot_bytes": (
            c.get("parallel_snapshot_bytes", 0) / jobs, "B/job"
        ),
        "parallel.batch_bytes": (
            c.get("parallel_batch_bytes", 0) / jobs, "B/job"
        ),
        "parallel.worker_build_s": phase_s("worker_build"),
        "parallel.evaluate_s": phase_s("evaluate"),
        "parallel.dispatch_wait_s": phase_s("dispatch_wait"),
        "parallel.worker_faults": count("worker_faults"),
        "parallel.shards_redispatched": count("shards_redispatched"),
        "parallel.speculate_self_s": self_s("speculate"),
        "parallel.worker_batch_s": wall_s("worker_batch"),
        "resub.targets": count("resub_targets"),
        "resub.candidates": count("resub_candidates"),
        "resub.validated": count("resub_validated"),
        "resub.accepted": count("resub_accepted"),
        "resub.accept_ratio": ratio(
            c.get("resub_accepted", 0), c.get("resub_validated", 0)
        ),
        "resub.rejected_unknown": count("resub_rejected_unknown"),
        "resub.window_self_s": self_s("resub_window"),
        "resub.resyn_self_s": self_s("resub_resyn"),
        "resub.validate_self_s": self_s("resub_validate"),
        "sat.solves": (
            (c.get("sat_solves", 0) + len(final_solves)) / jobs, "count/job"
        ),
        "sat.conflicts": sat("sat_conflicts", "conflicts"),
        "sat.propagations": sat("sat_propagations", "propagations"),
        "sat.solve_self_s": self_s("sat_solve"),
        "resilience.commits_verified": count("commits_verified"),
        "resilience.rolled_back": count("commits_rolled_back"),
        "resilience.verify_self_s": self_s("verify"),
    }
    return {name: list(value) for name, value in metrics.items()}


def speed_kernel() -> float:
    """Seconds this process takes for a fixed pure-Python integer loop.

    The shared host's speed drifts by up to 1.8x for seconds to minutes
    at a time, and every Python process slows alike.  Timed just before
    and just after a job, this loop tracks the drift: over four minutes
    of the same eight jobs, the quartile spread of a job's wall time
    was 31% raw and 9% scaled by the loop.  It calls no program code,
    so a faster program does not move it.
    """
    start = time.perf_counter()
    x = 0
    for i in range(KERNEL_LOOPS):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two kernel timings
    into reference-host seconds."""
    return 2.0 * KERNEL_REFERENCE_S / (before + after)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children
    (the worker pool of an ``n_jobs=2`` run is reaped inside the job)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True,
                        help="timed jobs to run, one after another")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--trace-out", default=None,
                        help="trace the timed jobs; write spans here "
                        "('-' traces without writing)")
    args = parser.parse_args(argv)
    first_kernel = speed_kernel()

    workload = workloads.WORKLOADS[args.workload]
    stream = workload.stream(args.seed)
    runner = JobRunner(workload)
    for k in range(WARMUP_JOBS):
        warm = runner.run(stream.warmup(k), index=-1 - k)
        if warm.failure is not None:
            print(f"warm-up job {k} failed: {warm.failure}", file=sys.stderr)
            return 1
    runner = JobRunner(workload)  # counts cover timed jobs only
    setup_wall_s = time.monotonic() - args.spawned_at

    tracer = None
    if args.trace_out is not None:
        from repro.obs.tracer import Tracer

        tracer = Tracer()
    kernels = [speed_kernel()]
    job_s: List[float] = []
    cpu_s: List[float] = []
    literals = 0
    failures: List[str] = []
    for index in range(args.jobs):
        job = runner.run(stream.job(index), index, tracer)
        kernels.append(speed_kernel())
        scale = speed_scale(kernels[-2], kernels[-1])
        runner.count(job.stats)
        job_s.append(job.wall_s * scale)
        cpu_s.append(job.cpu_s * scale)
        literals += job.literals
        if job.failure is not None:
            failures.append(f"job {index}: {job.failure}")
    speed = statistics.median(
        speed_scale(a, b) for a, b in zip([first_kernel] + kernels, kernels)
    )

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": setup_wall_s * speed_scale(first_kernel, kernels[0]),
        "speed": speed,
        "jobs": args.jobs,
        "failures": failures,
        "job_s": job_s,
        "cpu_s": cpu_s,
        "literals_out": literals,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(runner, tracer.events, args.jobs, speed)
        if args.trace_out != "-":
            tracer.export_jsonl(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
