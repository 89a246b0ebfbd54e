"""End-to-end benchmark of the ``repro optimize`` job.

One command runs what an optimize user runs, on four seeded traffic
mixes (see ``workloads.py`` and README.md)::

    python3 benchmarks/e2e/run.py --workload planted-ext --seed 1 \\
        --seconds 13 --trace 0
    python3 benchmarks/e2e/run.py --seed 1          # all four workloads
    python3 benchmarks/e2e/run.py --workload edit-verified --seed 1 \\
        --trace 1 --trace-dir /tmp/e2e-traces   # per-layer metrics + spans

Each workload runs in fresh processes (``loadgen.py``), one at a time.
The job count is a pure function of ``--seconds`` (sized so the jobs
take about that long on the reference host), so every run optimizes
the same jobs whatever the machine's speed.  With ``--trace 0`` one
process runs those jobs and gives the end-to-end metrics; set-up is
also timed in :data:`SETUP_PROBES` processes that run no timed job.
With ``--trace 1`` one untraced and one traced process run them; the
traced one gives the per-layer metrics, and the two give the tracing
overhead.  Times are scaled to the reference host's speed
(``loadgen.speed_kernel``).  Every metric is printed as
``workload metric value unit``; the last line is one JSON object.  The
exit code is 0 only when every job passed both the program's verify
and the independent oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = tuple(workloads.WORKLOADS)

#: Set-up is timed in the measuring process and in this many more
#: processes that stop before the first timed job; ``setup_s`` is the
#: median of all.  One set-up lasts about half a second, so single
#: samples are noisy.
SETUP_PROBES = 2

#: Wall-clock allowance for all processes of one workload.
WORKLOAD_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "cpu_s_per_job": "s",
    "literals_out": "literals",
    "peak_rss_mb": "MiB",
}


class BenchError(RuntimeError):
    """A benchmark process failed or overran; no result is printed."""


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _spawn(args: List[str], deadline: float) -> dict:
    """Run ``loadgen.py`` with *args*; return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    command = [sys.executable, str(HERE / "loadgen.py"), *args,
               "--spawned-at", repr(time.monotonic())]
    # A session of its own lets a timeout kill the pool workers too.
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise BenchError(f"loadgen {' '.join(args)} exited {proc.returncode}: {tail}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"loadgen {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300

    def guard(v: float) -> float:
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 500):
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / guard(1.0 + aa * d)
            c = guard(1.0 + aa / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the *p* quantile of *values*.

    A weighted mean of every order statistic, with beta weights
    centred on rank ``p (n + 1)``.  With a few dozen jobs of uneven
    cost the plain sample quantile jumps between neighbouring jobs from
    one input variant to the next; this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum(
        (cdf[i + 1] - cdf[i]) * value for i, value in enumerate(ordered)
    )


def end_to_end(run: dict, setups: List[float]) -> Dict[str, float]:
    """End-to-end metrics of one measuring process."""
    job_s, cpu_s = run["job_s"], run["cpu_s"]
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(job_s) / sum(job_s),
        "job_s.p50": quantile(job_s, 0.5),
        "job_s.p90": quantile(job_s, 0.9),
        "cpu_s_per_job": sum(cpu_s) / len(cpu_s),
        "literals_out": run["literals_out"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 max_jobs: Optional[int], trace_dir: Optional[str]) -> dict:
    """All processes of one workload; returns its report."""
    jobs = workloads.WORKLOADS[name].jobs_for(seconds)
    if max_jobs is not None:
        jobs = min(jobs, max_jobs)
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    base = ["--workload", name, "--seed", str(seed)]
    args = base + ["--jobs", str(jobs)]
    if not trace:
        run = _spawn(args, deadline)
        runs = [run]
        setups = [run["setup_s"]] + [
            _spawn(base + ["--jobs", "0"], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        metrics = {
            k: [v, END_TO_END_UNITS[k]]
            for k, v in end_to_end(run, setups).items()
        }
    else:
        trace_out = "-"
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            trace_out = os.path.join(trace_dir, f"{name}.jsonl")
        untraced = _spawn(args, deadline)
        traced = _spawn(args + ["--trace-out", trace_out], deadline)
        runs = [untraced, traced]
        metrics = dict(traced["layers"])
        ratios = [t / u for u, t in zip(untraced["job_s"], traced["job_s"])]
        metrics["obs.trace_overhead_pct"] = [
            100.0 * (statistics.median(ratios) - 1.0), "%"
        ]
    failures = [f for r in runs for f in r["failures"]]
    return {
        "jobs": jobs,
        "speed": statistics.median(r["speed"] for r in runs),
        "attempted": sum(r["jobs"] for r in runs),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro optimize job."
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=13.0,
                        help="time per workload; sizes its job count "
                        "(default: 13)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--trace-dir", default=None,
                        help="with --trace 1, write WORKLOAD.jsonl span "
                        "files here (readable by `repro trace report`)")
    parser.add_argument("--max-jobs", type=int, default=None,
                        help="cap each workload's job count (quick checks)")
    parser.add_argument("--out", default=None,
                        help="also write the full report as JSON here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.max_jobs is not None and args.max_jobs < 1:
        parser.error("--max-jobs must be >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "workloads": {},
    }
    print(f"# e2e seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={report['nproc']} git={report['git_sha']}")
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args.max_jobs,
                                  args.trace_dir)
            report["workloads"][name] = result
            print(f"{name} jobs {result['jobs']} count", flush=True)
            print(f"# {name} host speed x{result['speed']:.3f} "
                  "of the reference (times below are scaled to it)")
            print(f"{name} failed_ratio "
                  f"{result['failed'] / result['attempted']:.6g} ratio")
            for metric, (value, unit) in result["metrics"].items():
                print(f"{name} {metric} {value:.6g} {unit}", flush=True)
            for failure in result["failures"][:10]:
                print(f"# {name} FAILED {failure}", file=sys.stderr)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    results = report["workloads"].values()
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for name, result in report["workloads"].items():
        for metric, (value, unit) in result["metrics"].items():
            key = metric if len(names) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
