#!/usr/bin/env python
"""Measure where the process pool starts to beat a serial run.

Runs each circuit serially and on the process pool at ``--jobs``
(default 2), interleaved, ``--reps`` times, and prints the medians.
It then fits a least-squares line through (first-pass candidate
pairs, median serial - pool wall time) and prints the pool's fixed
cost (minus the intercept), its saving per pair (the slope) and the
break-even pair count.  ``repro.parallel.executor.AUTO_POOL_MIN_PAIRS``
is that break-even for the ext preset and the default circuits on a
2-vCPU host; rerun this on another machine to see where its pool
breaks even.

Usage::

    PYTHONPATH=src python scripts/measure_pool_cutoff.py
    PYTHONPATH=src python scripts/measure_pool_cutoff.py --preset basic \\
        rnd8 planted:17,9,20,41

A circuit is a suite name (``rnd8``) or ``planted:PIS,DIVISORS,
TARGETS,SEED``, a :func:`repro.bench.generators.planted_network`.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import time

from repro.bench.generators import planted_network
from repro.bench.suite import build_benchmark
from repro.core.config import BASIC, EXTENDED
from repro.core.substitution import substitute_network
from repro.parallel.engine import enumerate_candidate_pairs

#: The circuits the committed cut-off was fitted on (68-1561 pairs).
DEFAULT_CIRCUITS = (
    "add10", "rnd5", "rnd8",
    "planted:15,7,13,7", "planted:16,8,16,113", "planted:16,8,16,7",
    "planted:17,9,20,113", "planted:17,9,20,7", "planted:18,10,24,113",
    "planted:18,10,24,7", "planted:20,12,32,113", "planted:20,12,32,7",
)


def build(circuit: str):
    if not circuit.startswith("planted:"):
        return build_benchmark(circuit)
    pis, divisors, targets, seed = map(int, circuit[8:].split(","))
    return planted_network(
        circuit, seed=seed, n_pis=pis, n_divisors=divisors,
        n_targets=targets,
    )


def run_seconds(network, config, n_jobs: int = 1) -> float:
    """Wall seconds of one substitution run on *network*."""
    start = time.perf_counter()
    substitute_network(network, config, n_jobs=n_jobs)
    return time.perf_counter() - start


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("circuits", nargs="*", default=DEFAULT_CIRCUITS)
    parser.add_argument("--preset", choices=("basic", "ext"), default="ext")
    parser.add_argument("--reps", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    config = BASIC if args.preset == "basic" else EXTENDED
    pool = dataclasses.replace(config, parallel_backend="process")
    points = []
    for circuit in args.circuits:
        pairs = len(enumerate_candidate_pairs(build(circuit), config))
        serial_s, pool_s = [], []
        for _ in range(args.reps):
            serial_s.append(run_seconds(build(circuit), config))
            pool_s.append(run_seconds(build(circuit), pool, n_jobs=args.jobs))
        saved = statistics.median(s - p for s, p in zip(serial_s, pool_s))
        points.append((pairs, saved))
        print(
            f"{circuit:22s} pairs={pairs:5d}"
            f" serial={statistics.median(serial_s) * 1e3:8.1f}ms"
            f" pool={statistics.median(pool_s) * 1e3:8.1f}ms"
            f" saved={saved * 1e3:+7.1f}ms",
            flush=True,
        )
    mean_x = statistics.fmean(x for x, _ in points)
    mean_y = statistics.fmean(y for _, y in points)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
        (x - mean_x) ** 2 for x, _ in points
    )
    fixed = slope * mean_x - mean_y
    print(f"fixed cost {fixed * 1e3:.1f} ms, saving {slope * 1e3:.4f} ms/pair")
    if slope <= 0:
        print("the pool saved nothing per pair: it never breaks even")
    elif fixed <= 0:
        print("the line is ahead at every size: it breaks even at 0 pairs")
    else:
        print(f"break-even at {fixed / slope:.0f} first-pass pairs")


if __name__ == "__main__":
    main()
