"""Compare two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py --base parent/*.json --new change/*.json

Each file is a report written by ``run.py --out`` (for example ten runs
of each side, interleaved, one seed per pair).  For every workload and
metric it prints each side's median and quartiles and, for the
end-to-end metrics, a verdict against the bound in ``BENCHMARK.json``:

* ``improved``: the change wins at least nine tenths of the pairs and
  the medians differ by more than the parent's quartile spread;
* ``regressed``: the change's median is worse than the parent's by
  more than the bound;
* ``unresolved``: the spread between one side's runs (quartile
  distance over median) is wider than the bound, unless every run of
  the change reads better than every run of the parent;
* ``unchanged``: otherwise.

Runs are paired by seed when both sides ran the same seeds, else by
position.  Exits 1 when any row is regressed or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) of *values*."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: List[float], new: List[float], lower_is_better: bool,
            bound: float) -> str:
    """Verdict for one metric; runs of *base*/*new* are paired by index."""
    sign = 1.0 if lower_is_better else -1.0
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    worse_by = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and sign * (nmed - bmed) < 0
        and abs(nmed - bmed) > b3 - b1
    ):
        return "improved"
    if worse_by > bound:
        return "regressed"
    spread = max(
        (b3 - b1) / abs(bmed) if bmed else 0.0,
        (n3 - n1) / abs(nmed) if nmed else 0.0,
    )
    if lower_is_better:
        every_run_better = max(new) < min(base)
    else:
        every_run_better = min(new) > max(base)
    if spread > bound and not every_run_better:
        return "unresolved"
    return "unchanged"


Run = Tuple[int, Dict[str, float]]


def load(paths: List[str]) -> Dict[str, List[Run]]:
    """``{workload: [(seed, {metric: value}), ...]}`` in file order."""
    runs: Dict[str, List[Run]] = {}
    for path in paths:
        with open(path) as handle:
            report = json.load(handle)
        for workload, result in report["workloads"].items():
            metrics = {m: v[0] for m, v in result["metrics"].items()}
            runs.setdefault(workload, []).append((report["seed"], metrics))
    return runs


def _paired(base: List[Run], new: List[Run]) -> Tuple[List, List]:
    """Pair by seed when both sides ran the same distinct seeds."""
    seeds = [seed for seed, _ in base]
    if len(set(seeds)) == len(seeds) and sorted(seeds) == sorted(
        seed for seed, _ in new
    ):
        base = sorted(base, key=lambda run: run[0])
        new = sorted(new, key=lambda run: run[0])
    return [m for _, m in base], [m for _, m in new]


def compare(base_paths: List[str], new_paths: List[str],
            benchmark: dict) -> Tuple[List[str], bool]:
    """Report lines, and whether every verdict is acceptable."""
    spec = {m["name"]: m for m in benchmark["end_to_end"]}
    base_runs, new_runs = load(base_paths), load(new_paths)
    lines = [
        f"{'workload':<18}{'metric':<38}{'base q1/med/q3':>30}"
        f"{'new q1/med/q3':>30}{'change':>9}  verdict"
    ]
    ok = True
    for workload in sorted(set(base_runs) & set(new_runs)):
        base, new = _paired(base_runs[workload], new_runs[workload])
        metrics = [m for m in base[0] if all(m in r for r in base + new)]
        for metric in metrics:
            b = [r[metric] for r in base]
            n = [r[metric] for r in new]
            b1, bmed, b3 = quartiles(b)
            n1, nmed, n3 = quartiles(n)
            change = f"{100 * (nmed - bmed) / abs(bmed):+.1f}%" if bmed else "-"
            if metric in spec:
                lower = spec[metric]["better"] == "lower"
                result = verdict(b, n, lower, spec[metric]["bound"])
                ok = ok and result not in ("regressed", "unresolved")
            else:
                result = "-"
            lines.append(
                f"{workload:<18}{metric:<38}"
                f"{f'{b1:.4g}/{bmed:.4g}/{b3:.4g}':>30}"
                f"{f'{n1:.4g}/{nmed:.4g}/{n3:.4g}':>30}"
                f"{change:>9}  {result}"
            )
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of run.py --out reports."
    )
    parser.add_argument("--base", nargs="+", required=True,
                        help="reports of the parent commit")
    parser.add_argument("--new", nargs="+", required=True,
                        help="reports of the change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"),
                        help="metric bounds (default: the repo's)")
    args = parser.parse_args(argv)
    with open(args.benchmark) as handle:
        benchmark = json.load(handle)
    lines, ok = compare(args.base, args.new, benchmark)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
