#!/usr/bin/env python
"""Stdlib-only line-coverage gate with ratcheted per-package floors.

The container has neither ``coverage`` nor ``pytest-cov``, so this
measures line coverage with the standard library alone:

* **executable lines** per source file come from compiling it and
  walking the code-object tree (``co_lines``), the same substrate
  coverage.py reads;
* **executed lines** come from a ``sys.settrace`` collector that only
  descends into frames whose file lives under ``src/repro`` (foreign
  frames return ``None`` so the tracer never slows the test harness
  itself more than necessary);
* the test suite runs in-process via ``pytest.main`` with the
  collector armed.

Coverage is rolled up per package (``core``, ``network``, ``obs``, …)
and compared against the ratchet floors below — raise a floor when a
package's coverage improves; never lower one to make a failure go
away.

Usage::

    python scripts/check_coverage.py                 # gate: whole suite
    python scripts/check_coverage.py --tests tests/obs --only obs
    python scripts/check_coverage.py --json cov.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import threading
import types
from typing import Dict, Set

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE_ROOT = SRC / "repro"

#: Ratcheted minimum line coverage (percent) per package: set a few
#: points under the measured full-tier-1 value (2026-10, all packages
#: were 92.1-98.3%) so incidental drift fails loudly without making
#: timing-dependent branches flaky.  The obs subsystem additionally
#: carries the hard acceptance floor of 90% — its floor covers the
#: analyze/export analytics storey too; raise floors as coverage
#: improves, never lower them to dodge a failure.
FLOORS: Dict[str, float] = {
    "obs": 94.0,       # measured 98.3; hard req >= 90
    "atpg": 92.0,      # measured 97.2
    "baselines": 90.0,  # measured 94.9
    "bdd": 91.0,       # measured 97.7
    "circuit": 91.0,   # measured 96.6
    "core": 90.0,      # measured 96.8
    "network": 92.0,   # measured 95.9
    "resilience": 90.0,  # measured 97.3
    "sat": 90.0,       # measured 97.4; hard floor for the SAT backend
    "resub": 90.0,     # measured 97.5; hard floor for the simguided engine
    "scripts": 91.0,   # measured 96.7
    "sim": 91.0,       # measured 96.5
    "twolevel": 93.0,  # measured 97.4
    "(root)": 88.0,    # measured 92.1 (cli.py, __main__.py)
    "bench": 85.0,     # measured 96.7 (tests/bench)
}


def executable_lines(path: pathlib.Path) -> Set[int]:
    """Line numbers carrying bytecode anywhere in *path*'s code tree."""
    code = compile(path.read_text(), str(path), "exec")
    lines: Set[int] = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        for _start, _end, lineno in obj.co_lines():
            if lineno is not None:
                lines.add(lineno)
        for const in obj.co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
    return lines


class LineCollector:
    """settrace hook recording executed lines under one directory."""

    def __init__(self, prefix: pathlib.Path):
        self._prefix = str(prefix)
        self.hits: Dict[str, Set[int]] = {}

    def _trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self._prefix):
            return None  # never descend into foreign code
        if event == "line":
            hits = self.hits.get(filename)
            if hits is None:
                hits = self.hits[filename] = set()
            hits.add(frame.f_lineno)
        return self._trace

    def __enter__(self) -> "LineCollector":
        threading.settrace(self._trace)
        sys.settrace(self._trace)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        sys.settrace(None)
        threading.settrace(None)


def package_of(path: pathlib.Path) -> str:
    relative = path.relative_to(PACKAGE_ROOT)
    return relative.parts[0] if len(relative.parts) > 1 else "(root)"


def measure(test_args) -> Dict[str, Dict[str, object]]:
    """Run pytest under the collector; per-package coverage rollup.

    Each file's executable lines are read before the run, so a file
    edited while the suite runs is still scored against the lines the
    collector could have hit.
    """
    import pytest

    executable = {
        path: executable_lines(path)
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
    }
    collector = LineCollector(PACKAGE_ROOT)
    with collector:
        exit_code = pytest.main(list(test_args))
    if exit_code not in (0, pytest.ExitCode.NO_TESTS_COLLECTED):
        raise SystemExit(f"test suite failed under coverage ({exit_code})")

    rollup: Dict[str, Dict[str, object]] = {}
    for path, possible in executable.items():
        if not possible:
            continue
        executed = collector.hits.get(str(path), set()) & possible
        row = rollup.setdefault(
            package_of(path),
            {"executable": 0, "executed": 0, "files": {}},
        )
        row["executable"] += len(possible)
        row["executed"] += len(executed)
        row["files"][str(path.relative_to(REPO))] = {
            "executable": len(possible),
            "executed": len(executed),
            "missing": sorted(possible - executed),
        }
    for row in rollup.values():
        row["percent"] = 100.0 * row["executed"] / row["executable"]
    return rollup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tests",
        nargs="*",
        default=["tests"],
        help="test paths to run under coverage (default: the whole "
        "tier-1 suite)",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="PACKAGE",
        help="gate only these packages (repeatable); default: all floors",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the full rollup as JSON"
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    rollup = measure(
        list(args.tests) + ["-q", "-p", "no:cacheprovider"]
    )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(rollup, handle, indent=2)
            handle.write("\n")

    gated = args.only or sorted(FLOORS)
    failures = []
    print(f"{'package':<12}{'lines':>10}{'hit':>10}{'cover':>9}{'floor':>9}")
    for package in sorted(rollup):
        row = rollup[package]
        floor = FLOORS.get(package)
        flag = ""
        if package in gated and floor is not None:
            if row["percent"] < floor:
                failures.append(
                    f"{package}: {row['percent']:.1f}% < floor {floor:.1f}%"
                )
                flag = "  FAIL"
        print(
            f"{package:<12}{row['executable']:>10}{row['executed']:>10}"
            f"{row['percent']:>8.1f}%"
            f"{(f'{floor:.1f}%' if floor is not None else '-'):>9}{flag}"
        )
    for package in gated:
        if package in FLOORS and package not in rollup:
            failures.append(f"{package}: no source measured")
    if failures:
        print("\ncoverage gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\ncoverage gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
