"""How ``scripts/check_coverage.py`` scores a run (hermetic, tier 1).

The gate compares the lines a traced test run executed with each
source file's executable lines.  Both sets must describe the same
file: the executable lines are read before the run, so a file edited
while the suite runs is scored against the lines that ran, not against
its new line numbers.  The collector and the test run are stubbed
here, so this arms no tracer of its own.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "scripts"
    / "check_coverage.py"
)

SOURCE = "def f(x):\n    if x:\n        return 1\n    return 2\n"


def _load_gate():
    spec = importlib.util.spec_from_file_location("check_coverage", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rollup_scores_the_source_as_it_was_before_the_run(
    tmp_path, monkeypatch
):
    gate = _load_gate()
    package_root = tmp_path / "src" / "repro"
    module = package_root / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(SOURCE)
    before = gate.executable_lines(module)
    ran = {line for line in before if line < 4}  # `return 2` never ran
    monkeypatch.setattr(gate, "REPO", tmp_path)
    monkeypatch.setattr(gate, "PACKAGE_ROOT", package_root)

    collectors = []

    class Collector:
        """Records nothing itself; the stubbed run fills in its hits."""

        def __init__(self, prefix):
            self.hits = {}
            collectors.append(self)

        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            return None

    def run(args):
        (collector,) = collectors
        collector.hits[str(module)] = set(ran)
        # The file gains two lines while the suite is still running.
        module.write_text('"""Edited mid-run."""\n\n' + SOURCE)
        return 0

    monkeypatch.setattr(gate, "LineCollector", Collector)
    monkeypatch.setattr(pytest, "main", run)
    rollup = gate.measure([])

    row = rollup["pkg"]
    assert gate.executable_lines(module) != before  # the edit landed
    assert row["executable"] == len(before)
    assert row["executed"] == len(ran)
    assert row["files"]["src/repro/pkg/mod.py"]["missing"] == sorted(
        before - ran
    )
