"""CLI verbs over traces: ``repro trace`` and ``--profile-json``.

Drives the acceptance criteria end to end:

* ``repro trace report`` on a trace produced with ``--trace`` from the
  golden parallel run prints critical path + per-kind rollup + worker
  utilization;
* ``repro trace chrome`` preserves the span count (lossless export);
* ``--profile-json`` archives the profile rollup.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.obs.tracer import read_jsonl

REPO = pathlib.Path(__file__).resolve().parents[2]
GOLDEN_INPUT = REPO / "tests" / "parallel" / "golden" / "input.blif"


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One golden-input parallel run with every archive flag on."""
    tmp = tmp_path_factory.mktemp("traced_run")
    paths = {
        "out": tmp / "out.blif",
        "trace": tmp / "run.jsonl",
        "stats": tmp / "stats.json",
        "profile": tmp / "profile.json",
    }
    code = main(
        [
            "optimize",
            str(GOLDEN_INPUT),
            "--method",
            "ext",
            "-j",
            "2",
            "-o",
            str(paths["out"]),
            "--trace",
            str(paths["trace"]),
            "--stats-json",
            str(paths["stats"]),
            "--profile-json",
            str(paths["profile"]),
        ]
    )
    assert code == 0
    return paths


@pytest.mark.trace
class TestTraceVerbs:
    def test_report_prints_all_sections(self, traced_run, capsys):
        code = main(["trace", "report", str(traced_run["trace"])])
        assert code == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "per-kind rollup" in out
        assert "worker utilization" in out
        # The parallel run's heaviest chain starts at the run span.
        assert "run" in out.splitlines()[3]

    def test_chrome_export_preserves_span_count(
        self, traced_run, tmp_path
    ):
        events = read_jsonl(traced_run["trace"])
        out = tmp_path / "run.chrome.json"
        code = main(
            ["trace", "chrome", str(traced_run["trace"]), "-o", str(out)]
        )
        assert code == 0
        document = json.loads(out.read_text())
        complete = [
            e for e in document["traceEvents"] if e["ph"] == "X"
        ]
        assert len(complete) == len(events)

    def test_flame_export(self, traced_run, capsys):
        code = main(["trace", "flame", str(traced_run["trace"])])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert any(line.startswith("main;run;pass") for line in lines)
        for line in lines:
            int(line.rpartition(" ")[2])  # every weight is an integer

    def test_missing_trace_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["trace", "report", str(tmp_path / "missing.jsonl")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_corrupt_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"v": 1}\n')
        code = main(["trace", "report", str(bad)])
        assert code == 2
        assert "missing fields" in capsys.readouterr().err


class TestProfileJson:
    def test_rollup_archived(self, traced_run):
        rollup = json.loads(traced_run["profile"].read_text())
        assert "run" in rollup and "pair" in rollup
        for row in rollup.values():
            assert set(row) == {"count", "wall", "cpu", "self_wall"}

