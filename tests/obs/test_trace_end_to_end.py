"""End-to-end tracing tests: CLI ``--trace`` runs and their schema.

These drive the real pipeline (``repro optimize``) with tracing
enabled and check that the exported JSONL is schema-valid, one object
per line, and covers the pipeline's span kinds (pass, pair, divide,
atpg, commit, verify).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main
from repro.core.substitution import SubstitutionStats
from repro.obs.tracer import SPAN_KINDS, read_jsonl, validate_trace_event

pytestmark = pytest.mark.trace

#: Span kinds any non-trivial traced optimize run must emit
#: (acceptance criterion: >= 6 kinds covering the whole pipeline).
_EXPECTED_SERIAL_KINDS = {"run", "pass", "enumerate", "pair", "divide",
                          "atpg", "commit", "verify"}


def _run_cli(tmp_path, name, *extra):
    out = tmp_path / f"{name}.blif"
    trace = tmp_path / f"{name}.jsonl"
    code = main(
        [
            "optimize",
            "bench:rnd2",
            "--method",
            "ext",
            "-o",
            str(out),
            "--trace",
            str(trace),
            *extra,
        ]
    )
    assert code == 0
    return out.read_text(), read_jsonl(str(trace))


def test_serial_trace_schema_and_span_kinds(tmp_path):
    _, events = _run_cli(tmp_path, "serial")
    assert events, "traced run produced no spans"
    for event in events:
        validate_trace_event(event)
        assert event["kind"] in SPAN_KINDS
    kinds = {e["kind"] for e in events}
    missing = _EXPECTED_SERIAL_KINDS - kinds
    assert not missing, f"span kinds absent from trace: {sorted(missing)}"
    assert len(kinds) >= 6
    # Exactly one root run span, and every parent id resolves.
    runs = [e for e in events if e["kind"] == "run"]
    assert len(runs) == 1
    ids = {(e["proc"], e["id"]) for e in events}
    for event in events:
        if event["parent"] != -1:
            assert (event["proc"], event["parent"]) in ids


def test_trace_file_is_jsonl_one_object_per_line(tmp_path):
    out = tmp_path / "o.blif"
    trace = tmp_path / "t.jsonl"
    assert (
        main(
            [
                "optimize",
                "bench:dec3",
                "--method",
                "basic",
                "--script",
                "none",
                "-o",
                str(out),
                "--trace",
                str(trace),
            ]
        )
        == 0
    )
    lines = trace.read_text().splitlines()
    assert lines
    for line in lines:
        event = json.loads(line)
        validate_trace_event(event)


def test_profile_flag_prints_phase_table(tmp_path, capsys):
    out = tmp_path / "o.blif"
    code = main(
        [
            "optimize",
            "bench:dec3",
            "--method",
            "basic",
            "--script",
            "none",
            "-o",
            str(out),
            "--profile",
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "phase" in err and "wall(s)" in err
    assert "run" in err


def test_trace_rejected_for_sis():
    with pytest.raises(SystemExit):
        main(
            ["optimize", "bench:dec3", "--method", "sis", "--trace",
             "/tmp/never.jsonl"]
        )


def test_stats_json_carries_substitution_stats(tmp_path):
    out = tmp_path / "o.blif"
    stats = tmp_path / "stats.json"
    code = main(
        [
            "optimize",
            "bench:dec3",
            "--method",
            "basic",
            "--script",
            "none",
            "-o",
            str(out),
            "--stats-json",
            str(stats),
        ]
    )
    assert code == 0
    report = json.loads(stats.read_text())
    assert set(report["substitution"]) == {
        field.name for field in dataclasses.fields(SubstitutionStats)
    }
    assert report["substitution"]["attempts"] > 0

