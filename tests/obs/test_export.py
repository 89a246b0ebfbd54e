"""Chrome-trace / flamegraph export: losslessness and golden bytes.

The acceptance contract: a trace round-trips through the Chrome
trace-event export **without dropping any span** (span count
preserved, and here: exact event equality), and the export format
itself is pinned by a committed golden file so accidental format
drift fails loudly.
"""

from __future__ import annotations

import json
import pathlib

from repro.cli import main
from repro.obs.analyze import build_forest
from repro.obs.export import (
    chrome_to_events,
    to_chrome_trace,
    to_folded_stacks,
)
from repro.obs.tracer import read_jsonl

from tests.obs.test_analyze import random_trace

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_TRACE = GOLDEN_DIR / "small_trace.jsonl"
GOLDEN_CHROME = GOLDEN_DIR / "small_trace.chrome.json"


def test_golden_chrome_export_bytes():
    """The committed trace exports to exactly the committed Chrome JSON."""
    events = read_jsonl(GOLDEN_TRACE)
    produced = json.dumps(
        to_chrome_trace(events), indent=1, sort_keys=True
    ) + "\n"
    assert produced == GOLDEN_CHROME.read_text()


def test_golden_trace_round_trips_losslessly():
    events = read_jsonl(GOLDEN_TRACE)
    document = to_chrome_trace(events)
    complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == len(events)  # span count preserved
    assert document["otherData"]["spans"] == len(events)
    assert chrome_to_events(document) == events  # exact fields back


def test_random_traces_round_trip():
    for seed in (1, 2, 3):
        events = random_trace(seed, procs=3)
        document = to_chrome_trace(events)
        assert chrome_to_events(document) == events
        # Through JSON text as well (what `repro trace chrome` prints).
        text = json.dumps(document, indent=1, sort_keys=True)
        assert chrome_to_events(json.loads(text)) == events


def test_chrome_pids_stable_and_main_first():
    events = read_jsonl(GOLDEN_TRACE)
    document = to_chrome_trace(events)
    names = {
        e["pid"]: e["args"]["name"]
        for e in document["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert names[1] == "main"
    assert set(names.values()) == {"main", "worker-1"}


def test_chrome_timestamps_anchored_per_proc():
    events = read_jsonl(GOLDEN_TRACE)
    document = to_chrome_trace(events)
    by_pid = {}
    for entry in document["traceEvents"]:
        if entry["ph"] == "X":
            by_pid.setdefault(entry["pid"], []).append(entry["ts"])
    for stamps in by_pid.values():
        assert min(stamps) == 0.0  # each proc starts at its own origin
        assert all(ts >= 0 for ts in stamps)


def test_folded_stacks_weights_partition_wall():
    events = read_jsonl(GOLDEN_TRACE)
    lines = to_folded_stacks(events)
    assert lines == sorted(lines)
    total = 0
    for line in lines:
        stack, _, weight = line.rpartition(" ")
        assert stack and not stack.endswith(";")
        total += int(weight)
    # Self-times partition the root walls (µs, rounding fuzz allowed).
    forest = build_forest(events)
    root_wall_us = sum(r.dur for r in forest.roots) * 1e6
    assert abs(total - root_wall_us) <= len(events)


def test_folded_stacks_keep_zero_weights():
    event = {
        "v": 1, "kind": "pair", "id": 0, "parent": -1, "proc": "main",
        "start": 1.0, "end": 1.0, "dur": 0.0, "cpu": 0.0, "attrs": {},
    }
    assert to_folded_stacks([event]) == ["main;pair 0"]


def test_folded_stacks_file_export(tmp_path):
    # `repro trace flame -o` writes the renderer's lines, one per line.
    events = read_jsonl(GOLDEN_TRACE)
    out = tmp_path / "trace.folded"
    assert main(["trace", "flame", str(GOLDEN_TRACE), "-o", str(out)]) == 0
    assert out.read_text() == "".join(
        line + "\n" for line in to_folded_stacks(events)
    )


def test_empty_trace_exports():
    document = to_chrome_trace([])
    assert document["traceEvents"] == []
    assert document["otherData"]["spans"] == 0
    assert to_folded_stacks([]) == []
