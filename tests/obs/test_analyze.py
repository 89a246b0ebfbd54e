"""Trace-analysis invariants: critical path and self times.

Property tests over randomly generated (but deterministic, fake-clock)
span forests pin the structural contracts of
:mod:`repro.obs.analyze`:

* the critical path is a root-to-leaf *chain* (each step the previous
  step's child, same proc) whose duration never exceeds the root's;
* per-kind self-wall times (:func:`~repro.obs.profile.profile_events`,
  the one per-kind rollup) are non-negative and sum to at most the
  total root wall (no phase is billed twice).
"""

from __future__ import annotations

import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.analyze import (
    aggregate_by_proc_kind,
    analyze_trace,
    build_forest,
    critical_path,
    format_report,
    top_spans,
)
from repro.obs.profile import profile_events
from repro.obs.tracer import SPAN_KINDS, Tracer, validate_trace_event


class FakeClock:
    """Monotone clock advancing a pseudo-random step per read."""

    def __init__(self, rng: random.Random, scale: float = 1.0):
        self._rng = rng
        self._scale = scale
        self.t = 0.0

    def __call__(self) -> float:
        self.t += self._rng.random() * self._scale
        return self.t


def random_trace(seed: int, procs: int = 1) -> list:
    """A random well-formed multi-proc trace (fake clocks, no sleeps)."""
    rng = random.Random(seed)
    kinds = sorted(SPAN_KINDS)
    events = []

    def grow(tracer: Tracer, depth: int) -> None:
        with tracer.span(rng.choice(kinds), n=rng.randrange(100)):
            if depth < 4:
                for _ in range(rng.randrange(3)):
                    grow(tracer, depth + 1)

    for proc_index in range(procs):
        proc = "main" if proc_index == 0 else f"worker-{proc_index}"
        tracer = Tracer(
            clock=FakeClock(rng),
            cpu_clock=FakeClock(rng, scale=0.5),
            proc=proc,
        )
        for _ in range(rng.randrange(1, 4)):
            grow(tracer, 0)
        events.extend(tracer.events)
    for event in events:
        validate_trace_event(event)
    return events


@given(st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_critical_path_is_root_to_leaf_chain(seed, procs):
    events = random_trace(seed, procs=procs)
    forest = build_forest(events)
    path = critical_path(forest)
    assert path, "non-empty trace must yield a critical path"

    # Starts at a root, every later element is a child of the previous
    # one in the same proc, and ends at a leaf.
    assert path[0]["parent"] == -1 or (
        (path[0]["proc"], path[0]["parent"]) not in forest.nodes
    )
    for parent, child in zip(path, path[1:]):
        assert child["proc"] == parent["proc"]
        assert child["parent"] == parent["id"]
    leaf_key = (path[-1]["proc"], path[-1]["id"])
    assert not forest.nodes[leaf_key].children

    # Durations never grow along the chain, so no step exceeds the root.
    root_dur = path[0]["dur"]
    for step in path:
        assert step["dur"] <= root_dur + 1e-12
    for parent, child in zip(path, path[1:]):
        assert child["dur"] <= parent["dur"] + 1e-12


@given(st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_self_times_sum_to_at_most_total_wall(seed, procs):
    events = random_trace(seed, procs=procs)
    forest = build_forest(events)
    rollup = profile_events(events)
    total_self = sum(row["self_wall"] for row in rollup.values())
    total_root_wall = sum(root.dur for root in forest.roots)
    assert all(row["self_wall"] >= 0 for row in rollup.values())
    # Spans nest strictly (one clock per proc), so self-wall is a
    # partition of root wall — allow float fuzz only.
    assert total_self <= total_root_wall + 1e-9 * max(1, len(events))
    # Counts are preserved: every event lands in exactly one bucket.
    assert sum(row["count"] for row in rollup.values()) == len(events)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_per_proc_rollup_refines_per_kind(seed):
    events = random_trace(seed, procs=3)
    forest = build_forest(events)
    by_kind = profile_events(events)
    nested = aggregate_by_proc_kind(forest)
    for kind, row in by_kind.items():
        count = sum(
            kinds[kind]["count"]
            for kinds in nested.values()
            if kind in kinds
        )
        assert count == row["count"]


@given(st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_per_kind_rollup_matches_the_forest(seed, procs):
    # The flat rollup bills each span the same self time as the
    # reconstructed tree: its wall minus its direct children's.
    events = random_trace(seed, procs=procs)
    forest = build_forest(events)
    by_kind = profile_events(events)
    assert set(by_kind) == {n.event["kind"] for n in forest.nodes.values()}
    for kind, row in by_kind.items():
        nodes = [
            n for n in forest.nodes.values() if n.event["kind"] == kind
        ]
        assert row["count"] == len(nodes)
        assert row["wall"] == pytest.approx(sum(n.dur for n in nodes))
        assert row["cpu"] == pytest.approx(
            sum(n.event["cpu"] for n in nodes)
        )
        assert row["self_wall"] == pytest.approx(
            sum(n.self_wall() for n in nodes)
        )


def test_golden_trace_report_text(capsys):
    """``repro trace report`` renders the committed trace exactly as
    the committed text."""
    from repro.cli import main

    golden = pathlib.Path(__file__).parent / "golden"
    assert main(["trace", "report", str(golden / "small_trace.jsonl")]) == 0
    out = capsys.readouterr().out
    assert out == (golden / "small_trace.report.txt").read_text()


def test_top_spans_sorted_and_bounded():
    events = random_trace(7, procs=2)
    forest = build_forest(events)
    ranked = top_spans(forest, kinds=("pair", "divide"), n=3)
    for kind, entries in ranked.items():
        assert len(entries) <= 3
        durations = [e["dur"] for e in entries]
        assert durations == sorted(durations, reverse=True)
        for entry in entries:
            assert "attrs" in entry and "proc" in entry


def test_duplicate_span_key_rejected():
    events = random_trace(17)
    with pytest.raises(ValueError, match="duplicate span key"):
        build_forest(events + [events[0]])


def test_orphan_parent_becomes_root():
    # A trace cut short may reference a parent id that was never
    # written; the span must surface as a root, not vanish.
    event = {
        "v": 1, "kind": "pair", "id": 5, "parent": 3,
        "proc": "worker-1", "start": 1.0, "end": 2.0, "dur": 1.0,
        "cpu": 0.5, "attrs": {},
    }
    forest = build_forest([event])
    assert len(forest.roots) == 1
    assert critical_path(forest)[0]["id"] == 5


def test_empty_trace_analyzes_cleanly():
    analysis = analyze_trace([])
    assert analysis["spans"] == 0
    assert analysis["critical_path"] == []
    assert "(empty trace)" in format_report(analysis)


def test_format_report_mentions_all_sections():
    events = random_trace(23, procs=2)
    text = format_report(analyze_trace(events))
    assert "critical path" in text
    assert "per-kind rollup" in text
    assert any(line.startswith("slowest ") for line in text.splitlines())
