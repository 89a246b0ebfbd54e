"""Unit tests for the per-phase profile rollup."""

from __future__ import annotations

from repro.obs.profile import format_profile, profile_events
from repro.obs.tracer import TRACE_SCHEMA_VERSION


def _event(kind, id, parent, dur, cpu=0.0, proc="main", start=0.0):
    return {
        "v": TRACE_SCHEMA_VERSION,
        "kind": kind,
        "id": id,
        "parent": parent,
        "proc": proc,
        "start": start,
        "end": start + dur,
        "dur": dur,
        "cpu": cpu,
        "attrs": {},
    }


def test_rollup_counts_and_totals():
    events = [
        _event("pair", 0, -1, 2.0, cpu=1.0),
        _event("pair", 1, -1, 3.0, cpu=1.5),
        _event("divide", 2, 1, 1.0, cpu=0.5),
    ]
    rollup = profile_events(events)
    assert rollup["pair"]["count"] == 2
    assert rollup["pair"]["wall"] == 5.0
    assert rollup["pair"]["cpu"] == 2.5
    assert rollup["divide"]["count"] == 1


def test_self_wall_subtracts_direct_children_only():
    # run(10) > pass(8) > divide(3): self times are 2 / 5 / 3 — a
    # grandchild must not be double-subtracted from the grandparent.
    events = [
        _event("run", 0, -1, 10.0),
        _event("pass", 1, 0, 8.0),
        _event("divide", 2, 1, 3.0),
    ]
    rollup = profile_events(events)
    assert rollup["run"]["self_wall"] == 2.0
    assert rollup["pass"]["self_wall"] == 5.0
    assert rollup["divide"]["self_wall"] == 3.0


def test_self_wall_clamped_at_zero():
    # Overlapping clock reads can make children sum past the parent;
    # self time must clamp instead of going negative.
    events = [
        _event("pass", 0, -1, 1.0),
        _event("pair", 1, 0, 0.7),
        _event("pair", 2, 0, 0.7),
    ]
    rollup = profile_events(events)
    assert rollup["pass"]["self_wall"] == 0.0


def test_self_wall_respects_proc_clock_domains():
    # A span of another proc whose parent id collides with a main
    # span id must not be billed against it.
    events = [
        _event("pass", 0, -1, 10.0, proc="main"),
        _event("pair", 1, 0, 4.0, proc="worker-1"),
    ]
    rollup = profile_events(events)
    assert rollup["pass"]["self_wall"] == 10.0


def test_format_profile_orders_known_phases_first():
    events = [
        _event("zzz_custom", 0, -1, 1.0),
        _event("verify", 1, -1, 1.0),
        _event("run", 2, -1, 1.0),
    ]
    table = format_profile(profile_events(events))
    lines = table.splitlines()
    assert lines[0].split()[:2] == ["phase", "count"]
    order = [line.split()[0] for line in lines[2:]]
    assert order == ["run", "verify", "zzz_custom"]


def test_rows_follow_the_span_kind_order():
    from repro.obs.tracer import SPAN_KINDS

    events = [
        _event(kind, i, -1, 1.0)
        for i, kind in enumerate(reversed(SPAN_KINDS))
    ]
    table = format_profile(profile_events(events))
    order = [line.split()[0] for line in table.splitlines()[2:]]
    assert order == list(SPAN_KINDS)
