"""Unit tests for the span tracer (clock-injected, no sleeping)."""

from __future__ import annotations

import io

import pytest

from repro.obs.tracer import (
    NULL_TRACER,
    SPAN_KINDS,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    Tracer,
    as_tracer,
    read_jsonl,
    validate_trace_event,
)


class FakeClock:
    """Deterministic clock: each read advances by *step*."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def make_tracer(step: float = 1.0, proc: str = "main") -> Tracer:
    return Tracer(clock=FakeClock(step), cpu_clock=FakeClock(step / 2),
                  proc=proc)


# ----------------------------------------------------------------------
# Span recording
# ----------------------------------------------------------------------
def test_span_records_event_with_injected_clocks():
    tracer = make_tracer()
    with tracer.span("pass", index=0) as span:
        span.annotate(accepted=3)
    assert len(tracer.events) == 1
    event = tracer.events[0]
    assert event["v"] == TRACE_SCHEMA_VERSION
    assert event["kind"] == "pass"
    assert event["id"] == 0
    assert event["parent"] == -1
    assert event["proc"] == "main"
    # FakeClock: start=0, end=1 → dur=1; cpu clock steps by 0.5.
    assert event["start"] == 0.0
    assert event["end"] == 1.0
    assert event["dur"] == 1.0
    assert event["cpu"] == 0.5
    assert event["attrs"] == {"index": 0, "accepted": 3}
    validate_trace_event(event)


def test_nested_spans_link_parents_and_close_inner_first():
    tracer = make_tracer()
    with tracer.span("run"):
        with tracer.span("pass"):
            with tracer.span("pair"):
                pass
        with tracer.span("pass"):
            pass
    kinds = [e["kind"] for e in tracer.events]
    assert kinds == ["pair", "pass", "pass", "run"]
    by_id = {e["id"]: e for e in tracer.events}
    run = next(e for e in tracer.events if e["kind"] == "run")
    passes = [e for e in tracer.events if e["kind"] == "pass"]
    pair = next(e for e in tracer.events if e["kind"] == "pair")
    assert run["parent"] == -1
    assert all(p["parent"] == run["id"] for p in passes)
    assert by_id[pair["parent"]]["kind"] == "pass"


def test_span_ids_are_assigned_in_entry_order_and_unique():
    tracer = make_tracer()
    with tracer.span("run"):
        with tracer.span("pass"):
            pass
        with tracer.span("pass"):
            pass
    ids = sorted(e["id"] for e in tracer.events)
    assert ids == [0, 1, 2]


def test_exception_marks_span_aborted_and_propagates():
    tracer = make_tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("run"):
            with tracer.span("divide"):
                raise RuntimeError("boom")
    divide, run = tracer.events
    assert divide["attrs"]["aborted"] == "RuntimeError"
    assert run["attrs"]["aborted"] == "RuntimeError"
    # The stack unwound fully: a new span is again a root.
    with tracer.span("pass"):
        pass
    assert tracer.events[-1]["parent"] == -1


def test_every_pipeline_kind_is_declared():
    for kind in ("run", "pass", "enumerate", "pair", "vote",
                 "divide", "atpg", "commit", "verify"):
        assert kind in SPAN_KINDS


# ----------------------------------------------------------------------
# Null tracer / normalization
# ----------------------------------------------------------------------
def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.events == []
    with NULL_TRACER.span("run", anything=1) as span:
        span.annotate(more=2)
    assert NULL_TRACER.events == []
    NULL_TRACER.export_jsonl("/nonexistent/dir/never_written.jsonl")


def test_null_tracer_span_is_shared_singleton():
    a = NULL_TRACER.span("run")
    b = NULL_TRACER.span("pair", f="x")
    assert a is b


def test_as_tracer_normalizes_none():
    assert as_tracer(None) is NULL_TRACER
    tracer = Tracer()
    assert as_tracer(tracer) is tracer
    null = NullTracer()
    assert as_tracer(null) is null


# ----------------------------------------------------------------------
# Export / read / validate
# ----------------------------------------------------------------------
def test_export_jsonl_roundtrip_path(tmp_path):
    tracer = make_tracer()
    with tracer.span("run", circuit="c17"):
        with tracer.span("pass", index=0):
            pass
    path = tmp_path / "trace.jsonl"
    tracer.export_jsonl(str(path))
    events = read_jsonl(str(path))
    assert events == tracer.events


def test_export_jsonl_to_file_object():
    tracer = make_tracer()
    with tracer.span("verify", ok=True):
        pass
    buffer = io.StringIO()
    tracer.export_jsonl(buffer)
    lines = buffer.getvalue().splitlines()
    assert len(lines) == 1
    assert '"kind": "verify"' in lines[0]


def test_read_jsonl_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ValueError, match="not JSON"):
        read_jsonl(str(path))


def test_read_jsonl_rejects_schema_violation_with_lineno(tmp_path):
    tracer = make_tracer()
    with tracer.span("run"):
        pass
    good = tracer.events[0]
    bad = dict(good, id=-5)
    import json

    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValueError, match=r":2:"):
        read_jsonl(str(path))


def _valid_event():
    return {
        "v": TRACE_SCHEMA_VERSION,
        "kind": "divide",
        "id": 3,
        "parent": 1,
        "proc": "main",
        "start": 1.0,
        "end": 2.0,
        "dur": 1.0,
        "cpu": 0.9,
        "attrs": {"f": "n1"},
    }


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda e: e.pop("kind"), "missing fields"),
        (lambda e: e.update(v=99), "unsupported schema version"),
        (lambda e: e.update(kind=""), "bad kind"),
        (lambda e: e.update(id=-1), "bad span id"),
        (lambda e: e.update(parent=-2), "bad parent id"),
        (lambda e: e.update(proc=""), "bad proc label"),
        (lambda e: e.update(start="x"), "non-numeric start"),
        (lambda e: e.update(end=0.5), "ends before it starts"),
        (lambda e: e.update(dur=-1.0), "negative duration"),
        (lambda e: e.update(attrs=[]), "attrs must be a dict"),
    ],
)
def test_validate_trace_event_rejections(mutate, message):
    event = _valid_event()
    mutate(event)
    with pytest.raises(ValueError, match=message):
        validate_trace_event(event)


def test_validate_accepts_unknown_kind_for_forward_compat():
    event = _valid_event()
    event["kind"] = "future_phase"
    validate_trace_event(event)
