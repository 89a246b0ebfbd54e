"""Observability for the division pipeline: tracing and profiles.

Two zero-dependency building blocks:

* :mod:`repro.obs.tracer` — nestable wall/CPU spans with an injectable
  clock, JSONL export, a crash-durable streaming JSONL sink (what
  ``--trace`` writes through, so a killed run still leaves a trace),
  tolerant reading of a truncated tail, and a no-op tracer whose use
  is near-free and leaves runs byte-identical (the default
  everywhere);
* :mod:`repro.obs.profile` — per-phase rollups (pass /
  pair-enumeration / divide / ATPG-region-removal / commit / verify)
  over a trace's events.

Built on top of those, the analytics storey:

* :mod:`repro.obs.analyze` — span-forest reconstruction, critical
  path, per-kind/per-proc self-time aggregates and hottest spans
  (``repro trace report``);
* :mod:`repro.obs.export` — lossless Chrome trace-event / Perfetto
  conversion and folded-stack flamegraph lines (``repro trace
  chrome|flame``).

The tracer is threaded through :func:`~repro.core.substitution.
substitute_network`, the division engine, the ATPG loops, the
simguided engine and the exact checks.  The CLI exposes ``--trace
FILE.jsonl`` and ``--profile``.
"""

from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    SPAN_KINDS,
    StreamingJsonlSink,
    TRACE_SCHEMA_VERSION,
    Tracer,
    as_tracer,
    read_jsonl,
    validate_trace_event,
)
from repro.obs.profile import format_profile, profile_events
from repro.obs.analyze import (
    analyze_trace,
    build_forest,
    critical_path,
    format_report,
    top_spans,
)
from repro.obs.export import (
    chrome_to_events,
    to_chrome_trace,
    to_folded_stacks,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SPAN_KINDS",
    "StreamingJsonlSink",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "as_tracer",
    "read_jsonl",
    "validate_trace_event",
    "format_profile",
    "profile_events",
    "analyze_trace",
    "build_forest",
    "critical_path",
    "format_report",
    "top_spans",
    "chrome_to_events",
    "to_chrome_trace",
    "to_folded_stacks",
]
