"""Observability for the division pipeline: tracing and profiles.

Two zero-dependency building blocks:

* :mod:`repro.obs.tracer` — nestable wall/CPU spans with an injectable
  clock, JSONL export, and a no-op tracer whose use is near-free and
  leaves runs byte-identical (the default everywhere);
* :mod:`repro.obs.profile` — per-phase rollups (pass /
  pair-enumeration / divide / ATPG-region-removal / commit / verify)
  over a trace's events.

Built on top of those, the analytics storey (PR 5):

* :mod:`repro.obs.analyze` — span-forest reconstruction, critical
  path, per-kind/per-proc self-time aggregates, hottest spans, worker
  utilization and speculative-store reuse rates (``repro trace
  report``);
* :mod:`repro.obs.export` — lossless Chrome trace-event / Perfetto
  conversion and folded-stack flamegraph lines (``repro trace
  chrome|flame``).

And the live-telemetry storey (PR 10):

* :mod:`repro.obs.stream` — the per-event layer: ``TelemetryBus``
  pub/sub fan-out, a crash-durable streaming JSONL sink (what
  ``--trace`` writes through now), and tolerant trace reading for
  truncated tails;
* :mod:`repro.obs.resource` — a background sampler emitting
  ``resource_sample`` instants (RSS / peak RSS, CPU split, GC
  collections and pause wall, ``/dev/shm`` signature usage);
* :mod:`repro.obs.health` — worker heartbeat files and the
  executor-side stall watchdog behind ``--heartbeat-dir`` /
  ``--stall-timeout``;
* :mod:`repro.obs.live` — the ``--live`` progress line and the
  ``repro tail`` follower.

The tracer is threaded through :func:`~repro.core.substitution.
substitute_network`, the division engine, the ATPG loops and the
parallel stack — worker processes record spans locally and ship them
back with their shard results, so one merged trace covers a
multi-process run.  The CLI exposes ``--trace FILE.jsonl`` and
``--profile``.
"""

from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    SPAN_KINDS,
    TRACE_SCHEMA_VERSION,
    Tracer,
    as_tracer,
    read_jsonl,
    validate_trace_event,
)
from repro.obs.profile import (
    PROFILE_PHASES,
    format_profile,
    profile_events,
    profile_tracer,
)
from repro.obs.analyze import (
    analyze_trace,
    build_forest,
    critical_path,
    format_report,
    ledger_rates,
    top_spans,
    worker_utilization,
)
from repro.obs.export import (
    chrome_to_events,
    export_chrome_trace,
    export_folded_stacks,
    to_chrome_trace,
    to_folded_stacks,
)
from repro.obs.stream import (
    StreamingJsonlSink,
    Subscription,
    TelemetryBus,
    fanout,
)
from repro.obs.resource import (
    GcPauseMonitor,
    ResourceSampler,
    sample_attrs,
)
from repro.obs.health import (
    StallWatchdog,
    read_heartbeats,
    stale_workers,
    write_heartbeat,
)
from repro.obs.live import (
    LiveProgress,
    TailReporter,
    follow_trace,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SPAN_KINDS",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "as_tracer",
    "read_jsonl",
    "validate_trace_event",
    "PROFILE_PHASES",
    "format_profile",
    "profile_events",
    "profile_tracer",
    "analyze_trace",
    "build_forest",
    "critical_path",
    "format_report",
    "ledger_rates",
    "top_spans",
    "worker_utilization",
    "chrome_to_events",
    "export_chrome_trace",
    "export_folded_stacks",
    "to_chrome_trace",
    "to_folded_stacks",
    "StreamingJsonlSink",
    "Subscription",
    "TelemetryBus",
    "fanout",
    "GcPauseMonitor",
    "ResourceSampler",
    "sample_attrs",
    "StallWatchdog",
    "read_heartbeats",
    "stale_workers",
    "write_heartbeat",
    "LiveProgress",
    "TailReporter",
    "follow_trace",
]
