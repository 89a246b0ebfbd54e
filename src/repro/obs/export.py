"""Lossless trace exports: Chrome trace-event JSON and folded stacks.

Two render targets for a schema-v1 trace (see
:mod:`repro.obs.tracer`):

* :func:`to_chrome_trace` — the Chrome trace-event format (the JSON
  ``chrome://tracing`` and Perfetto's legacy importer read).  Every
  span becomes one complete (``"ph": "X"``) event; the conversion is
  **lossless**: the original schema-v1 fields ride along under
  ``args.repro`` at full float precision, so
  :func:`chrome_to_events` reconstructs the exact input events and a
  round-trip preserves the span count by construction.
* :func:`to_folded_stacks` — ``flamegraph.pl`` / speedscope "folded"
  lines (``proc;run;pass;divide 1234``), weighted by *self* wall time
  in integer microseconds so nested spans never double-bill a
  flamegraph column.

Timestamps: Chrome wants microseconds.  Each proc's spans are shifted
so the earliest span in that proc starts at zero — the per-proc clocks
were never comparable (see the tracer docs), and anchoring them at a
common origin renders a merged trace usefully instead of scattering
procs across perf_counter epochs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.obs.tracer import TRACE_SCHEMA_VERSION


def _proc_ids(events: List[dict]) -> Dict[str, int]:
    """Stable small integer pid per proc label (main first)."""
    labels = sorted({e["proc"] for e in events})
    labels.sort(key=lambda label: (label != "main", label))
    return {label: index + 1 for index, label in enumerate(labels)}


def to_chrome_trace(events: Iterable[dict]) -> Dict[str, object]:
    """Convert schema-v1 events to a Chrome trace-event document."""
    events = list(events)
    pids = _proc_ids(events)
    origin = {
        proc: min(
            e["start"] for e in events if e["proc"] == proc
        )
        for proc in pids
    }
    trace_events: List[dict] = []
    for proc, pid in pids.items():
        trace_events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": proc},
            }
        )
    for event in events:
        pid = pids[event["proc"]]
        trace_events.append(
            {
                "ph": "X",
                "name": event["kind"],
                "cat": event["kind"],
                "pid": pid,
                "tid": 1,
                "ts": (event["start"] - origin[event["proc"]]) * 1e6,
                "dur": event["dur"] * 1e6,
                "args": {
                    # Exact original fields, for lossless round-trip.
                    "repro": {
                        "v": event["v"],
                        "id": event["id"],
                        "parent": event["parent"],
                        "proc": event["proc"],
                        "start": event["start"],
                        "end": event["end"],
                        "dur": event["dur"],
                        "cpu": event["cpu"],
                        "attrs": event["attrs"],
                    },
                },
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs",
            "trace_schema_version": TRACE_SCHEMA_VERSION,
            "spans": len(events),
        },
    }


def chrome_to_events(document: Dict[str, object]) -> List[dict]:
    """Invert :func:`to_chrome_trace`: exact schema-v1 events back."""
    events: List[dict] = []
    for entry in document["traceEvents"]:
        if entry.get("ph") != "X":
            continue  # metadata rows carry no span
        payload = entry["args"]["repro"]
        events.append(
            {
                "v": payload["v"],
                "kind": entry["name"],
                "id": payload["id"],
                "parent": payload["parent"],
                "proc": payload["proc"],
                "start": payload["start"],
                "end": payload["end"],
                "dur": payload["dur"],
                "cpu": payload["cpu"],
                "attrs": payload["attrs"],
            }
        )
    return events


# ----------------------------------------------------------------------
# Folded stacks (flamegraph.pl / speedscope input)
# ----------------------------------------------------------------------
def to_folded_stacks(events: Iterable[dict]) -> List[str]:
    """Folded flamegraph lines, one per distinct stack, self-µs weights.

    The stack of a span is ``proc;kind;kind;…`` along its parent
    chain; weights are the span's *self* wall (duration minus direct
    children) in integer microseconds, summed over all spans sharing a
    stack.  Zero-weight stacks are kept — dropping them would make a
    trace with only sub-microsecond leaves export to nothing.
    """
    from repro.obs.analyze import build_forest

    forest = build_forest(events)
    weights: Dict[str, int] = {}

    def descend(node, prefix: str) -> None:
        stack = f"{prefix};{node.event['kind']}"
        weights[stack] = weights.get(stack, 0) + int(
            round(node.self_wall() * 1e6)
        )
        for child in node.children:
            descend(child, stack)

    for root in forest.roots:
        descend(root, root.event["proc"])
    return [
        f"{stack} {weight}" for stack, weight in sorted(weights.items())
    ]
