"""Trace analytics: span forest, critical path, hot spans.

The tracer (:mod:`repro.obs.tracer`) writes schema-v1 events — flat
JSONL lines with ``(proc, id)`` primary keys and ``parent`` links.
This module turns that flat list back into the tree it came from and
answers the questions the raw data cannot:

* **Where did the time go?**  :func:`critical_path` walks the heaviest
  root-to-leaf chain; :func:`~repro.obs.profile.profile_events` rolls
  wall/CPU/self-wall up per span kind, and
  :func:`aggregate_by_proc_kind` does the same per recording process
  (each proc has its own clock).
* **Which candidates dominate?**  :func:`top_spans` ranks the slowest
  ``pair`` / ``divide`` / ``atpg`` spans with their attrs, so "which
  divisor pairs dominate ATPG backtracks" is one function call.

Everything operates on plain event dicts (from
:func:`~repro.obs.tracer.read_jsonl` or a live
:class:`~repro.obs.tracer.Tracer`'s ``events``) and returns JSON-ready
structures; :func:`format_report` renders the full
:func:`analyze_trace` bundle as the text behind ``repro trace
report``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs.profile import profile_events

#: Span kinds ranked by default in the hot-span report.
DEFAULT_TOP_KINDS = ("pair", "divide", "atpg")


class SpanNode:
    """One event plus its resolved tree links."""

    __slots__ = ("event", "children")

    def __init__(self, event: dict):
        self.event = event
        self.children: List["SpanNode"] = []

    @property
    def key(self) -> Tuple[str, int]:
        return (self.event["proc"], self.event["id"])

    @property
    def dur(self) -> float:
        return self.event["dur"]

    def self_wall(self) -> float:
        """Wall time not covered by direct children."""
        return max(0.0, self.dur - sum(c.dur for c in self.children))


class SpanForest:
    """The reconstructed span trees of one trace.

    Parent links only resolve within one ``proc`` (span ids are
    per-tracer); a span whose parent id is ``-1`` — or references an
    id its own proc never recorded, as in a trace cut short before its
    enclosing spans closed — is a root.
    """

    def __init__(self, events: Iterable[dict]):
        self.nodes: Dict[Tuple[str, int], SpanNode] = {}
        self.roots: List[SpanNode] = []
        events = list(events)
        for event in events:
            node = SpanNode(event)
            if node.key in self.nodes:
                raise ValueError(
                    f"duplicate span key {node.key} in trace"
                )
            self.nodes[node.key] = node
        for node in self.nodes.values():
            parent_key = (node.event["proc"], node.event["parent"])
            parent = self.nodes.get(parent_key)
            if node.event["parent"] < 0 or parent is None:
                self.roots.append(node)
            else:
                parent.children.append(node)
        # Deterministic order: children by start time, roots by
        # (proc, start) so reports are stable across dict ordering.
        for node in self.nodes.values():
            node.children.sort(key=lambda n: n.event["start"])
        self.roots.sort(key=lambda n: (n.event["proc"], n.event["start"]))

    def procs(self) -> List[str]:
        return sorted({node.event["proc"] for node in self.nodes.values()})


def build_forest(events: Iterable[dict]) -> SpanForest:
    """Reconstruct the span forest of a trace."""
    return SpanForest(events)


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
def critical_path(forest: SpanForest) -> List[dict]:
    """The heaviest root-to-leaf chain, as event dicts (root first).

    Starts from the longest root span (across all procs — in practice
    the main process's ``run`` span) and greedily descends into the
    longest direct child.  Because spans nest strictly within their
    parent's interval on one proc's clock, every step's duration is
    bounded by the step above it, so the chain reads as "the run spent
    most of its time in this pass, which spent most of its time in
    this pair, …".
    """
    if not forest.roots:
        return []
    node = max(forest.roots, key=lambda n: n.dur)
    path = [node.event]
    while node.children:
        node = max(node.children, key=lambda n: n.dur)
        path.append(node.event)
    return path


# ----------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------
def aggregate_by_proc_kind(
    forest: SpanForest,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per-proc rollup: ``{proc: {kind: {count, wall, cpu, self_wall}}}``,
    :func:`~repro.obs.profile.profile_events` over each proc's spans."""
    by_proc: Dict[str, List[dict]] = {}
    for node in forest.nodes.values():
        by_proc.setdefault(node.event["proc"], []).append(node.event)
    return {proc: profile_events(events) for proc, events in by_proc.items()}


def top_spans(
    forest: SpanForest,
    kinds: Sequence[str] = DEFAULT_TOP_KINDS,
    n: int = 10,
) -> Dict[str, List[dict]]:
    """The *n* longest spans of each requested kind, attrs included.

    Each entry is a compact JSON-ready dict (``proc``/``id``/``dur``/
    ``cpu``/``attrs``) sorted by descending duration — the "which
    divisor pairs dominate" view.
    """
    ranked: Dict[str, List[dict]] = {}
    for kind in kinds:
        matching = [
            node.event
            for node in forest.nodes.values()
            if node.event["kind"] == kind
        ]
        matching.sort(key=lambda e: (-e["dur"], e["proc"], e["id"]))
        ranked[kind] = [
            {
                "proc": e["proc"],
                "id": e["id"],
                "dur": e["dur"],
                "cpu": e["cpu"],
                "attrs": e["attrs"],
            }
            for e in matching[:n]
        ]
    return ranked


# ----------------------------------------------------------------------
# The full bundle and its text rendering
# ----------------------------------------------------------------------
def analyze_trace(
    events: Iterable[dict],
    top_kinds: Sequence[str] = DEFAULT_TOP_KINDS,
    top_n: int = 10,
) -> Dict[str, object]:
    """Everything ``repro trace report`` shows, as one JSON-ready dict."""
    events = list(events)
    forest = build_forest(events)
    return {
        "spans": len(forest.nodes),
        "procs": forest.procs(),
        "critical_path": critical_path(forest),
        "by_kind": profile_events(events),
        "by_proc_kind": aggregate_by_proc_kind(forest),
        "top_spans": top_spans(forest, kinds=top_kinds, n=top_n),
    }


def _format_attrs(attrs: dict, limit: int = 4) -> str:
    parts = [f"{k}={v!r}" for k, v in list(attrs.items())[:limit]]
    if len(attrs) > limit:
        parts.append("…")
    return " ".join(parts)


def format_report(analysis: Dict[str, object]) -> str:
    """Human-readable rendering of an :func:`analyze_trace` bundle."""
    lines: List[str] = []
    lines.append(
        f"trace: {analysis['spans']} spans across "
        f"{len(analysis['procs'])} proc(s) "
        f"({', '.join(analysis['procs'])})"
    )

    lines.append("")
    lines.append("critical path (heaviest root-to-leaf chain):")
    path = analysis["critical_path"]
    if not path:
        lines.append("  (empty trace)")
    for depth, event in enumerate(path):
        lines.append(
            f"  {'  ' * depth}{event['kind']:<12}"
            f"{event['dur'] * 1e3:>10.3f} ms  "
            f"{_format_attrs(event['attrs'])}"
        )

    lines.append("")
    lines.append("per-kind rollup:")
    header = (
        f"  {'kind':<14}{'count':>8}{'wall(s)':>10}"
        f"{'self(s)':>10}{'cpu(s)':>10}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    by_kind = analysis["by_kind"]
    for kind in sorted(by_kind, key=lambda k: -by_kind[k]["self_wall"]):
        row = by_kind[kind]
        lines.append(
            f"  {kind:<14}{row['count']:>8}{row['wall']:>10.3f}"
            f"{row['self_wall']:>10.3f}{row['cpu']:>10.3f}"
        )

    top = analysis["top_spans"]
    for kind, entries in top.items():
        if not entries:
            continue
        lines.append("")
        lines.append(f"slowest {kind} spans:")
        for entry in entries:
            lines.append(
                f"  {entry['dur'] * 1e3:>10.3f} ms  "
                f"[{entry['proc']}:{entry['id']}]  "
                f"{_format_attrs(entry['attrs'])}"
            )
    return "\n".join(lines)
