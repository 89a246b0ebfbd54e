"""Structured tracing: nestable spans with JSONL export and streaming.

A :class:`Tracer` records *spans* — named, nestable intervals with
wall and CPU durations plus free-form attributes.  Every span becomes
one JSON-ready event dict appended to :attr:`Tracer.events` when it
closes, so a trace is just a list of dicts and exporting it is one
``json.dumps`` per line.

Design constraints (these are load-bearing for the rest of the repo):

* **Disabled tracing must be free.**  :data:`NULL_TRACER` is the
  default everywhere; its :meth:`~NullTracer.span` returns a shared
  singleton whose ``__enter__``/``__exit__`` do nothing — no clock
  reads, no allocation — so instrumented code paths cost a single
  attribute call per span when tracing is off and produce
  byte-identical results (the tracer never influences control flow).
* **Injectable clocks.**  Wall and CPU clocks are constructor
  arguments so span timing is unit-testable without sleeping.
* **Process labels.**  Span ids are only unique per tracer; each
  event carries the tracer's ``proc`` label, so ``(proc, id)`` is the
  key of a span even in a trace file that concatenates several
  tracers' events.  Timestamps are comparable *within* a proc, not
  across procs; durations are always meaningful.
* **Crash-durable traces.**  :class:`StreamingJsonlSink` writes each
  event to disk the moment it is recorded, so a killed run still
  leaves a trace that ``read_jsonl(path, tolerant=True)`` parses.

Event schema (one JSONL line per span; see
:func:`validate_trace_event`)::

    {"v": 1, "kind": "divide", "id": 17, "parent": 4, "proc": "main",
     "start": 0.1042, "end": 0.1163, "dur": 0.0121, "cpu": 0.0119,
     "attrs": {"f": "n3", "d": "n1", "form": "sop"}}
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, IO, List, Optional, Union

#: Bumped when an event's required fields change.
TRACE_SCHEMA_VERSION = 1

#: Span kinds the pipeline emits, in the profile table's row order.
#: ``validate_trace_event`` accepts unknown kinds (forward
#: compatibility) but the profile rollup and the schema tests key off
#: this tuple.
SPAN_KINDS = (
    "run",             # one substitute_network call
    "pass",            # one sweep over the network
    "enumerate",       # candidate-divisor enumeration for one dividend
    "pair",            # one (dividend, divisor) candidate
    "vote",            # extended division: vote table + core choice
    "divide",          # one boolean_divide invocation
    "atpg",            # one redundancy-removal loop (region or generic)
    "sat_solve",       # one CDCL solve (equivalence or fault miter)
    "commit",          # apply + accept bookkeeping of one rewrite
    "verify",          # an equivalence check (ledger, oracle or final)
    "resub_window",    # simguided: divisor window for one target
    "resub_care",      # simguided: ODC care mask for one target
    "resub_resyn",     # simguided: subset enumeration + resynthesis
    "resub_validate",  # simguided: exact check of one candidate
)

_REQUIRED_FIELDS = ("v", "kind", "id", "parent", "proc", "start", "end",
                    "dur", "cpu", "attrs")


class _NullSpan:
    """Shared do-nothing span; the whole cost of disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op."""

    __slots__ = ()

    enabled = False
    proc = "null"

    @property
    def events(self) -> List[dict]:
        return []

    def span(self, kind: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def export_jsonl(self, destination) -> None:
        pass


#: Module-level singleton used as the default tracer everywhere.
NULL_TRACER = NullTracer()


def as_tracer(tracer: Optional[object]):
    """Normalize an optional tracer argument (``None`` → disabled)."""
    return NULL_TRACER if tracer is None else tracer


class Span:
    """One open interval; records an event dict on exit."""

    __slots__ = ("_tracer", "kind", "span_id", "parent_id", "attrs",
                 "_t0", "_c0")

    def __init__(self, tracer: "Tracer", kind: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self.kind = kind
        self.attrs = attrs
        self.span_id = -1
        self.parent_id = -1
        self._t0 = 0.0
        self._c0 = 0.0

    def annotate(self, **attrs) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.span_id = tracer._next_id
        tracer._next_id += 1
        stack = tracer._stack
        self.parent_id = stack[-1] if stack else -1
        stack.append(self.span_id)
        self._t0 = tracer._clock()
        self._c0 = tracer._cpu_clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        t1 = tracer._clock()
        c1 = tracer._cpu_clock()
        tracer._stack.pop()
        if exc_type is not None:
            # A span cut short by an unwinding exception (e.g. a
            # budget stop) is still a closed interval; mark it so
            # profiles can tell truncated phases apart.
            self.attrs.setdefault("aborted", exc_type.__name__)
        tracer._emit(
            {
                "v": TRACE_SCHEMA_VERSION,
                "kind": self.kind,
                "id": self.span_id,
                "parent": self.parent_id,
                "proc": tracer.proc,
                "start": self._t0,
                "end": t1,
                "dur": t1 - self._t0,
                "cpu": c1 - self._c0,
                "attrs": self.attrs,
            }
        )
        return False


class Tracer:
    """An enabled tracer: records spans into :attr:`events`.

    *clock* / *cpu_clock* are injectable for tests (defaults:
    :func:`time.perf_counter` / :func:`time.process_time`).  *proc*
    labels every event this tracer records.

    *sink*, when set, is called with every event dict the moment it is
    recorded (on span close) — the hook
    :class:`StreamingJsonlSink` hangs off.  A sink must never affect
    the run: the first exception it raises detaches it (recorded in
    :attr:`sink_error`) and recording continues.
    """

    __slots__ = ("events", "proc", "_clock", "_cpu_clock", "_next_id",
                 "_stack", "_sink", "sink_error")

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.process_time,
        proc: str = "main",
        sink: Optional[Callable[[dict], None]] = None,
    ):
        self.events: List[dict] = []
        self.proc = proc
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._next_id = 0
        self._stack: List[int] = []
        self._sink = sink
        self.sink_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, kind: str, **attrs) -> Span:
        """A context manager timing one *kind* interval."""
        return Span(self, kind, attrs)

    def _emit(self, event: dict) -> None:
        self.events.append(event)
        sink = self._sink
        if sink is not None:
            try:
                sink(event)
            except Exception as exc:  # sinks must never break the run
                self._sink = None
                self.sink_error = exc

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_jsonl(self, destination: Union[str, IO[str]]) -> None:
        """Write one JSON object per line to a path or file object."""
        if hasattr(destination, "write"):
            self._write(destination)
        else:
            with open(destination, "w") as handle:
                self._write(handle)

    def _write(self, handle: IO[str]) -> None:
        for event in self.events:
            handle.write(_jsonl_line(event))


def _jsonl_line(event: dict) -> str:
    """One event's trace line, as both writers serialize it."""
    return json.dumps(event, sort_keys=True) + "\n"


class StreamingJsonlSink:
    """Crash-durable JSONL trace writer; a :class:`Tracer` sink.

    Opens *path* at once, so an unwritable path raises ``OSError``
    before the run starts, then writes and flushes one line per event:
    the same bytes, in the same order, that :meth:`Tracer.export_jsonl`
    writes at the end of a run.  A ``kill -9`` loses only the spans
    still open.  :meth:`close` never raises; a failed final flush is
    kept in :attr:`error`, as the tracer keeps a failed write in
    ``sink_error``.
    """

    def __init__(self, path: str):
        self.path = path
        self.events_written = 0
        self.error: Optional[OSError] = None
        self._handle: Optional[IO[str]] = open(path, "w")

    def __call__(self, event: dict) -> None:
        handle = self._handle
        if handle is None:
            return
        handle.write(_jsonl_line(event))
        handle.flush()
        self.events_written += 1

    @property
    def closed(self) -> bool:
        return self._handle is None

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is None:
            return
        try:
            handle.close()
        except OSError as exc:
            self.error = exc

    def __enter__(self) -> "StreamingJsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


# ----------------------------------------------------------------------
# Schema validation and reading (used by tests and tooling)
# ----------------------------------------------------------------------
def validate_trace_event(event: dict) -> None:
    """Raise ``ValueError`` unless *event* matches the trace schema."""
    if not isinstance(event, dict):
        raise ValueError(f"event must be a dict, got {type(event).__name__}")
    missing = [f for f in _REQUIRED_FIELDS if f not in event]
    if missing:
        raise ValueError(f"event missing fields {missing}: {event!r}")
    if event["v"] != TRACE_SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {event['v']!r}")
    if not isinstance(event["kind"], str) or not event["kind"]:
        raise ValueError(f"bad kind {event['kind']!r}")
    if not isinstance(event["id"], int) or event["id"] < 0:
        raise ValueError(f"bad span id {event['id']!r}")
    if not isinstance(event["parent"], int) or event["parent"] < -1:
        raise ValueError(f"bad parent id {event['parent']!r}")
    if not isinstance(event["proc"], str) or not event["proc"]:
        raise ValueError(f"bad proc label {event['proc']!r}")
    for field in ("start", "end", "dur", "cpu"):
        if not isinstance(event[field], (int, float)):
            raise ValueError(f"non-numeric {field}: {event[field]!r}")
    if event["end"] < event["start"]:
        raise ValueError("span ends before it starts")
    if event["dur"] < 0 or event["cpu"] < 0:
        raise ValueError("negative duration")
    if not isinstance(event["attrs"], dict):
        raise ValueError(f"attrs must be a dict: {event['attrs']!r}")


def read_jsonl(
    path,
    tolerant: bool = False,
    on_warning: Optional[Callable[[str], None]] = None,
) -> List[dict]:
    """Load and validate a trace file; returns the event dicts.

    With ``tolerant=True`` a malformed **final** line — the normal
    end-state of a streaming trace whose writer was killed mid-write —
    is dropped with a warning (via *on_warning*) instead of raising.
    Malformed lines anywhere else still raise: they mean corruption,
    not truncation.
    """
    events: List[dict] = []
    with open(path) as handle:
        lines = handle.readlines()
    last_nonempty = 0
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            last_nonempty = lineno
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
            validate_trace_event(event)
        except (json.JSONDecodeError, ValueError) as exc:
            if tolerant and lineno == last_nonempty:
                if on_warning is not None:
                    on_warning(
                        f"{path}:{lineno}: dropping truncated trailing "
                        f"line ({exc})"
                    )
                break
            kind = "not JSON" if isinstance(exc, json.JSONDecodeError) else ""
            prefix = f"{path}:{lineno}: "
            msg = f"{prefix}not JSON: {exc}" if kind else f"{prefix}{exc}"
            raise ValueError(msg) from exc
        events.append(event)
    return events
