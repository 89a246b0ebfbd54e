"""Worker liveness: heartbeat files and the executor stall watchdog.

Two complementary liveness channels, both default-off:

* **Heartbeats.**  Persistent-pool workers mark progress at every
  batch boundary: a ``heartbeat`` instant event on the worker tracer
  (merged into the trace like spans) plus, when a *heartbeat_dir* is
  configured, a small JSON file per worker pid overwritten in place
  (crash-durable — an operator can ``cat`` the directory to see what
  every worker last reported even after the run died).  The shard
  result channel piggybacks the same mark, which is what the
  run's ``heartbeats_recorded`` counter counts.
* **Stall watchdog.**  :class:`StallWatchdog` is the executor-side
  bookkeeping for "a shard has been silent too long": per-shard
  dispatch timestamps, silence measurement, and schema-v1 ``stall``
  event construction.  The executor polls in-flight futures with the
  configured timeout and, when the watchdog flags a shard, feeds it
  into the PR-3 containment ladder (redispatch → fresh pool →
  in-process fallback) instead of blocking forever.

Stall detection is wall-clock-dependent by nature, so its counters
(``heartbeats_recorded``, ``stalls_detected``) may differ between two
runs of the same input.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Optional

from repro.obs.tracer import TRACE_SCHEMA_VERSION

#: Filename suffix of per-worker heartbeat files.
HEARTBEAT_SUFFIX = ".heartbeat.json"

#: proc label of watchdog-authored stall events — its own id space,
#: so watchdog instants never collide with main-tracer span ids.
WATCHDOG_PROC = "watchdog"


def heartbeat_path(directory: str, pid: int) -> str:
    return os.path.join(directory, f"worker-{pid}{HEARTBEAT_SUFFIX}")


def write_heartbeat(
    directory: str,
    pid: int,
    batch: int,
    pairs_done: int,
    generation: int,
    clock: Callable[[], float] = time.time,
) -> Optional[str]:
    """Overwrite this worker's heartbeat file; returns its path.

    Best-effort: any OS error returns ``None`` — liveness reporting
    must never fail a batch.
    """
    record = {
        "v": 1,
        "pid": pid,
        "ts": clock(),
        "batch": batch,
        "pairs_done": pairs_done,
        "generation": generation,
    }
    path = heartbeat_path(directory, pid)
    try:
        os.makedirs(directory, exist_ok=True)
        tmp = f"{path}.tmp.{pid}"
        with open(tmp, "w") as handle:
            json.dump(record, handle, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        return None
    return path


def read_heartbeats(directory: str) -> List[dict]:
    """Parse every heartbeat file in *directory* (unreadable → skipped)."""
    beats: List[dict] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return beats
    for name in names:
        if not name.endswith(HEARTBEAT_SUFFIX):
            continue
        try:
            with open(os.path.join(directory, name)) as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            continue
        if isinstance(record, dict):
            beats.append(record)
    return beats


def stale_workers(
    directory: str,
    threshold_seconds: float,
    now: Optional[float] = None,
) -> List[dict]:
    """Heartbeat records older than *threshold_seconds* (suspect pids)."""
    now = time.time() if now is None else now
    return [
        beat
        for beat in read_heartbeats(directory)
        if now - float(beat.get("ts", 0.0)) > threshold_seconds
    ]


class StallWatchdog:
    """Per-shard silence bookkeeping for the process executor.

    The executor notes every dispatch (:meth:`note_dispatch`) and
    every completion (:meth:`note_result`); when a blocking wait times
    out it asks :meth:`flag_stall` to mint a schema-v1 ``stall`` event
    and bump the counters.  The watchdog holds no threads of its own —
    the executor's existing wait loop *is* the polling loop, with the
    timeout supplying the cadence.
    """

    def __init__(
        self,
        threshold_seconds: float,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if threshold_seconds <= 0:
            raise ValueError(
                f"stall threshold must be positive: {threshold_seconds}"
            )
        self.threshold_seconds = threshold_seconds
        self.stalls_flagged = 0
        self._clock = clock
        self._dispatched_at: Dict[int, float] = {}
        self._next_id = 0

    def note_dispatch(self, shard_index: int) -> None:
        self._dispatched_at[shard_index] = self._clock()

    def note_result(self, shard_index: int) -> None:
        self._dispatched_at.pop(shard_index, None)

    def silence(self, shard_index: int) -> float:
        """Seconds since *shard_index* was dispatched (0 if unknown)."""
        dispatched = self._dispatched_at.get(shard_index)
        if dispatched is None:
            return 0.0
        return max(0.0, self._clock() - dispatched)

    def flag_stall(self, shard_index: int, retries: int = 0) -> dict:
        """Record one stall; returns the ``stall`` trace event."""
        silent = self.silence(shard_index)
        self.stalls_flagged += 1
        now = self._clock()
        span_id = self._next_id
        self._next_id += 1
        return {
            "v": TRACE_SCHEMA_VERSION,
            "kind": "stall",
            "id": span_id,
            "parent": -1,
            "proc": WATCHDOG_PROC,
            "start": now,
            "end": now,
            "dur": 0.0,
            "cpu": 0.0,
            "attrs": {
                "shard": shard_index,
                "silent_seconds": silent,
                "threshold_seconds": self.threshold_seconds,
                "retries": retries,
            },
        }
