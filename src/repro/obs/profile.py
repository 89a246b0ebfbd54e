"""Per-phase wall/CPU rollups over a trace.

Answers "where did the time go" for one run: aggregate a tracer's
events by span kind into count / wall / CPU totals, plus *self* wall
time (wall minus the wall time of direct children, so nested phases —
``divide`` inside ``pair`` inside ``pass`` — don't triple-bill the
same seconds when read as a breakdown).

Self time is computed within one ``proc`` clock domain only; worker
events merged into a main-process trace roll up independently, which
is the honest reading — a worker's ``divide`` seconds did not elapse
on the main process's critical path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

#: Presentation order for the rollup table; kinds outside this list
#: (or future additions) sort after, alphabetically.
PROFILE_PHASES = (
    "run",
    "pass",
    "enumerate",
    "speculate",
    "worker_batch",
    "pair",
    "vote",
    "divide",
    "atpg",
    "sat_solve",
    "commit",
    "verify",
    "resub_window",
    "resub_resyn",
    "resub_validate",
    "shm_publish",
    "delta_ship",
    "delta_apply",
    "stall",
)


def profile_events(events: Iterable[dict]) -> Dict[str, Dict[str, object]]:
    """Aggregate events by kind.

    Returns ``{kind: {"count", "wall", "cpu", "self_wall"}}`` with
    times in seconds.
    """
    events = list(events)
    rollup: Dict[str, Dict[str, float]] = {}
    # Direct-children wall per (proc, parent id), for self time.
    child_wall: Dict[tuple, float] = {}
    for event in events:
        child_wall[(event["proc"], event["parent"])] = (
            child_wall.get((event["proc"], event["parent"]), 0.0)
            + event["dur"]
        )
    for event in events:
        row = rollup.setdefault(
            event["kind"],
            {"count": 0, "wall": 0.0, "cpu": 0.0, "self_wall": 0.0},
        )
        row["count"] += 1
        row["wall"] += event["dur"]
        row["cpu"] += event["cpu"]
        children = child_wall.get((event["proc"], event["id"]), 0.0)
        row["self_wall"] += max(0.0, event["dur"] - children)
    return rollup


def profile_tracer(tracer) -> Dict[str, Dict[str, object]]:
    """Rollup of everything *tracer* has recorded (absorbed included)."""
    return profile_events(tracer.events)


def _phase_order(kind: str) -> tuple:
    try:
        return (0, PROFILE_PHASES.index(kind))
    except ValueError:
        return (1, kind)


def format_profile(rollup: Dict[str, Dict[str, object]]) -> str:
    """Fixed-width table of a rollup, one phase per row."""
    header = f"{'phase':<14}{'count':>8}{'wall(s)':>10}{'self(s)':>10}{'cpu(s)':>10}"
    lines: List[str] = [header, "-" * len(header)]
    for kind in sorted(rollup, key=_phase_order):
        row = rollup[kind]
        lines.append(
            f"{kind:<14}{row['count']:>8}"
            f"{row['wall']:>10.3f}{row['self_wall']:>10.3f}"
            f"{row['cpu']:>10.3f}"
        )
    return "\n".join(lines)
