"""Smoke benchmark: disabled tracing costs < 2% (``bench_smoke``).

Wall-clock A/B timing of one run cannot resolve a sub-percent delta
over OS noise, so the overhead is bounded analytically instead: the
span count of an enabled run times the measured per-event cost of the
disabled path (one ``NULL_TRACER.span()`` entry/exit), over the
disabled run's wall time.  The disabled and enabled runs must also
produce byte-identical output.

Process warm-up is paid by whichever arm runs first, so the rnd8 runs
alternate the arm order over three repeats and take the minimum wall
per arm.
"""

import sys
import time
import timeit

import pytest

from repro.bench.suite import build_benchmark
from repro.core.config import EXTENDED
from repro.core.substitution import substitute_network
from repro.network.blif import to_blif_str
from repro.obs.tracer import NULL_TRACER, StreamingJsonlSink, Tracer

pytestmark = [
    pytest.mark.bench_smoke,
    pytest.mark.skipif(
        sys.gettrace() is not None,
        reason="timing benchmark is meaningless under a settrace collector "
        "(coverage gate); run it in a plain tier-1 pass",
    ),
]

#: Disabled tracing must cost < 2% of the disabled run's wall time.
OVERHEAD_BOUND = 0.02

_SAMPLE_EVENT = {
    "v": 1,
    "kind": "pair",
    "id": 1234,
    "parent": 7,
    "proc": "main",
    "start": 0.123456,
    "end": 0.234567,
    "dur": 0.111111,
    "cpu": 0.1,
    "attrs": {"fanin": "a", "divisor": "b", "pruned": False},
}


def _median_per_call(timer, iterations):
    samples = sorted(timer.timeit(iterations) / iterations for _ in range(5))
    return samples[len(samples) // 2]


def null_span_cost(iterations):
    """Seconds per disabled-span entry/exit (median of 5 repeats)."""
    timer = timeit.Timer(
        "with tracer.span('pair', f='a', d='b') as s:\n"
        "    s.annotate(pruned=False)",
        globals={"tracer": NULL_TRACER},
    )
    return _median_per_call(timer, iterations)


def sink_event_cost(sink, iterations):
    """Seconds per event through *sink* (median of 5 repeats)."""
    timer = timeit.Timer(
        "sink(event)", globals={"sink": sink, "event": _SAMPLE_EVENT}
    )
    return _median_per_call(timer, iterations)


def _timed_run(tracer):
    network = build_benchmark("rnd8")
    start = time.perf_counter()
    substitute_network(network, EXTENDED, tracer=tracer)
    return time.perf_counter() - start, to_blif_str(network)


def test_disabled_tracer_overhead_under_bound_on_rnd8():
    disabled_walls, enabled_walls = [], []
    for repeat in range(3):
        blifs = {}
        order = ("disabled", "enabled")
        for arm in order if repeat % 2 == 0 else order[::-1]:
            if arm == "disabled":
                wall, blifs[arm] = _timed_run(None)
                disabled_walls.append(wall)
            else:
                tracer = Tracer()
                wall, blifs[arm] = _timed_run(tracer)
                enabled_walls.append(wall)
        assert blifs["disabled"] == blifs["enabled"]
    spans = len(tracer.events)
    assert spans > 0
    disabled_wall = min(disabled_walls)
    bound = spans * null_span_cost(200_000) / disabled_wall
    assert bound < OVERHEAD_BOUND, (
        f"disabled tracing bound {bound:.4%} exceeds {OVERHEAD_BOUND:.0%}"
    )


def test_streaming_event_cost_is_bounded(tmp_path):
    # Informational bound on the sink: serialization plus a flushed
    # line.  Not overhead relative to a write-at-end export (same
    # bytes, paid earlier) — this guards against a regression to e.g.
    # re-serializing or fsyncing per event.
    with StreamingJsonlSink(str(tmp_path / "events.jsonl")) as sink:
        assert sink_event_cost(sink, 5_000) < 1e-4


def test_null_span_is_submicrosecond():
    # The whole design rests on the disabled span being ~free; a
    # regression to e.g. dict allocation per span would show up here
    # long before it moved a wall-clock benchmark.
    assert null_span_cost(50_000) < 2e-6
