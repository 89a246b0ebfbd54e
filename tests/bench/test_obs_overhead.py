"""Smoke benchmark: disabled tracing costs < 2% (``bench_smoke``).

Writes its report and history record under ``tmp_path`` and asserts
the analytic overhead bound (span count × measured null-span cost, over
the disabled run's wall time) stays under the 2% acceptance criterion,
plus byte-identical output between disabled and enabled runs.
"""

import json
import sys

import pytest

pytestmark = pytest.mark.skipif(
    sys.gettrace() is not None,
    reason="timing benchmark is meaningless under a settrace collector "
    "(coverage gate); run it in a plain tier-1 pass",
)

from repro.bench.obsbench import (
    LIVE_OVERHEAD_BOUND,
    OVERHEAD_BOUND,
    bus_event_cost,
    null_span_cost,
    run_obs_overhead_benchmark,
    streaming_event_cost,
)


@pytest.mark.bench_smoke
def test_disabled_tracer_overhead_under_bound_on_rnd8(tmp_path):
    result_path = tmp_path / "BENCH_obs_overhead.json"
    report = run_obs_overhead_benchmark(
        circuits=("rnd8",),
        result_path=result_path,
        history_path=tmp_path / "history.jsonl",
    )
    assert report["all_outputs_identical"]
    assert report["max_overhead_bound"] < OVERHEAD_BOUND, (
        f"disabled tracing bound {report['max_overhead_bound']:.4%} "
        f"exceeds {OVERHEAD_BOUND:.0%}"
    )
    assert report["max_live_overhead_bound"] < LIVE_OVERHEAD_BOUND, (
        f"enabled-bus bound {report['max_live_overhead_bound']:.4%} "
        f"exceeds {LIVE_OVERHEAD_BOUND:.0%}"
    )
    on_disk = json.loads(result_path.read_text())
    assert on_disk["benchmark"] == "obs_overhead"
    row = on_disk["circuits"][0]
    assert row["circuit"] == "rnd8"
    assert row["spans"] > 0
    assert row["disabled_wall_seconds"] > 0
    assert row["bus_event_cost_ns"] > 0
    assert row["streaming_event_cost_ns"] > 0


@pytest.mark.bench_smoke
def test_bus_event_cost_is_micro():
    # The --live bus path (fan-out + progress fold) rides every span;
    # keep it a few microseconds so thousands of spans stay invisible
    # next to a sub-second run.
    assert bus_event_cost(iterations=5_000) < 1e-5


@pytest.mark.bench_smoke
def test_streaming_event_cost_is_bounded():
    # Informational bound on the sink: serialization plus a flushed
    # line.  Not overhead relative to the old write-at-end export
    # (same bytes, paid earlier) — this guards against a regression
    # to e.g. re-serializing or fsyncing per event.
    assert streaming_event_cost(iterations=5_000) < 1e-4


@pytest.mark.bench_smoke
def test_null_span_is_submicrosecond():
    # The whole design rests on the disabled span being ~free; a
    # regression to e.g. dict allocation per span would show up here
    # long before it moved a wall-clock benchmark.
    assert null_span_cost(iterations=50_000) < 2e-6
