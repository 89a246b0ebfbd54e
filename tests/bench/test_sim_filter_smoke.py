"""Smoke benchmark for the signature filter (``-m bench_smoke``).

Runs in the tier-1 suite too (it is fast), but the marker lets CI pick
just the performance smokes: ``pytest -m bench_smoke``.  Checks the
ISSUE acceptance criteria on a mid-size circuit: byte-identical result,
at least 2x fewer ``boolean_divide`` invocations, and a JSON report on
disk.
"""

import json

import pytest

from repro.bench.simbench import (
    DEFAULT_RESULT_PATH,
    compare_on,
    run_sim_filter_benchmark,
)
from repro.bench.suite import build_benchmark
from repro.core.config import BASIC


@pytest.mark.bench_smoke
def test_sim_filter_speedup_on_rnd8(tmp_path):
    comparison = compare_on(build_benchmark("rnd8"), BASIC)
    assert comparison["literal_parity"]
    assert comparison["divide_call_ratio"] >= 2.0
    assert (
        comparison["filtered"]["divisors_pruned"]
        + comparison["filtered"]["variants_pruned"]
        > 0
    )


@pytest.mark.bench_smoke
def test_benchmark_report_written(tmp_path):
    out = tmp_path / "BENCH_sim_filter.json"
    report = run_sim_filter_benchmark(
        ["rnd1", "rnd3"], BASIC, out,
        history_path=tmp_path / "history.jsonl",
    )
    assert out.exists()
    on_disk = json.loads(out.read_text())
    assert on_disk["all_literal_parity"] is True
    assert on_disk["circuits"][0]["circuit"] == "rnd1"
    assert report["mean_divide_call_ratio"] > 1.0


@pytest.mark.bench_smoke
def test_default_result_path_is_in_benchmarks_results():
    assert DEFAULT_RESULT_PATH.name == "BENCH_sim_filter.json"
    assert DEFAULT_RESULT_PATH.parent.name == "results"
    assert DEFAULT_RESULT_PATH.parent.parent.name == "benchmarks"
