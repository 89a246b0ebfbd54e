"""Run-to-run determinism on every benchmark-suite circuit.

Each way this repo measures itself compares counts between runs: the
paper tables compare literal counts, and ``benchmarks/e2e/compare.py``
expects every count metric to be identical per seed between two
revisions.  Those comparisons mean something only if one revision, run
twice on the same input, reports the same counts.  These tests pin that
on each suite circuit:

* a serial rerun on a fresh build (BASIC and EXTENDED) reproduces the
  BLIF and every :class:`SubstitutionStats` field except the timings;
* so does a run traced through the streaming sink, whose file holds
  the same bytes as ``export_jsonl`` and reads back with
  ``read_jsonl``;
* an ``n_jobs=2`` BASIC run (on circuits this small the ``"auto"``
  backend runs the speculative protocol in-process) reproduces the
  serial BLIF and every serial counter, except the signature-cache
  tallies that the speculative evaluations add to, and a rerun of it
  reproduces its own ``parallel_*`` counters.
"""

import dataclasses

import pytest

from repro.bench.suite import benchmark_names, build_benchmark
from repro.core.config import BASIC, EXTENDED
from repro.core.substitution import substitute_network
from repro.network.blif import to_blif_str
from repro.obs.tracer import StreamingJsonlSink, Tracer, read_jsonl

CONFIGS = {"basic": BASIC, "ext": EXTENDED}

#: Fields that measure wall or CPU time rather than work.
_TIMINGS = ("cpu_seconds", "parallel_phase_seconds")

#: Serial counters a speculative run legitimately adds to: the
#: signature lookups of the pair evaluations.
_SPECULATION_TALLIES = ("sim_cache_hits", "sim_cache_misses")


def _run(name, config, n_jobs=1, tracer=None):
    """One run on a fresh build: (BLIF, stats fields minus timings)."""
    network = build_benchmark(name)
    stats = substitute_network(network, config, n_jobs=n_jobs, tracer=tracer)
    counters = dataclasses.asdict(stats)
    for field in _TIMINGS:
        counters.pop(field)
    return to_blif_str(network), counters


def _differences(expected, actual, fields):
    return {
        field: (expected[field], actual[field])
        for field in fields
        if expected[field] != actual[field]
    }


@pytest.fixture(scope="module")
def serial_run():
    """``serial_run(name, label)`` -> the first serial run, cached."""
    runs = {}

    def first(name, label):
        if (name, label) not in runs:
            runs[name, label] = _run(name, CONFIGS[label])
        return runs[name, label]

    return first


@pytest.mark.parametrize("label", sorted(CONFIGS))
@pytest.mark.parametrize("name", benchmark_names())
def test_rerun_reproduces_blif_and_counters(name, label, serial_run):
    blif, counters = serial_run(name, label)
    rerun_blif, rerun_counters = _run(name, CONFIGS[label])
    assert rerun_blif == blif
    assert _differences(counters, rerun_counters, counters) == {}


@pytest.mark.parametrize("label", sorted(CONFIGS))
@pytest.mark.parametrize("name", benchmark_names())
def test_traced_run_reproduces_blif_and_counters(
    name, label, serial_run, tmp_path
):
    blif, counters = serial_run(name, label)
    streamed = tmp_path / "streamed.jsonl"
    with StreamingJsonlSink(str(streamed)) as sink:
        tracer = Tracer(sink=sink)
        traced_blif, traced_counters = _run(
            name, CONFIGS[label], tracer=tracer
        )
    assert traced_blif == blif
    assert _differences(counters, traced_counters, counters) == {}
    assert tracer.events and tracer.sink_error is None and sink.error is None
    exported = tmp_path / "exported.jsonl"
    tracer.export_jsonl(str(exported))
    assert streamed.read_bytes() == exported.read_bytes()
    assert read_jsonl(str(streamed)) == tracer.events


@pytest.mark.parametrize("name", benchmark_names())
def test_jobs2_reproduces_serial_run(name, serial_run):
    serial_blif, serial = serial_run(name, "basic")
    blif, counters = _run(name, BASIC, n_jobs=2)
    assert blif == serial_blif
    shared = [
        field
        for field in serial
        if not field.startswith("parallel_")
        and field not in _SPECULATION_TALLIES
    ]
    assert _differences(serial, counters, shared) == {}
    rerun_blif, rerun_counters = _run(name, BASIC, n_jobs=2)
    assert rerun_blif == blif
    assert _differences(counters, rerun_counters, counters) == {}
