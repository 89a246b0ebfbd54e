"""Disabled-tracer parity: tracing must be a pure observer.

The load-bearing guarantee of :mod:`repro.obs` is that instrumentation
never influences the optimization: with tracing *disabled* (the
default) a run is byte-identical to a pre-obs run, and with tracing
*enabled* the optimized network and every substitution counter are
still identical — only the side-channel (the trace) differs.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BASIC, EXTENDED
from repro.core.substitution import SubstitutionStats, substitute_network
from repro.network.blif import to_blif_str
from repro.obs.tracer import Tracer

from tests.conftest import random_network

pytestmark = pytest.mark.trace


def _comparable(stats: SubstitutionStats) -> dict:
    """Stats minus environment noise (timings)."""
    data = dataclasses.asdict(stats)
    data.pop("cpu_seconds")
    report = data.get("budget_report")
    if report is not None:
        report.pop("elapsed_seconds", None)
    return data


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_traced_run_output_and_stats_identical(seed):
    plain_net = random_network(seed, n_pis=4, n_nodes=6)
    traced_net = random_network(seed, n_pis=4, n_nodes=6)
    plain_stats = substitute_network(plain_net, EXTENDED)
    tracer = Tracer()
    traced_stats = substitute_network(traced_net, EXTENDED, tracer=tracer)
    assert to_blif_str(traced_net) == to_blif_str(plain_net)
    assert _comparable(traced_stats) == _comparable(plain_stats)
    assert tracer.events, "enabled tracer recorded nothing"


def test_traced_run_identical_to_untraced():
    plain_net = random_network(99, n_pis=5, n_nodes=8)
    traced_net = random_network(99, n_pis=5, n_nodes=8)
    substitute_network(plain_net, EXTENDED)
    tracer = Tracer()
    substitute_network(traced_net, EXTENDED, tracer=tracer)
    assert to_blif_str(traced_net) == to_blif_str(plain_net)


def test_null_tracer_equivalent_to_no_tracer():
    from repro.obs.tracer import NULL_TRACER

    net_a = random_network(7, n_pis=4, n_nodes=6)
    net_b = random_network(7, n_pis=4, n_nodes=6)
    stats_a = substitute_network(net_a, BASIC)
    stats_b = substitute_network(net_b, BASIC, tracer=NULL_TRACER)
    assert to_blif_str(net_a) == to_blif_str(net_b)
    assert _comparable(stats_a) == _comparable(stats_b)


def test_golden_blif_unchanged_with_and_without_trace(tmp_path):
    """The committed golden is still what a traced run produces."""
    import pathlib

    from repro.cli import main

    golden_dir = pathlib.Path(__file__).parent.parent / "golden"
    golden = (golden_dir / "serial_ext.blif").read_text()
    out = tmp_path / "out.blif"
    trace = tmp_path / "t.jsonl"
    code = main(
        [
            "optimize",
            str(golden_dir / "input.blif"),
            "--method",
            "ext",
            "--script",
            "A",
            "-o",
            str(out),
            "--trace",
            str(trace),
        ]
    )
    assert code == 0
    assert out.read_text() == golden
