"""Smoke benchmark for the speculative parallel engine (``bench_smoke``).

Runs in the tier-1 suite too (it is fast), but the marker lets CI pick
just the performance smokes: ``pytest -m bench_smoke``.  Checks output
parity, protocol wire accounting (from :class:`SubstitutionStats`),
and the protocol-overhead ceiling.

Two machine-gated performance assertions:

* **1-core protocol-cost ceiling** — with the ``"auto"`` backend the
  engine runs the full speculative protocol in-process (a pool cannot
  help without a second core), and its overhead over a plain serial
  run must stay within 1.15x.  Measured as a geomean across circuits
  of the median jobs2/serial ratio over N back-to-back pairs: the
  wall-clock noise between *identical* consecutive runs exceeds the
  margin being asserted, so single-shot single-circuit timing would be
  meaningless.  The noise is bimodal (on a shared 2-vCPU host
  identical rnd8 runs take 125-295 ms, the fastest ones rare), so a
  best-of-N per arm is not robust either: one rare fast serial run
  sets the serial minimum and inflates the ratio.  Pairing the two
  arms in time cancels the machine's state, and the median drops the
  pairs it changed within.
* **multi-core speedup** — with >= 4 cores the pool must actually beat
  serial at ``jobs4`` (>1.0x).
"""

import math
import os
import statistics
import time

import pytest

from repro.bench.suite import build_benchmark
from repro.core.config import BASIC
from repro.core.substitution import substitute_network
from repro.network.blif import to_blif_str


def _run(name, n_jobs=1):
    """One BASIC run on a fresh build: (BLIF, stats, wall seconds)."""
    network = build_benchmark(name)
    start = time.perf_counter()
    stats = substitute_network(network, BASIC, n_jobs=n_jobs)
    seconds = time.perf_counter() - start
    return to_blif_str(network), stats, seconds


@pytest.mark.bench_smoke
@pytest.mark.usefixtures("pool_for_every_run")
def test_parallel_parity_on_rnd8():
    serial_blif, serial, serial_s = _run("rnd8")
    parallel_blif, parallel, parallel_s = _run("rnd8", n_jobs=4)
    assert parallel_blif == serial_blif
    assert parallel.accepted == serial.accepted
    assert parallel.parallel_pairs_evaluated > 0
    assert parallel.parallel_jobs == 4
    if (os.cpu_count() or 1) >= 4:
        assert serial_s / parallel_s > 1.0


@pytest.mark.bench_smoke
def test_jobs2_protocol_overhead_within_ceiling():
    """jobs2 wall time stays within 1.15x of serial on one core."""
    circuits = ("rnd8", "add10", "pri10")
    pairs = 9
    paired = {name: [] for name in circuits}
    for _ in range(pairs):
        for name in circuits:
            serial_blif, _, serial_s = _run(name)
            parallel_blif, _, parallel_s = _run(name, n_jobs=2)
            assert parallel_blif == serial_blif
            paired[name].append(parallel_s / max(1e-9, serial_s))
    ratios = {name: statistics.median(r) for name, r in paired.items()}
    geomean = math.exp(
        sum(math.log(r) for r in ratios.values()) / len(ratios)
    )
    assert geomean <= 1.15, f"protocol overhead {geomean:.3f}x: {ratios}"


@pytest.mark.bench_smoke
@pytest.mark.usefixtures("pool_for_every_run")
def test_per_batch_wire_cost_is_amortized():
    """The persistent pool ships the snapshot once per run; the
    batch-scoped protocol it replaced paid the full snapshot for every
    batch.  The amortized snapshot-ship cost per batch must therefore
    be >= 10x smaller, and a shard's own payload (pair list +
    cumulative delta) must stay below one snapshot."""
    _, stats, _ = _run("rnd8", n_jobs=2)
    batches = stats.parallel_batches
    snapshot = stats.parallel_snapshot_bytes
    assert batches > 0
    assert snapshot > 0
    assert snapshot / batches * 10 <= snapshot, (
        f"snapshot ship amortized to {snapshot / batches:.0f}B"
        f"/batch vs {snapshot}B re-shipped per batch before"
    )
    per_batch = stats.parallel_batch_bytes / batches
    assert per_batch < snapshot, (
        f"per-batch wire cost {per_batch:.0f}B vs snapshot {snapshot}B"
    )
    # Per-phase accounting rides with every parallel run.
    assert "snapshot_ship" in stats.parallel_phase_seconds
    assert "evaluate" in stats.parallel_phase_seconds
