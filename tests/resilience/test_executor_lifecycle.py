"""Executor lifecycle: context managers, shutdown, no leaked pools."""

import pytest

from repro.bench.generators import planted_network
from repro.bench.suite import build_benchmark
from repro.core.config import BASIC
from repro.parallel.engine import enumerate_candidate_pairs, shard_pairs
from repro.parallel import executor as executor_module
from repro.parallel.executor import (
    AUTO_POOL_MIN_PAIRS,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
    resolve_backend,
)
from repro.parallel.worker import make_payload
from repro.resilience import inject


def _payload():
    network = planted_network(
        "exec", seed=99, n_pis=7, n_divisors=3, n_targets=4
    )
    return make_payload(network, BASIC, None), network


class TestSerialExecutor:
    def test_context_manager_closes(self):
        payload, _ = _payload()
        with SerialExecutor(payload) as executor:
            assert executor._context is not None
        assert executor._context is None

    def test_close_on_error_path(self):
        payload, _ = _payload()
        with pytest.raises(RuntimeError):
            with SerialExecutor(payload) as executor:
                raise RuntimeError("engine error")
        assert executor._context is None


class TestProcessExecutor:
    def test_context_manager_shuts_pool_down(self):
        payload, network = _payload()
        pairs = enumerate_candidate_pairs(network, BASIC)
        with ProcessExecutor(payload, n_jobs=2) as executor:
            outcomes = executor.evaluate(shard_pairs(pairs, 8))
            # The greedy short-circuit may skip a dividend's tail after
            # a profitable hit, so outcomes are a subset of the pairs —
            # never something that was not submitted.
            assert 0 < len(outcomes) <= len(pairs)
            assert {(o.f_name, o.d_name) for o in outcomes} <= set(pairs)
        assert executor._pool is None

    def test_exception_cannot_leak_a_live_pool(self):
        payload, _ = _payload()
        with pytest.raises(RuntimeError):
            with ProcessExecutor(payload, n_jobs=2) as executor:
                raise RuntimeError("engine error")
        assert executor._pool is None

    def test_close_is_idempotent(self):
        payload, _ = _payload()
        executor = ProcessExecutor(payload, n_jobs=2)
        executor.close()
        executor.close(cancel=True)
        assert executor._pool is None


@pytest.mark.fault_injection
class TestRetryLadderUnits:
    def test_results_keep_submission_order_across_retries(self):
        # Batch 1 fails once (transient worker exception); the
        # flattened outcomes must still follow batch order, matching
        # what a fault-free executor returns.
        payload, network = _payload()
        pairs = enumerate_candidate_pairs(network, BASIC)
        batches = shard_pairs(pairs, 4)
        assert len(batches) >= 2
        with ProcessExecutor(
            payload, n_jobs=2, injection=inject.plan(raise_on_batch=1)
        ) as executor:
            outcomes = executor.evaluate(batches)
        with ProcessExecutor(payload, n_jobs=2) as clean:
            expected = clean.evaluate(batches)
        assert [
            (o.f_name, o.d_name) for o in outcomes
        ] == [(o.f_name, o.d_name) for o in expected]
        assert executor.worker_faults == 1
        assert executor.shards_redispatched == 1

    def test_transient_plan_disarmed_on_rebuild(self):
        payload, network = _payload()
        pairs = enumerate_candidate_pairs(network, BASIC)
        executor = ProcessExecutor(
            payload, n_jobs=2, injection=inject.plan(kill_on_batch=0)
        )
        try:
            executor.evaluate(shard_pairs(pairs, 4))
            # The rebuild dropped the transient plan entirely.
            assert executor._injection is None
            assert executor.degraded_to_serial == 0
        finally:
            executor.close()


class TestMakeExecutor:
    def test_serial_backend_for_one_job(self):
        payload, _ = _payload()
        with make_executor(payload, 1, "process") as executor:
            assert isinstance(executor, SerialExecutor)

    def test_unknown_backend_rejected(self):
        payload, _ = _payload()
        with pytest.raises(ValueError):
            make_executor(payload, 2, "threads")


class TestResolveBackend:
    def test_auto_spawns_the_pool_only_for_enough_pairs(self, monkeypatch):
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 2)
        small = AUTO_POOL_MIN_PAIRS - 1
        assert resolve_backend("auto", pairs=small) == "serial"
        assert resolve_backend("auto", pairs=AUTO_POOL_MIN_PAIRS) == "process"
        assert resolve_backend("auto") == "process"

    def test_auto_stays_in_process_on_one_core(self, monkeypatch):
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 1)
        assert resolve_backend("auto", pairs=10 * AUTO_POOL_MIN_PAIRS) == (
            "serial"
        )

    def test_protocol_overhead_circuits_stay_in_process(self, monkeypatch):
        """The smoke gate's 1.15x ceiling times the in-process protocol
        (tests/bench/test_parallel_smoke.py), so its circuits must fall
        below the cut-off."""
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 2)
        for name in ("rnd8", "add10", "pri10"):
            pairs = enumerate_candidate_pairs(build_benchmark(name), BASIC)
            assert resolve_backend("auto", pairs=len(pairs)) == "serial"

    def test_explicit_backends_ignore_the_pair_count(self):
        assert resolve_backend("process", pairs=1) == "process"
        assert resolve_backend("serial", pairs=10**6) == "serial"
