"""Stall watchdog: unit bookkeeping, and a wedged worker contained.

An injected sleep makes one shard silent far past the configured
``stall_timeout_seconds``.  The watchdog must flag it, the executor
must feed it through the containment ladder (the transient plan is
disarmed on pool rebuild, so the redispatch succeeds), and the output
must stay byte-identical to a serial run — the acceptance bar shared
by every fault path.
"""

import dataclasses

import pytest

from repro.bench.generators import planted_network
from repro.core.config import BASIC
from repro.core.substitution import substitute_network
from repro.network.blif import to_blif_str
from repro.obs.tracer import Tracer, validate_trace_event
from repro.parallel.executor import WATCHDOG_PROC, StallWatchdog
from repro.resilience import inject

PROC_BASIC = dataclasses.replace(BASIC, parallel_backend="process")


def _network(seed=4242):
    return planted_network(
        f"fault{seed}", seed=seed, n_pis=8, n_divisors=3, n_targets=5
    )


def _serial_blif(seed=4242):
    network = _network(seed)
    substitute_network(network, BASIC)
    return to_blif_str(network)


@pytest.mark.fault_injection
@pytest.mark.watchdog
class TestStallContainment:
    def test_wedged_worker_is_flagged_and_contained(self):
        config = dataclasses.replace(
            PROC_BASIC, stall_timeout_seconds=0.5
        )
        network = _network()
        tracer = Tracer()
        with inject.injected(
            inject.plan(sleep_on_batch=0, sleep_seconds=30.0)
        ):
            stats = substitute_network(
                network, config, n_jobs=2, tracer=tracer
            )
        assert to_blif_str(network) == _serial_blif()
        assert stats.stalls_detected >= 1
        assert stats.worker_faults >= 1
        # The watchdog's stall events rode the trace stream.
        stall_events = [
            e for e in tracer.events if e["kind"] == "stall"
        ]
        assert stall_events
        event = stall_events[0]
        assert event["proc"] == "watchdog"
        assert event["attrs"]["threshold_seconds"] == 0.5
        assert event["attrs"]["silent_seconds"] >= 0.5

    def test_fast_run_never_trips_the_watchdog(self):
        config = dataclasses.replace(
            PROC_BASIC, stall_timeout_seconds=60.0
        )
        network = _network()
        stats = substitute_network(network, config, n_jobs=2)
        assert to_blif_str(network) == _serial_blif()
        assert stats.stalls_detected == 0
        assert stats.worker_faults == 0

    def test_no_timeout_configured_waits_it_out(self):
        # Without a stall timeout a slow worker only costs time (the
        # pre-existing TestSlowWorker behaviour is unchanged).
        network = _network()
        with inject.injected(
            inject.plan(sleep_on_batch=0, sleep_seconds=0.2)
        ):
            stats = substitute_network(network, PROC_BASIC, n_jobs=2)
        assert to_blif_str(network) == _serial_blif()
        assert stats.stalls_detected == 0
        assert stats.worker_faults == 0


@pytest.mark.watchdog
class TestConfigValidation:
    def test_nonpositive_stall_timeout_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(BASIC, stall_timeout_seconds=0.0)


@pytest.mark.watchdog
class TestStallWatchdog:
    def _watchdog(self, threshold=2.0, start=100.0):
        ticks = {"now": start}
        watchdog = StallWatchdog(threshold, clock=lambda: ticks["now"])
        return watchdog, ticks

    def test_silence_measures_since_dispatch(self):
        watchdog, ticks = self._watchdog()
        watchdog.note_dispatch(0)
        ticks["now"] = 103.5
        assert watchdog.silence(0) == pytest.approx(3.5)
        assert watchdog.silence(99) == 0.0

    def test_note_result_clears_the_shard(self):
        watchdog, ticks = self._watchdog()
        watchdog.note_dispatch(0)
        watchdog.note_result(0)
        ticks["now"] = 200.0
        assert watchdog.silence(0) == 0.0
        watchdog.note_result(0)  # idempotent

    def test_flag_stall_event_shape(self):
        watchdog, ticks = self._watchdog(threshold=1.5)
        watchdog.note_dispatch(3)
        ticks["now"] = 104.0
        event = watchdog.flag_stall(3, retries=2)
        validate_trace_event(event)
        assert event["kind"] == "stall"
        assert event["proc"] == WATCHDOG_PROC
        assert event["dur"] == 0.0
        assert event["attrs"] == {
            "shard": 3,
            "silent_seconds": pytest.approx(4.0),
            "threshold_seconds": 1.5,
            "retries": 2,
        }
        assert watchdog.stalls_flagged == 1

    def test_flag_stall_ids_are_unique(self):
        watchdog, _ = self._watchdog()
        ids = {watchdog.flag_stall(i)["id"] for i in range(5)}
        assert len(ids) == 5
        assert watchdog.stalls_flagged == 5

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            StallWatchdog(0.0)
