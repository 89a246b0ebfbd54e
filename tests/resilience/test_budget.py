"""Unit tests for :mod:`repro.resilience.budget` (fake-clock driven)."""

import dataclasses
import math

import pytest

from repro.core.config import BASIC, DivisionConfig
from repro.resilience.budget import (
    BudgetExhausted,
    BudgetReport,
    RunBudget,
    validate_deadline,
)


class FakeClock:
    """Deterministic monotonic clock the tests advance by hand."""

    def __init__(self):
        self.now = 0.0
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_trips_when_clock_passes(self):
        clock = FakeClock()
        budget = RunBudget(deadline_seconds=10.0, clock=clock)
        budget.check()  # within budget: no raise
        clock.advance(9.9)
        budget.check()
        clock.advance(0.2)
        with pytest.raises(BudgetExhausted) as exc:
            budget.check()
        assert exc.value.reason == "deadline"

    def test_zero_deadline_trips_immediately(self):
        clock = FakeClock()
        budget = RunBudget(deadline_seconds=0.0, clock=clock)
        assert budget.exhausted()
        with pytest.raises(BudgetExhausted):
            budget.check()

    def test_no_deadline_never_trips(self):
        budget = RunBudget()
        budget.check()
        assert not budget.exhausted()


class TestLimits:
    """RunBudget rejects exactly the deadlines DivisionConfig rejects."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -5.0])
    def test_rejects_unusable_deadline(self, value):
        with pytest.raises(ValueError, match="finite"):
            RunBudget(deadline_seconds=value)

    def test_validate_deadline_names_the_config_field(self):
        validate_deadline(None)
        validate_deadline(0.0)
        with pytest.raises(ValueError, match="deadline_seconds"):
            validate_deadline(-1.0)


class TestLatch:
    def test_each_check_reads_the_clock_once_until_the_stop_latches(self):
        clock = FakeClock()
        budget = RunBudget(deadline_seconds=5.0, clock=clock)
        assert clock.reads == 1  # the start
        budget.check()
        assert not budget.exhausted()
        assert clock.reads == 3
        clock.advance(5.0)
        with pytest.raises(BudgetExhausted):
            budget.check()
        assert clock.reads == 4
        # Latched: later checks raise without reading the clock.
        with pytest.raises(BudgetExhausted):
            budget.check()
        assert budget.exhausted()
        assert clock.reads == 4
        assert budget.stop_reason == "deadline"


class TestReport:
    def test_report_fields(self):
        clock = FakeClock()
        budget = RunBudget(deadline_seconds=50.0, clock=clock)
        clock.advance(1.5)
        report = budget.report()
        assert report.stopped is False
        assert report.reason is None
        assert report.elapsed_seconds == pytest.approx(1.5)
        assert report.deadline_seconds == 50.0

    def test_report_names_only_a_stop_that_happened(self):
        clock = FakeClock()
        budget = RunBudget(deadline_seconds=5.0, clock=clock)
        clock.advance(6.0)
        # Past the deadline, but no check has stopped anything yet.
        report = budget.report()
        assert (report.stopped, report.reason) == (False, None)
        assert report.elapsed_seconds == 6.0
        with pytest.raises(BudgetExhausted):
            budget.check()
        clock.advance(1.0)
        report = budget.report()
        assert (report.stopped, report.reason) == (True, "deadline")
        assert report.elapsed_seconds == 7.0

    def test_report_covers_exactly_the_deadline(self):
        # The deadline is the only limit, so the report carries its
        # spend and nothing else.
        assert [field.name for field in dataclasses.fields(BudgetReport)] == [
            "stopped",
            "reason",
            "elapsed_seconds",
            "deadline_seconds",
        ]

    def test_report_is_json_ready(self):
        import json

        report = RunBudget(deadline_seconds=1.0).report()
        json.dumps(dataclasses.asdict(report))


class TestFromConfig:
    def test_no_limits_no_budget(self):
        assert RunBudget.from_config(BASIC) is None

    def test_deadline_builds_a_budget(self):
        config = DivisionConfig(deadline_seconds=2.0)
        budget = RunBudget.from_config(config)
        assert budget is not None
        assert budget.deadline_seconds == 2.0

    def test_config_validates_limits(self):
        with pytest.raises(ValueError):
            DivisionConfig(deadline_seconds=-1.0)
        with pytest.raises(ValueError):
            DivisionConfig(verify_full_every=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_config_rejects_non_finite_deadline(self, value):
        with pytest.raises(ValueError, match="finite"):
            DivisionConfig(deadline_seconds=value)
