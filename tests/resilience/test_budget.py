"""Unit tests for :mod:`repro.resilience.budget` (fake-clock driven)."""

import dataclasses
import math

import pytest

from repro.core.config import BASIC, DivisionConfig
from repro.resilience.budget import BudgetExhausted, RunBudget


class FakeClock:
    """Deterministic monotonic clock the tests advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
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

    def test_check_deadline_is_deadline_only(self):
        clock = FakeClock()
        budget = RunBudget(max_divide_calls=1, clock=clock)
        budget.charge_divide_calls(5)
        # Over the divide-call cap, but check_deadline ignores it.
        budget.check_deadline()
        with pytest.raises(BudgetExhausted):
            budget.check()

    def test_zero_deadline_trips_immediately(self):
        clock = FakeClock()
        budget = RunBudget(deadline_seconds=0.0, clock=clock)
        assert budget.deadline_passed()
        with pytest.raises(BudgetExhausted):
            budget.check_deadline()


class TestCounters:
    def test_divide_call_cap(self):
        budget = RunBudget(max_divide_calls=4)
        budget.charge_divide_calls(3)
        budget.check()
        budget.charge_divide_calls(1)
        with pytest.raises(BudgetExhausted) as exc:
            budget.check()
        assert exc.value.reason == "divide_calls"

    def test_backtrack_cap_and_remaining(self):
        budget = RunBudget(max_backtracks=100)
        assert budget.backtracks_remaining() == 100
        budget.charge_backtracks(60)
        assert budget.backtracks_remaining() == 40
        budget.charge_backtracks(60)
        assert budget.backtracks_remaining() == 0
        with pytest.raises(BudgetExhausted) as exc:
            budget.check()
        assert exc.value.reason == "backtracks"

    def test_uncapped_backtracks_remaining_is_none(self):
        assert RunBudget().backtracks_remaining() is None

    def test_unlimited_budget_never_trips(self):
        budget = RunBudget()
        budget.charge_divide_calls(10**6)
        budget.charge_backtracks(10**6)
        budget.check()
        assert not budget.exhausted()


class TestLimits:
    """RunBudget rejects exactly the limits DivisionConfig rejects."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -5.0])
    def test_rejects_unusable_deadline(self, value):
        with pytest.raises(ValueError, match="finite"):
            RunBudget(deadline_seconds=value)

    def test_rejects_negative_divide_calls(self):
        with pytest.raises(ValueError, match="max_divide_calls"):
            RunBudget(max_divide_calls=-1)

    def test_rejects_negative_backtracks(self):
        with pytest.raises(ValueError, match="backtracks"):
            RunBudget(max_backtracks=-1)

    def test_accepts_zero_limits(self):
        budget = RunBudget(
            deadline_seconds=0.0, max_divide_calls=0, max_backtracks=0
        )
        assert budget.exhausted()


class TestReason:
    def test_first_reason_is_latched(self):
        clock = FakeClock()
        budget = RunBudget(
            deadline_seconds=5.0, max_divide_calls=1, clock=clock
        )
        budget.charge_divide_calls(2)
        assert budget.exhausted()
        assert budget.stop_reason == "divide_calls"
        # Deadline trips later; the report keeps the original cause.
        clock.advance(100.0)
        assert budget.exhausted()
        assert budget.stop_reason == "divide_calls"
        assert budget.report().reason == "divide_calls"


class TestReport:
    def test_report_fields(self):
        clock = FakeClock()
        budget = RunBudget(
            deadline_seconds=50.0,
            max_divide_calls=10,
            max_backtracks=500,
            clock=clock,
        )
        budget.charge_divide_calls(3)
        budget.charge_backtracks(7)
        budget.note_atpg_incomplete()
        clock.advance(1.5)
        report = budget.report()
        assert report.stopped is False
        assert report.reason is None
        assert report.elapsed_seconds == pytest.approx(1.5)
        assert report.divide_calls == 3
        assert report.backtracks == 7
        assert report.atpg_incomplete == 1
        assert report.deadline_seconds == 50.0
        assert report.max_divide_calls == 10
        assert report.max_backtracks == 500

    def test_report_is_json_ready(self):
        import json

        report = RunBudget(deadline_seconds=1.0).report()
        json.dumps(dataclasses.asdict(report))


class TestFromConfig:
    def test_no_limits_no_budget(self):
        assert RunBudget.from_config(BASIC) is None

    def test_limits_build_a_budget(self):
        config = DivisionConfig(
            deadline_seconds=2.0,
            max_divide_calls=10,
            max_run_backtracks=100,
        )
        budget = RunBudget.from_config(config)
        assert budget is not None
        assert budget.deadline_seconds == 2.0
        assert budget.max_divide_calls == 10
        assert budget.max_backtracks == 100

    def test_config_validates_limits(self):
        with pytest.raises(ValueError):
            DivisionConfig(deadline_seconds=-1.0)
        with pytest.raises(ValueError):
            DivisionConfig(max_divide_calls=-1)
        with pytest.raises(ValueError):
            DivisionConfig(max_run_backtracks=-2)
        with pytest.raises(ValueError):
            DivisionConfig(verify_full_every=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_config_rejects_non_finite_deadline(self, value):
        with pytest.raises(ValueError, match="finite"):
            DivisionConfig(deadline_seconds=value)
