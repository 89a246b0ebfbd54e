"""Deadline / budget stops of a whole substitution run.

The acceptance contract: a run given a tight budget exits cleanly, the
network it leaves behind is valid and never worse than its input, and
the stop is recorded in the stats (and, through the CLI, in
``--stats-json``).
"""

import dataclasses
import json

import pytest

from repro.bench.generators import planted_network
from repro.bench.suite import build_benchmark
from repro.cli import main
from repro.core.config import BASIC, SIMGUIDED
from repro.core.substitution import substitute_network
from repro.network.blif import read_blif, to_blif_str
from repro.network.factor import network_literals
from repro.network.verify import networks_equivalent
from repro.resilience.budget import RunBudget


def _network(seed=1234):
    network = planted_network(
        f"deadline{seed}", seed=seed, n_pis=8, n_divisors=3, n_targets=5
    )
    # substitute_network always sweeps dangling nodes on exit; sweep
    # the input too so "run did nothing" means byte-identical BLIF.
    network.sweep_dangling()
    return network


class _TickClock:
    """A clock whose successive reads are 0, 1, 2, ..."""

    def __init__(self):
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return float(self.reads - 1)


class TestDeadlineStops:
    def test_zero_deadline_stops_before_any_work(self):
        network = _network()
        reference = network.copy(network.name)
        config = dataclasses.replace(BASIC, deadline_seconds=0.0)
        stats = substitute_network(network, config)
        report = stats.budget_report
        assert report is not None
        assert report.stopped
        assert report.reason == "deadline"
        # Nothing ran, so the network is exactly its input.
        assert to_blif_str(network) == to_blif_str(reference)
        assert stats.literals_after == stats.literals_before

    def test_tight_deadline_keeps_best_so_far(self):
        network = _network(seed=77)
        reference = network.copy("ref")
        config = dataclasses.replace(BASIC, deadline_seconds=0.01)
        stats = substitute_network(network, config)
        # Clean stop: whatever was committed is a valid, verified
        # network no worse than the input.
        assert networks_equivalent(reference, network)
        assert network_literals(network) <= network_literals(reference)
        assert stats.budget_report is not None

    @pytest.mark.parametrize(
        "config", [BASIC, SIMGUIDED], ids=["basic", "simguided"]
    )
    def test_deadline_passing_after_the_last_check_stops_nothing(
        self, config
    ):
        # A first run finds the tick of the report's first clock read.
        clock = _TickClock()
        budget = RunBudget(deadline_seconds=1e9, clock=clock)
        report = budget.report
        report_ticks = []

        def marked_report():
            report_ticks.append(clock.reads)
            return report()

        budget.report = marked_report
        finished = substitute_network(
            build_benchmark("rnd3"), config, budget=budget
        )
        # With the deadline at that tick, every check of the run reads
        # an earlier tick, and only the report sees the deadline pass.
        deadline = report_ticks[0]
        budget = RunBudget(deadline_seconds=deadline, clock=_TickClock())
        network = build_benchmark("rnd3")
        stats = substitute_network(network, config, budget=budget)
        assert stats.budget_report.elapsed_seconds >= deadline
        assert not stats.budget_report.stopped
        assert stats.budget_report.reason is None
        assert stats.accepted == finished.accepted > 0

    def test_unbudgeted_run_reports_none(self):
        network = _network(seed=9)
        stats = substitute_network(network, BASIC)
        assert stats.budget_report is None


class TestTickDeadline:
    """Under a clock that ticks once per read, a deadline stops a run
    at the same point every time."""

    def test_run_stops_mid_run_at_a_tick_deadline(self):
        full = substitute_network(_network(seed=55), BASIC)
        runs = []
        for _ in range(2):
            network = _network(seed=55)
            reference = network.copy("ref")
            budget = RunBudget(deadline_seconds=200, clock=_TickClock())
            stats = substitute_network(network, BASIC, budget=budget)
            report = stats.budget_report
            assert report.stopped
            assert report.reason == "deadline"
            assert 0 < stats.accepted < full.accepted
            assert networks_equivalent(reference, network)
            assert network_literals(network) <= network_literals(reference)
            runs.append((to_blif_str(network), stats.accepted))
        assert runs[0] == runs[1]

    def test_shared_budget_stops_the_next_run_before_any_attempt(self):
        # A multi-network flow shares one budget: a deadline that
        # passed in an earlier run stops a later one before it starts.
        budget = RunBudget(deadline_seconds=200, clock=_TickClock())
        first = substitute_network(_network(seed=55), BASIC, budget=budget)
        assert first.budget_report.stopped
        second = _network(seed=22)
        ref = second.copy(second.name)
        stats = substitute_network(second, BASIC, budget=budget)
        assert stats.attempts == 0
        assert stats.divide_calls == 0
        assert stats.budget_report.stopped
        assert to_blif_str(second) == to_blif_str(ref)

    def test_report_is_cumulative_and_stats_are_the_run_delta(self):
        # Time a shared budget carried in from earlier runs stays on
        # its (cumulative) report; the stats count only the run's own
        # work.
        budget = RunBudget(deadline_seconds=10**6, clock=_TickClock())
        first = substitute_network(_network(seed=3), BASIC, budget=budget)
        second = substitute_network(_network(seed=4), BASIC, budget=budget)
        alone = substitute_network(
            _network(seed=4), BASIC,
            budget=RunBudget(deadline_seconds=10**6, clock=_TickClock()),
        )
        assert first.divide_calls > 0 and second.divide_calls > 0
        assert second.divide_calls == alone.divide_calls
        assert second.accepted == alone.accepted
        # Each read ticks once, and the second run reads the clock as
        # often as it does alone: its report counts from the budget's
        # start, through the first run.
        assert second.budget_report.elapsed_seconds == (
            first.budget_report.elapsed_seconds
            + alone.budget_report.elapsed_seconds
        )
        assert not second.budget_report.stopped


class TestCliDeadline:
    def test_deadline_flag_records_budget_stop(self, tmp_path, capsys):
        source = tmp_path / "in.blif"
        source.write_text(to_blif_str(_network(seed=5)))
        out = tmp_path / "out.blif"
        stats_path = tmp_path / "stats.json"
        code = main(
            [
                "optimize",
                str(source),
                "--method",
                "basic",
                "--script",
                "none",
                "--deadline",
                "0",
                "-o",
                str(out),
                "--stats-json",
                str(stats_path),
            ]
        )
        assert code == 0
        # The deadline stop still writes a valid, equivalent network.
        assert networks_equivalent(
            read_blif(source.read_text()), read_blif(out.read_text())
        )
        payload = json.loads(stats_path.read_text())
        report = payload["substitution"]["budget_report"]
        assert sorted(report) == [
            "deadline_seconds", "elapsed_seconds", "reason", "stopped"
        ]
        assert report["stopped"] is True
        assert report["reason"] == "deadline"
        # The stderr line counts the run's divide calls: none here.
        err = capsys.readouterr().err
        assert "# budget stop: deadline after " in err
        assert "(0 divide calls)" in err

    def test_negative_deadline_rejected(self, tmp_path):
        source = tmp_path / "in.blif"
        source.write_text(to_blif_str(_network(seed=5)))
        with pytest.raises(SystemExit):
            main(
                [
                    "optimize",
                    str(source),
                    "--method",
                    "basic",
                    "--deadline",
                    "-1",
                ]
            )
