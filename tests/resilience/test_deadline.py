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
from repro.cli import main
from repro.core.config import BASIC
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

    def test_unbudgeted_run_reports_none(self):
        network = _network(seed=9)
        stats = substitute_network(network, BASIC)
        assert stats.budget_report is None


class TestDivideCallCap:
    def test_run_stops_on_divide_call_cap(self):
        baseline = _network(seed=55)
        full = substitute_network(baseline.copy("full"), BASIC)
        assert full.divide_calls > 6  # the cap below actually binds

        network = _network(seed=55)
        reference = network.copy("ref")
        config = dataclasses.replace(BASIC, max_divide_calls=6)
        stats = substitute_network(network, config)
        report = stats.budget_report
        assert report is not None
        assert report.stopped
        assert report.reason == "divide_calls"
        # The budget is checked per pair; one pair's variants may
        # overshoot the cap, but never more than that.
        assert report.divide_calls <= 6 + 4
        assert networks_equivalent(reference, network)
        assert network_literals(network) <= network_literals(reference)

    def test_shared_budget_spans_runs(self):
        # A multi-network flow shares one ledger: spend recorded by
        # earlier runs counts against later ones, so a run handed an
        # already-exhausted budget stops before doing anything.
        budget = RunBudget(max_divide_calls=6)
        first = _network(seed=21)
        substitute_network(first, BASIC, budget=budget)
        budget.charge_divide_calls(max(0, 6 - budget.divide_calls))
        second = _network(seed=22)
        ref = second.copy(second.name)
        stats = substitute_network(second, BASIC, budget=budget)
        assert budget.divide_calls >= 6
        assert stats.budget_report is not None
        assert stats.budget_report.stopped
        assert to_blif_str(second) == to_blif_str(ref)

    def test_report_is_cumulative_and_stats_are_the_run_delta(self):
        # Spend a shared budget carried in from earlier runs stays on
        # the (cumulative) budget report; only the calls made during
        # the run land in its stats.
        budget = RunBudget(deadline_seconds=1000.0)
        first = substitute_network(_network(seed=3), BASIC, budget=budget)
        second = substitute_network(_network(seed=4), BASIC, budget=budget)
        assert first.divide_calls > 0 and second.divide_calls > 0
        assert first.budget_report.divide_calls == first.divide_calls
        assert second.budget_report.divide_calls == (
            first.divide_calls + second.divide_calls
        )
        assert second.budget_report.divide_calls == budget.divide_calls
        assert not second.budget_report.stopped


class TestCliDeadline:
    def test_deadline_flag_records_budget_stop(self, tmp_path):
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
        assert report["stopped"] is True
        assert report["reason"] == "deadline"

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
