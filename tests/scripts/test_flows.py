"""Tests for the SIS-style scripts and the table harness."""

import dataclasses

import pytest

from repro.bench.suite import build_benchmark
from repro.core.substitution import SubstitutionStats
from repro.network.verify import networks_equivalent
from repro.scripts.flows import (
    METHOD_CONFIGS,
    METHODS,
    SCRIPTS,
    run_method,
    run_script_algebraic_table,
    run_script_table,
    script_a,
    script_algebraic,
)
from repro.scripts.tables import format_table


@pytest.fixture(scope="module")
def small_suite():
    return {name: build_benchmark(name) for name in ("dec3", "rnd1")}


class TestScripts:
    @pytest.mark.parametrize("script", sorted(SCRIPTS))
    def test_scripts_preserve_function(self, script):
        net = build_benchmark("rnd1")
        reference = net.copy()
        SCRIPTS[script](net)
        assert networks_equivalent(reference, net)

    def test_script_a_reduces_or_keeps_nodes(self):
        net = build_benchmark("add6")
        nodes_before = len(net.internal_nodes())
        script_a(net)
        assert len(net.internal_nodes()) <= nodes_before

    def test_script_algebraic_preserves_function(self):
        net = build_benchmark("rnd3")
        reference = net.copy()
        script_algebraic(net, METHODS["basic"])
        assert networks_equivalent(reference, net)


class TestMethods:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_all_methods_preserve_function(self, method):
        net = build_benchmark("rnd1")
        reference = net.copy()
        stats = run_method(net, method)
        assert networks_equivalent(reference, net)
        assert stats["literals"] >= 0
        assert stats["cpu"] >= 0
        # The full SubstitutionStats (what --stats-json reports) only
        # for the methods with a DivisionConfig.
        if METHOD_CONFIGS[method] is None:
            assert set(stats) == {"literals", "cpu"}
        else:
            assert set(stats) == {"literals", "cpu", "stats"}
            assert set(stats["stats"]) == {
                field.name for field in dataclasses.fields(SubstitutionStats)
            }


class TestHarness:
    def test_script_table(self, small_suite):
        result = run_script_table(
            small_suite, "A", methods=["sis", "basic"]
        )
        assert len(result.rows) == 2
        for row in result.rows:
            assert row.literals["basic"] <= row.initial
            assert row.literals["sis"] <= row.initial
        assert result.total_initial() >= result.total_literals("basic")

    def test_boolean_beats_or_ties_algebraic(self, small_suite):
        result = run_script_table(
            small_suite, "A", methods=["sis", "basic"]
        )
        assert result.total_literals("basic") <= result.total_literals("sis")

    def test_table5_harness(self, small_suite):
        result = run_script_algebraic_table(
            small_suite, methods=["sis", "basic"]
        )
        assert result.title == "script.algebraic"
        assert result.total_literals("basic") <= result.total_initial()

    def test_format_table_layout(self, small_suite):
        result = run_script_table(small_suite, "A", methods=["sis"])
        text = format_table(result)
        assert "Script A" in text
        assert "total" in text and "impr." in text
        assert "dec3" in text and "rnd1" in text

    def test_improvement_and_winner(self, small_suite):
        result = run_script_table(
            small_suite, "A", methods=["sis", "basic"]
        )
        assert 0 <= result.improvement("basic") <= 100
        assert result.winner() in ("sis", "basic")

    def test_harness_detects_broken_method(self, small_suite, monkeypatch):
        def breaker(network):
            # Flip a node's function: must be caught by verification.
            node = network.internal_nodes()[0]
            from repro.twolevel.complement import complement

            node.set_function(
                list(node.fanins), complement(node.cover)
            )

        monkeypatch.setitem(METHODS, "broken", breaker)
        with pytest.raises(AssertionError):
            run_script_table(
                small_suite, "A", methods=["broken"], verify=True
            )

    @pytest.mark.parametrize("runner", ["script_a", "script_algebraic"])
    def test_harness_raises_on_unknown_verdict(self, runner, monkeypatch):
        # add10 has 21 PIs, so the final check runs on SAT.  simguided
        # is the method that rewrites it (the others hand back the
        # prepared network, a pair the shared miter proves without a
        # single conflict).  With a zero conflict budget the table's
        # check cannot complete, and an unproven method must fail the
        # table rather than pass it.  Only that check is starved:
        # simguided's own validations keep the default budget, or it
        # would reject every rewrite and hand back the prepared
        # network.
        from repro.sat.check import sat_equivalent
        from repro.scripts import flows

        real = flows.exact_equivalent
        full_budget = []

        def exact_equivalent(a, b):
            # The same check at the default budget, kept for the
            # assertion below; the table gets the zero-budget verdict.
            full_budget.append(real(a, b))
            return sat_equivalent(a, b, conflict_budget=0)

        monkeypatch.setattr(flows, "exact_equivalent", exact_equivalent)
        suite = {"add10": build_benchmark("add10")}
        with pytest.raises(AssertionError, match="equivalence unknown"):
            if runner == "script_a":
                run_script_table(suite, "A", methods=["simguided"])
            else:
                run_script_algebraic_table(suite, methods=["simguided"])
        # Budget 0 is a genuine unknown: the proof needs search.
        [verdict] = full_budget
        assert verdict.status == "equal"
        assert verdict.conflicts >= 1


class TestTableContainers:
    def test_improvement_zero_on_empty(self):
        from repro.scripts.tables import TableResult

        result = TableResult(title="t", methods=["sis"])
        assert result.improvement("sis") == 0.0
        assert result.total_initial() == 0

    def test_format_alignment(self, small_suite):
        from repro.scripts.tables import format_table

        result = run_script_table(small_suite, "A", methods=["sis"])
        lines = format_table(result).splitlines()
        # header, rule, rows, rule, totals, improvement
        assert len(lines) == 3 + len(result.rows) + 3
        widths = {len(line) for line in lines[1:] if "-" not in line[:2]}
        # All data lines are padded to equal width.
        assert len(widths) <= 2

    def test_cpu_totals_accumulate(self, small_suite):
        result = run_script_table(small_suite, "A", methods=["sis"])
        assert result.total_cpu("sis") == sum(
            row.cpu["sis"] for row in result.rows
        )
