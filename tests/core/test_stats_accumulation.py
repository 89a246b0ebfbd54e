"""Accumulation semantics of :class:`SubstitutionStats`.

:func:`~repro.core.substitution.substitute_network` documents that
passing an existing *stats* object **accumulates** into it — every
counter is added, never overwritten — so multi-run flows (e.g.
``script.algebraic`` calling substitution three times) can keep one
ledger.  These tests pin that contract:

* every numeric field is monotone non-decreasing across repeated runs
  into the same stats object (an overwrite would reset a counter and
  break monotonicity whenever the second run is smaller), and the
  literal totals add up;
* a :class:`~repro.resilience.budget.RunBudget` shared across runs
  carries only its clock from run to run: the stats see each run's own
  counts, exactly those of the same run without a budget.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BASIC, EXTENDED
from repro.core.substitution import SubstitutionStats, substitute_network
from repro.resilience.budget import RunBudget

from tests.conftest import random_network

#: Every int/float field of SubstitutionStats, each an accumulating
#: counter (``budget_report``, a replace, is not numeric).
_NUMERIC_FIELDS = [
    f.name
    for f in dataclasses.fields(SubstitutionStats)
    if f.type in ("int", "float")
]


def _snapshot(stats: SubstitutionStats) -> dict:
    return {name: getattr(stats, name) for name in _NUMERIC_FIELDS}


def test_numeric_field_inventory_is_nontrivial():
    # Guards the introspection above against a dataclass refactor that
    # would silently empty the property test.
    assert "attempts" in _NUMERIC_FIELDS
    assert "literals_after" in _NUMERIC_FIELDS
    assert "tests_witnessed" in _NUMERIC_FIELDS
    assert len(_NUMERIC_FIELDS) >= 15


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_counters_monotone_across_runs(seed):
    """Two runs into one stats object never decrease any counter."""
    stats = SubstitutionStats()
    baseline = _snapshot(stats)
    for run in range(2):
        network = random_network(seed + run, n_pis=4, n_nodes=5)
        substitute_network(network, EXTENDED, stats=stats)
        current = _snapshot(stats)
        for name in _NUMERIC_FIELDS:
            assert current[name] >= baseline[name], (
                f"{name} decreased on run {run}: "
                f"{baseline[name]} -> {current[name]}"
            )
        baseline = current


def test_literals_accumulate_not_overwrite():
    """literals_before/after sum across runs (documented contract)."""
    stats = SubstitutionStats()
    net1 = random_network(11, n_pis=4, n_nodes=5)
    substitute_network(net1, BASIC, stats=stats)
    first_before = stats.literals_before
    first_after = stats.literals_after
    assert first_before > 0
    net2 = random_network(12, n_pis=4, n_nodes=5)
    substitute_network(net2, BASIC, stats=stats)
    assert stats.literals_before > first_before
    assert stats.literals_after > first_after


def _counts(stats: SubstitutionStats) -> dict:
    """The numeric fields a rerun reproduces: all but the CPU time."""
    counts = _snapshot(stats)
    del counts["cpu_seconds"]
    return counts


def test_shared_budget_leaves_the_run_counters_alone():
    """A budget with prior spend must not leak into a fresh run.

    The budget's elapsed time is cumulative across every run that
    shares it; the run's counters are its own, equal to those of the
    same run without a budget.
    """
    now = [0.0]
    budget = RunBudget(deadline_seconds=1000.0, clock=lambda: now[0])
    now[0] = 400.0  # spend from a hypothetical earlier run
    stats = substitute_network(
        random_network(3, n_pis=4, n_nodes=5), BASIC, budget=budget
    )
    alone = substitute_network(random_network(3, n_pis=4, n_nodes=5), BASIC)
    assert stats.divide_calls > 0
    assert _counts(stats) == _counts(alone)
    assert stats.budget_report.elapsed_seconds == 400.0
    assert not stats.budget_report.stopped


def test_shared_budget_two_runs_accumulate_deltas():
    """Across two runs on one budget the stats see each delta once."""
    budget = RunBudget(deadline_seconds=1000.0)
    stats = SubstitutionStats()
    alone = []
    for seed in (21, 22):
        network = random_network(seed, n_pis=4, n_nodes=5)
        substitute_network(network, BASIC, stats=stats, budget=budget)
        alone.append(
            _counts(
                substitute_network(
                    random_network(seed, n_pis=4, n_nodes=5), BASIC
                )
            )
        )
    assert stats.divide_calls > 0
    assert _counts(stats) == {
        name: alone[0][name] + alone[1][name] for name in alone[0]
    }
