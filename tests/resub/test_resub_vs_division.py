"""Cross-engine differential fuzz suite: simguided vs division.

The simguided engine promises that its output is *exactly* equivalent
to its input — every commit is validated against the pre-run reference
with BDDs or the SAT miter before it sticks — and that the factored
literal count never grows.  This suite checks both promises on a
population of ~40 seeded planted networks (the same generator family
as the three-oracle corpus), and cross-checks the engines
against each other: division's output and simguided's output must land
in the same equivalence class, because each is equivalent to the same
input.

The quick subset runs in tier-1; the full 40-network sweep carries the
``bench_smoke`` marker.
"""

from __future__ import annotations

import pytest

from repro.bench.generators import planted_network, planted_pos_network
from repro.bench.suite import build_benchmark
from repro.core.config import BASIC, SIMGUIDED
from repro.core.substitution import substitute_network
from repro.network.blif import to_blif_str
from repro.network.factor import network_literals
from repro.network.verify import networks_equivalent


def _fuzz_cases():
    """40 deterministic (kind, seed, sizes) specs, small but varied."""
    cases = []
    for i in range(26):
        cases.append(
            ("sop", 2000 + 17 * i, 7 + i % 4, 3 + i % 3, 4 + i % 3)
        )
    for i in range(14):
        cases.append(("pos", 9000 + 29 * i, 8 + i % 3, 3, 4 + i % 2))
    return cases


def _build(case):
    kind, seed, n_pis, n_divisors, n_targets = case
    builder = planted_network if kind == "sop" else planted_pos_network
    return builder(
        f"fuzz_{kind}{seed}",
        seed=seed,
        n_pis=n_pis,
        n_divisors=n_divisors,
        n_targets=n_targets,
    )


def _check_case(case):
    return _check_engines(lambda: _build(case), case)


def _check_engines(build, case):
    """Simguided vs division on fresh copies from *build*."""
    reference = build()
    simguided_net = build()
    stats = substitute_network(simguided_net, SIMGUIDED)
    # Simguided constructs candidates; it never calls boolean_divide.
    assert stats.divide_calls == 0
    # Exact equivalence to the input, independently re-derived (the
    # engine's own validation used the same oracle; re-checking here
    # guards the commit/rollback plumbing around it).
    assert networks_equivalent(reference, simguided_net), (
        f"simguided broke equivalence on {case}"
    )
    assert stats.literals_after <= stats.literals_before, (
        f"simguided grew {case}: "
        f"{stats.literals_before} -> {stats.literals_after}"
    )
    assert network_literals(simguided_net) == stats.literals_after
    # Cross-engine: division's output must be in the same equivalence
    # class (both engines are equivalence-preserving on the same
    # input, so a divergence means one of them lied).
    division_net = build()
    substitute_network(division_net, BASIC)
    assert networks_equivalent(simguided_net, division_net), (
        f"simguided and division diverged on {case}"
    )
    return stats


#: Every 4th fuzz case, plus the suite's ``rnd3`` (the same planted
#: network under another model name): 11 cases in tier-1.
QUICK_CASES = _fuzz_cases()[::4] + [("sop", 37, 8, 3, 6)]


@pytest.mark.parametrize("case", QUICK_CASES, ids=lambda c: f"{c[0]}{c[1]}")
def test_simguided_equivalent_and_cross_checked_quick(case):
    _check_case(case)


#: Suite circuits for the same checks: rnd8 validates through BDDs,
#: add10 (21 PIs) through the SAT miter, and pri10 is candidate-heavy
#: control logic.
SUITE_CIRCUITS = ("rnd8", "add10", "pri10")


@pytest.mark.parametrize("name", SUITE_CIRCUITS)
def test_simguided_equivalent_and_cross_checked_on_suite(name):
    _check_engines(lambda: build_benchmark(name), name)


@pytest.mark.bench_smoke
def test_simguided_equivalent_and_cross_checked_full_sweep():
    accepted = 0
    for case in _fuzz_cases():
        accepted += _check_case(case).resub_accepted
    # The population is not degenerate: simguided finds rewrites
    # somewhere in it, otherwise the assertions above are vacuous.
    assert accepted > 0


def test_simguided_is_deterministic():
    """Two runs on the same input produce byte-identical BLIF."""
    case = _fuzz_cases()[0]
    first = _build(case)
    second = _build(case)
    substitute_network(first, SIMGUIDED)
    substitute_network(second, SIMGUIDED)
    assert to_blif_str(first) == to_blif_str(second)


def test_population_exercises_simguided_acceptance():
    """At least one quick-subset case accepts at least one resub (so
    the equivalence checks above actually cover committed rewrites)."""
    total = 0
    for case in QUICK_CASES:
        net = _build(case)
        total += substitute_network(net, SIMGUIDED).resub_accepted
    assert total > 0
