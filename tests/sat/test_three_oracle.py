"""Three-oracle differential harness: SAT vs BDD vs exhaustive sim.

Every network pair in a seeded ~40-network corpus (30 small planted
networks plus wide extras the BDD oracle alone could not screen
exhaustively) is judged by up to three independent
equivalence oracles:

* the CNF-miter CDCL backend (``repro.sat``),
* the BDD oracle (``networks_equivalent``),
* exhaustive bit-parallel simulation of all ``2**n`` patterns
  (networks with at most 12 shared PIs).

The oracles must agree on equivalent-by-construction pairs (copy +
``eliminate`` / a full ``substitute_network`` run) and on
mutation-injected pairs (a dropped cube or a flipped literal phase),
and every SAT counterexample must replay to a real PO difference.
The program's own verdict (``exact_equivalent``), which enumerates
every input pattern up to ``verify.EXHAUSTIVE_PI_LIMIT`` PIs and
solves the miter above, joins them; the SAT oracle above already
judges every pair on the miter.  Its counterexamples must replay too.
"""

import pytest

from repro.bench.generators import planted_network, planted_pos_network
from repro.core.config import BASIC
from repro.core.substitution import substitute_network
from repro.network.ops import eliminate
from repro.network import verify
from repro.network.verify import exact_equivalent, networks_equivalent
from repro.sat.check import sat_equivalent
from repro.twolevel.cover import Cover
from repro.twolevel.cube import Cube

pytestmark = pytest.mark.three_oracle

#: Exhaustive simulation is the third oracle only up to this many PIs.
_EXHAUSTIVE_PI_LIMIT = 12


def _fuzz_cases():
    """30 deterministic (kind, seed, sizes) specs, small but varied."""
    cases = []
    for i in range(20):
        cases.append(
            ("sop", 1000 + 17 * i, 7 + i % 4, 3 + i % 3, 4 + i % 3)
        )
    for i in range(10):
        cases.append(("pos", 5000 + 29 * i, 8 + i % 3, 3, 4 + i % 2))
    return cases


def _build(case):
    kind, seed, n_pis, n_divisors, n_targets = case
    name = f"fuzz_{kind}{seed}"
    builder = planted_network if kind == "sop" else planted_pos_network
    return builder(
        name,
        seed=seed,
        n_pis=n_pis,
        n_divisors=n_divisors,
        n_targets=n_targets,
    )


#: Wide extras beyond the 30 small cases: the BDD oracle
#: still runs (planted networks stay structurally small), exhaustive
#: simulation bows out above 12 PIs, and seed 424 is the 24-PI
#: acceptance pair from the issue.
_WIDE_CASES = [
    ("sop", 424, 24, 6, 8),
    ("sop", 777, 16, 4, 6),
    ("sop", 901, 20, 5, 6),
    ("sop", 555, 13, 4, 5),
    ("sop", 606, 18, 5, 7),
    ("pos", 271, 13, 3, 5),
    ("pos", 314, 14, 3, 4),
    ("pos", 161, 15, 3, 5),
    ("sop", 808, 22, 6, 6),
    ("sop", 112, 14, 4, 6),
]

CORPUS = _fuzz_cases() + _WIDE_CASES


def _case_id(case):
    return f"{case[0]}{case[1]}_pi{case[2]}"


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def _magic_mask(index, width_bits):
    """Packed stimulus for PI *index*: bit ``k`` is bit *index* of k."""
    block = 1 << index
    full = (1 << width_bits) - 1
    unit = ((1 << block) - 1) << block
    return unit * (full // ((1 << (2 * block)) - 1))


def _exhaustive_equivalent(a, b, pis):
    """Truth-table comparison of every PO over all 2**|pis| patterns."""
    width = 1 << len(pis)
    patterns = {
        pi: _magic_mask(i, width) for i, pi in enumerate(pis)
    }
    values_a = a.simulate(patterns, width=width)
    values_b = b.simulate(patterns, width=width)
    return all(values_a[po] == values_b[po] for po in a.pos)


def _replay_counterexample(a, b, counterexample):
    """A counterexample must witness a real PO difference."""
    assignment = {pi: bool(counterexample[pi]) for pi in counterexample}
    values_a = a.evaluate({pi: assignment.get(pi, False) for pi in a.pis})
    values_b = b.evaluate({pi: assignment.get(pi, False) for pi in b.pis})
    assert any(values_a[po] != values_b[po] for po in a.pos), (
        "counterexample does not distinguish the networks"
    )


def _cross_check(a, b):
    """Run all applicable oracles; they must agree.  Returns verdict."""
    sat_verdict = sat_equivalent(a, b)
    assert sat_verdict.complete, "corpus pair exhausted the budget"
    bdd_verdict = networks_equivalent(a, b)
    assert bool(sat_verdict.verdict) == bdd_verdict, (
        "SAT and BDD oracles disagree"
    )
    pis = sorted(set(a.pis) | set(b.pis))
    if len(pis) <= _EXHAUSTIVE_PI_LIMIT:
        sim_verdict = _exhaustive_equivalent(a, b, pis)
        assert sim_verdict == bdd_verdict, (
            "exhaustive simulation disagrees with SAT/BDD"
        )
    auto = exact_equivalent(a, b)
    backend = (
        "exhaustive" if len(pis) <= verify.EXHAUSTIVE_PI_LIMIT else "sat"
    )
    assert auto.backend == backend
    assert auto.complete and bool(auto) == bdd_verdict, (
        f"exact_equivalent ({backend}) disagrees with the oracles"
    )
    for verdict in (sat_verdict, auto):
        if verdict.verdict is False:
            assert verdict.counterexample is not None
            _replay_counterexample(a, b, verdict.counterexample)
    return bool(sat_verdict.verdict)


# ----------------------------------------------------------------------
# Mutations (seeded, structural — may or may not change the function;
# the oracles must agree either way)
# ----------------------------------------------------------------------
def _drop_cube(network):
    """Remove the first cube of the first multi-cube internal node."""
    mutated = network.copy()
    for node in mutated.internal_nodes():
        if node.cover is not None and len(node.cover.cubes) > 1:
            node.cover = Cover(
                node.cover.num_vars, node.cover.cubes[1:]
            )
            return mutated
    return None


def _flip_literal(network):
    """Flip the phase of one literal in the first suitable cube."""
    mutated = network.copy()
    for node in mutated.internal_nodes():
        if node.cover is None:
            continue
        for index, cube in enumerate(node.cover.cubes):
            if cube.pos:
                low = cube.pos & -cube.pos
                cubes = list(node.cover.cubes)
                cubes[index] = Cube(cube.pos & ~low, cube.neg | low)
                node.cover = Cover(node.cover.num_vars, tuple(cubes))
                return mutated
    return None


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", CORPUS, ids=_case_id)
def test_oracles_agree(case):
    network = _build(case)

    # Equivalent by construction: a copy restructured by eliminate.
    restructured = network.copy()
    eliminate(restructured, 0)
    assert _cross_check(network, restructured) is True

    # Mutation-injected pairs: seeded structural edits.
    for mutate in (_drop_cube, _flip_literal):
        mutated = mutate(network)
        if mutated is not None:
            _cross_check(network, mutated)


@pytest.mark.parametrize(
    "case", [c for i, c in enumerate(_fuzz_cases()) if i % 10 == 0],
    ids=_case_id,
)
def test_oracles_agree_after_substitution(case):
    """A full optimisation run is an equivalent-by-construction pair."""
    network = _build(case)
    optimized = _build(case)
    substitute_network(optimized, BASIC)
    assert _cross_check(network, optimized) is True


def test_mutations_are_detected_somewhere():
    """Sanity: the corpus mutations are not all function-preserving."""
    detected = 0
    for case in CORPUS[:10]:
        network = _build(case)
        mutated = _drop_cube(network)
        if mutated is not None and not networks_equivalent(
            network, mutated
        ):
            detected += 1
    assert detected > 0


# ----------------------------------------------------------------------
# 24-PI acceptance pair (ISSUE 7 acceptance criterion)
# ----------------------------------------------------------------------
def test_wide_equivalent_pair_within_default_budget():
    case = ("sop", 424, 24, 6, 8)
    network = _build(case)
    optimized = _build(case)
    substitute_network(optimized, BASIC)
    verdict = sat_equivalent(network, optimized)
    assert verdict.complete and verdict.verdict is True
    assert verdict.conflicts >= 0


def test_wide_inequivalent_pair_within_default_budget():
    case = ("sop", 424, 24, 6, 8)
    network = _build(case)
    mutated = _drop_cube(network)
    assert mutated is not None
    verdict = sat_equivalent(network, mutated)
    assert verdict.complete and verdict.verdict is False
    assert verdict.counterexample is not None
    _replay_counterexample(network, mutated, verdict.counterexample)
