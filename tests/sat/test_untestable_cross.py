"""Cross-check ``sat_wire_untestable`` against the D-algorithm.

Over the ATPG fault fuzz corpus (every removal-relevant stuck-at
fault of seeded random circuits) the CNF/CDCL untestability oracle
and :func:`repro.atpg.dalg.prove_redundant` must return identical
verdicts whenever both complete, every SAT test vector must actually
expose its fault, and a budget-exhausted SAT proof must be treated
conservatively — NOT redundant — exactly like a D-algorithm run
that exceeds its backtrack limit (``wire_is_redundant_exact``).
"""

import pytest

from repro.atpg.dalg import prove_redundant
from repro.atpg.fault import all_wire_faults
from repro.atpg.simulate import faulty_evaluate
from repro.sat.check import sat_wire_untestable
from tests.atpg.test_simulate import random_circuit

pytestmark = pytest.mark.three_oracle

SEEDS = range(40)


def _fault_corpus(seed):
    circuit = random_circuit(seed)
    return circuit, list(all_wire_faults(circuit))


def _observables(circuit):
    """Fanout-free signals — the same default the miters use."""
    return [
        name for name, outs in circuit.fanouts().items() if not outs
    ]


def _assert_vector_exposes(circuit, fault, vector):
    assignment = {pi: bool(vector.get(pi, False)) for pi in circuit.pis()}
    good = circuit.evaluate(assignment)
    bad = faulty_evaluate(circuit, fault, assignment)
    assert any(
        good[po] != bad[po] for po in _observables(circuit)
    ), "SAT test vector does not expose the fault"


@pytest.mark.parametrize("seed", SEEDS)
def test_verdicts_match_dalg(seed):
    circuit, faults = _fault_corpus(seed)
    for fault in faults:
        dalg = prove_redundant(circuit, fault)
        verdict = sat_wire_untestable(circuit, fault)
        if dalg is None or not verdict.complete:
            continue  # one side gave up; nothing to compare
        assert verdict.verdict == dalg, (seed, fault)
        if verdict.verdict is False:
            assert verdict.counterexample is not None
            _assert_vector_exposes(
                circuit, fault, verdict.counterexample
            )


def test_corpus_exercises_both_verdicts():
    """Sanity: the corpus contains testable AND untestable faults."""
    testable = untestable = 0
    for seed in SEEDS:
        circuit, faults = _fault_corpus(seed)
        for fault in faults:
            verdict = sat_wire_untestable(circuit, fault)
            if not verdict.complete:
                continue
            if verdict.verdict:
                untestable += 1
            else:
                testable += 1
    assert testable > 0 and untestable > 0


def test_budget_exhaustion_is_conservative():
    """With a zero conflict budget, any proof that needs at least one
    conflict comes back incomplete — and the verdict is falsy (keep
    the wire), mirroring an incomplete D-alg
    search in ``wire_is_redundant_exact``."""
    exercised = False
    for seed in SEEDS:
        circuit, faults = _fault_corpus(seed)
        for fault in faults:
            full = sat_wire_untestable(circuit, fault)
            if not (full.complete and full.verdict and full.conflicts):
                continue
            # An untestable fault whose proof needed >= 1 conflict:
            # the deterministic solver must now run out at budget 0.
            starved = sat_wire_untestable(
                circuit, fault, conflict_budget=0
            )
            assert starved.verdict is None
            assert not starved.complete
            assert bool(starved) is False
            exercised = True
        if exercised:
            break
    assert exercised, "corpus has no conflict-requiring untestable fault"
