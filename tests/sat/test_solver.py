"""Unit and property tests for the CDCL solver and CNF encoders.

Three layers:

* hand-built instances with known verdicts (UNSAT cores, unit
  propagation chains, pigeonhole) pinning the solver's contract,
* a hypothesis property test checking CDCL verdicts against a
  bit-parallel brute-force enumerator on random small CNF,
* Tseitin round-trips: a network encoding is satisfiable exactly by
  assignments consistent with the network's own evaluation,
* shared miters: a node the two sides hold in common reuses one
  variable, and only what differs is left to the solver; the
  enumeration backend, which follows the same sharing rule, must reach
  the same verdicts.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.network import Network
from repro.network.verify import exhaustive_equivalent
from repro.sat.check import sat_equivalent
from repro.sat.cnf import Cnf, build_miter, encode_circuit, encode_network
from repro.sat.solver import CdclSolver, solve_cnf
from tests.conftest import random_network


def solve(num_vars, clauses, budget=None):
    return CdclSolver(num_vars, clauses).solve(conflict_budget=budget)


def pigeonhole(pigeons, holes):
    """The classic UNSAT-for-pigeons>holes family (needs real search)."""
    cnf = Cnf()
    var = {
        (p, h): cnf.new_var()
        for p in range(pigeons)
        for h in range(holes)
    }
    for p in range(pigeons):
        cnf.add_clause(var[p, h] for h in range(holes))
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            cnf.add_clause((-var[p1, h], -var[p2, h]))
    return cnf


class TestHandBuilt:
    def test_empty_formula_is_sat(self):
        result = solve(0, [])
        assert result.satisfiable is True and result.complete

    def test_unit_contradiction(self):
        result = solve(1, [(1,), (-1,)])
        assert result.satisfiable is False and result.complete

    def test_empty_clause_is_unsat(self):
        result = solve(2, [(1, 2), ()])
        assert result.satisfiable is False and result.complete

    def test_tautologies_are_dropped(self):
        result = solve(2, [(1, -1), (2, -2, 1)])
        assert result.satisfiable is True

    def test_unit_propagation_chain_needs_no_decisions(self):
        # a; a->b; b->c; c->d — everything follows by propagation.
        clauses = [(1,), (-1, 2), (-2, 3), (-3, 4)]
        result = solve(4, clauses)
        assert result.satisfiable is True
        assert result.model == {1: True, 2: True, 3: True, 4: True}
        assert result.decisions == 0
        assert result.conflicts == 0

    def test_propagation_chain_into_conflict(self):
        # The same chain plus d must be false: UNSAT at level 0.
        clauses = [(1,), (-1, 2), (-2, 3), (-3, 4), (-4,)]
        result = solve(4, clauses)
        assert result.satisfiable is False and result.complete
        assert result.decisions == 0

    def test_unsat_core_requires_learning(self):
        # All eight clauses over three variables: no assignment works,
        # but no single propagation chain shows it.
        clauses = [
            tuple(
                (v + 1) if (bits >> v) & 1 else -(v + 1)
                for v in range(3)
            )
            for bits in range(8)
        ]
        result = solve(3, clauses)
        assert result.satisfiable is False and result.complete
        assert result.conflicts > 0

    def test_pigeonhole_unsat(self):
        result = solve_cnf(pigeonhole(4, 3))
        assert result.satisfiable is False and result.complete
        assert result.conflicts > 0
        assert result.learned > 0

    def test_pigeonhole_sat_when_it_fits(self):
        result = solve_cnf(pigeonhole(3, 3))
        assert result.satisfiable is True and result.complete

    def test_restarts_fire_on_long_searches(self):
        result = solve_cnf(pigeonhole(7, 6))
        assert result.satisfiable is False and result.complete
        assert result.restarts > 0

    def test_conflict_budget_reports_incomplete(self):
        result = solve_cnf(pigeonhole(4, 3), conflict_budget=1)
        assert result.satisfiable is None
        assert not result.complete
        assert result.model is None
        assert result.conflicts == 1

    def test_deterministic_counters(self):
        first = solve_cnf(pigeonhole(5, 4))
        second = solve_cnf(pigeonhole(5, 4))
        assert (first.conflicts, first.decisions, first.propagations,
                first.learned, first.restarts) == (
            second.conflicts, second.decisions, second.propagations,
            second.learned, second.restarts)


# ----------------------------------------------------------------------
# Property test against a brute-force enumerator
# ----------------------------------------------------------------------
@st.composite
def cnf_st(draw):
    num_vars = draw(st.integers(1, 14))
    literal = st.integers(1, num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clauses = draw(
        st.lists(
            st.lists(literal, min_size=1, max_size=5).map(tuple),
            max_size=40,
        )
    )
    return num_vars, clauses


def brute_force_satisfiable(num_vars, clauses):
    """Bit-parallel truth-table check over all 2**num_vars rows."""
    full = (1 << (1 << num_vars)) - 1

    def literal_mask(lit):
        var = abs(lit) - 1
        block = 1 << var
        unit = ((1 << block) - 1) << block
        positive = unit * (full // ((1 << (2 * block)) - 1))
        return positive if lit > 0 else full & ~positive

    formula = full
    for clause in clauses:
        mask = 0
        for lit in clause:
            mask |= literal_mask(lit)
            if mask == full:
                break
        formula &= mask
        if not formula:
            return False
    return formula != 0


@given(cnf_st())
@settings(max_examples=60, deadline=None)
def test_cdcl_matches_brute_force(case):
    num_vars, clauses = case
    result = solve(num_vars, clauses)
    assert result.complete
    assert result.satisfiable == brute_force_satisfiable(
        num_vars, clauses
    )
    if result.satisfiable:
        for clause in clauses:
            assert any(
                result.model[abs(lit)] == (lit > 0) for lit in clause
            )


# ----------------------------------------------------------------------
# Tseitin round-trips
# ----------------------------------------------------------------------
def _pi_units(values, network, assignment):
    return [
        values[pi] if assignment[pi] else -values[pi]
        for pi in network.pis
    ]


@pytest.mark.parametrize("seed", range(12))
def test_network_encoding_roundtrip(seed):
    """Fixing the PIs forces every node variable to the node's value,
    and contradicting any node's value is UNSAT — the encoding is
    satisfied exactly by consistent gate assignments."""
    network = random_network(seed, n_pis=4, n_nodes=5)
    cnf = Cnf()
    values = encode_network(cnf, network)
    for bits in range(1 << len(network.pis)):
        assignment = {
            pi: bool((bits >> i) & 1)
            for i, pi in enumerate(network.pis)
        }
        expected = network.evaluate(assignment)
        fixed = Cnf()
        fixed.num_vars = cnf.num_vars
        fixed.clauses = list(cnf.clauses)
        for unit in _pi_units(values, network, assignment):
            fixed.add_clause((unit,))
        result = solve_cnf(fixed)
        assert result.satisfiable is True, (seed, assignment)
        for name, var in values.items():
            if name in network.nodes:
                assert result.model[var] == expected[name], (
                    seed, assignment, name
                )
        # Contradict one internal node: must become UNSAT.
        name = network.internal_nodes()[0].name
        fixed.add_clause(
            (-values[name],) if expected[name] else (values[name],)
        )
        assert solve_cnf(fixed).satisfiable is False, (seed, assignment)


def test_circuit_encoding_matches_evaluate():
    from tests.atpg.test_simulate import random_circuit

    for seed in range(10):
        circuit = random_circuit(seed)
        cnf = Cnf()
        values = encode_circuit(cnf, circuit)
        pis = circuit.pis()
        for bits in range(1 << len(pis)):
            assignment = {
                pi: bool((bits >> i) & 1) for i, pi in enumerate(pis)
            }
            expected = circuit.evaluate(assignment)
            fixed = Cnf()
            fixed.num_vars = cnf.num_vars
            fixed.clauses = list(cnf.clauses)
            for pi in pis:
                var = values[pi]
                fixed.add_clause((var if assignment[pi] else -var,))
            result = solve_cnf(fixed)
            assert result.satisfiable is True
            for name, var in values.items():
                assert result.model[var] == expected[name], (
                    seed, assignment, name
                )


def test_miter_rejects_mismatched_outputs():
    a = random_network(1, n_pis=3, n_nodes=3)
    b = random_network(2, n_pis=3, n_nodes=2)
    if sorted(a.pos) != sorted(b.pos):
        with pytest.raises(ValueError):
            build_miter(a, b)


def test_miter_of_identical_networks_is_unsat():
    # Every node is shared and no PO is left to XOR: the empty clause,
    # refuted without a conflict even at a zero conflict budget.
    network = random_network(7, n_pis=4, n_nodes=4)
    miter = build_miter(network, network.copy())
    assert miter.diff_vars == {}
    assert miter.shared == len(network.internal_nodes())
    result = solve_cnf(miter.cnf, conflict_budget=0)
    assert result.satisfiable is False and result.complete
    assert result.conflicts == 0


# ----------------------------------------------------------------------
# Shared miters: structurally identical logic needs no proof
# ----------------------------------------------------------------------
def substitution6():
    """SNIPPETS.md's ``example_Substitution6``: ``x2 = x1 (t1 + f)``
    implies ``x1``, so ``out = x1 + x2`` is just ``x1``."""
    net = Network("example_Substitution6")
    for pi in "abcdef":
        net.add_pi(pi)
    net.parse_node("t1", "a b", ["a", "b"])
    net.parse_node("t2", "c d", ["c", "d"])
    net.parse_node("t3", "c e", ["c", "e"])
    net.parse_node("u", "t1 + t2", ["t1", "t2"])
    net.parse_node("v", "t1 + t3", ["t1", "t3"])
    net.parse_node("x1", "u v", ["u", "v"])
    net.parse_node("x2", "x1 t1 + x1 f", ["x1", "t1", "f"])
    net.parse_node("out", "x1 + x2", ["x1", "x2"])
    net.add_po("out")
    return net


#: The two exact backends, which share one sharing rule.
PROVERS = pytest.mark.parametrize(
    "prove",
    [sat_equivalent, exhaustive_equivalent],
    ids=["sat", "exhaustive"],
)


@PROVERS
@pytest.mark.parametrize("change", ["fanin list", "fanin function"])
def test_changed_fanin_is_not_shared(change, prove):
    def build(h, g_fanins):
        net = Network("n")
        for pi in ("p", "q", "r"):
            net.add_pi(pi)
        net.parse_node("h", h, ["p", "q"])
        net.parse_node("g", " ".join(g_fanins), g_fanins)
        net.add_po("g")
        return net

    a = build("p q", ["h", "r"])
    if change == "fanin list":
        # Same name and cover, but g reads p where a's g reads r.
        b = build("p q", ["h", "p"])
    else:
        # Same name, fanin list and cover, but fanin h computes p + q.
        b = build("p + q", ["h", "r"])
    miter = build_miter(a, b)
    assert miter.shared == (1 if change == "fanin list" else 0)
    assert list(miter.diff_vars) == ["g"]
    verdict = prove(a, b)
    assert verdict.status == "different"
    assert (
        a.evaluate(verdict.counterexample)["g"]
        != b.evaluate(verdict.counterexample)["g"]
    )


@PROVERS
@pytest.mark.parametrize("pi_side", ["a", "b"])
def test_pi_on_one_side_only_is_not_shared(pi_side, prove):
    # ``x`` is an AND node on one side and a free input on the other:
    # ``y = x + p`` reads different signals, so the pair differs.
    internal = Network("internal")
    free = Network("free")
    for net in (internal, free):
        net.add_pi("p")
        net.add_pi("q")
    internal.parse_node("x", "p q", ["p", "q"])
    free.add_pi("x")
    for net in (internal, free):
        net.parse_node("y", "x + p", ["x", "p"])
        net.add_po("y")
    a, b = (free, internal) if pi_side == "a" else (internal, free)
    assert build_miter(a, b).shared == 0
    verdict = prove(a, b)
    assert verdict.status == "different"
    assert (
        internal.evaluate(verdict.counterexample)["y"]
        != free.evaluate(verdict.counterexample)["y"]
    )


class TestSubstitution6:
    def test_redundant_node_to_zero_proves_equal(self):
        original, edited = substitution6(), substitution6()
        edited.replace_with_constant("x2", False)
        miter = build_miter(original, edited)
        # t1, t2, t3, u, v, x1 reuse a's variables; x2 and out differ.
        assert miter.shared == 6
        assert list(miter.diff_vars) == ["out"]
        verdict = sat_equivalent(original, edited)
        assert verdict.status == "equal"
        assert verdict.conflicts >= 1

    def test_redundant_node_to_one_is_caught(self):
        original, edited = substitution6(), substitution6()
        edited.replace_with_constant("x2", True)
        verdict = sat_equivalent(original, edited)
        assert verdict.status == "different"
        witness = verdict.counterexample
        assert sorted(witness) == list("abcdef")
        assert original.evaluate(witness)["out"] is False
        assert edited.evaluate(witness)["out"] is True


def test_cnf_stats_and_literal_validation():
    cnf = Cnf()
    v1, v2 = cnf.new_var(), cnf.new_var()
    cnf.add_clause((v1, -v2))
    cnf.add_clause((-v1,))
    stats = cnf.stats()
    assert (stats.variables, stats.clauses, stats.literals) == (2, 2, 3)
    with pytest.raises(ValueError):
        cnf.add_clause((0,))
    with pytest.raises(ValueError):
        cnf.add_clause((5,))
