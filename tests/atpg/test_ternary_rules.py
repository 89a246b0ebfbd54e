"""The implication engine's direct rules against three-valued tables.

Signals are 0, 1 or unknown (``None``).  On one two-input gate, with
every edge-phase combination, the engine's forward implication must
give exactly the Kleene value of the gate over the known inputs, and
its backward implication must fix exactly the values that every
consistent completion of the gate agrees on, or report a conflict
when none is consistent.  On a single gate the direct rules are
complete, so nothing short of that is correct.
"""

import itertools

import pytest

from repro.atpg.implication import imply
from repro.circuit.circuit import Circuit

TERNARY = (False, True, None)
KINDS = ("and", "or")
PHASES = list(itertools.product((True, False), repeat=2))


def kleene(kind, literals):
    """Three-valued AND/OR over literal values (``None`` = unknown)."""
    controlling = kind == "or"
    if controlling in literals:
        return controlling
    if None in literals:
        return None
    return not controlling


def literal(value, phase):
    return value if value is None or phase else not value


def gate(kind, phases) -> Circuit:
    circuit = Circuit()
    circuit.add_pi("a")
    circuit.add_pi("b")
    edges = [("a", phases[0]), ("b", phases[1])]
    if kind == "and":
        circuit.add_and("g", edges)
    else:
        circuit.add_or("g", edges)
    return circuit


def known(**values):
    return [(name, v) for name, v in values.items() if v is not None]


def label(value):
    return "x" if value is None else str(int(value))


@pytest.mark.parametrize(
    "kind,a,b",
    list(itertools.product(KINDS, TERNARY, TERNARY)),
    ids=lambda v: v if isinstance(v, str) else label(v),
)
def test_forward_matches_kleene_table(kind, a, b):
    for phases in PHASES:
        state = imply(gate(kind, phases), known(a=a, b=b))
        assert state is not None
        expected = kleene(
            kind, (literal(a, phases[0]), literal(b, phases[1]))
        )
        assert state.value("g") is expected, phases


@pytest.mark.parametrize(
    "kind,out,a",
    list(itertools.product(KINDS, (False, True), TERNARY)),
    ids=lambda v: v if isinstance(v, str) else label(v),
)
def test_backward_fixes_what_every_completion_agrees_on(kind, out, a):
    for phases in PHASES:
        completions = [
            (va, vb)
            for va, vb in itertools.product((False, True), repeat=2)
            if (a is None or va is a)
            and kleene(kind, (literal(va, phases[0]), literal(vb, phases[1])))
            is out
        ]
        state = imply(gate(kind, phases), known(g=out, a=a))
        if not completions:
            assert state is None, phases
            continue
        assert state is not None, phases
        for position, name in enumerate("ab"):
            seen = {completion[position] for completion in completions}
            forced = seen.pop() if len(seen) == 1 else None
            assert state.value(name) is forced, (phases, name)
