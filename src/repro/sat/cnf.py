"""Tseitin CNF encoding of networks, circuits, and equivalence miters.

The SAT backend reasons about the same two object kinds the rest of
the engine manipulates:

* :class:`~repro.network.network.Network` nodes carry SOP covers; each
  cover is encoded cube by cube (one definition variable per
  multi-literal cube, then the node variable is the OR of its cube
  variables) so the encoding is linear in the cover's literal count.
* :class:`~repro.circuit.circuit.Circuit` gates are plain AND/OR with
  phased input edges — the structural view ATPG works on — and encode
  directly.

Both encoders produce *equivalence* (two-sided) Tseitin definitions:
an assignment satisfies the clauses iff every defined variable equals
the function of its fanins.  That is what the round-trip tests assert,
and it is what makes the miter construction sound in both directions
(SAT ⇒ true counterexample, UNSAT ⇒ equivalence).

Literals are DIMACS-style signed integers: variable ``v`` is the
positive literal ``v``, its negation ``-v``.  Variable 0 is never
used.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

from repro.network.network import Network
from repro.network.verify import shared_nodes


@dataclasses.dataclass(frozen=True)
class CnfStats:
    """Size of one CNF formula (what the spans/counters report)."""

    variables: int
    clauses: int
    literals: int


class Cnf:
    """A growing CNF formula: a variable counter and a clause list."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: List[Tuple[int, ...]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: Iterable[int]) -> None:
        clause = tuple(literals)
        for lit in clause:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} out of range")
        self.clauses.append(clause)

    def stats(self) -> CnfStats:
        return CnfStats(
            variables=self.num_vars,
            clauses=len(self.clauses),
            literals=sum(len(c) for c in self.clauses),
        )


# ----------------------------------------------------------------------
# Network (SOP cover) encoding
# ----------------------------------------------------------------------
def _define_and(cnf: Cnf, out: int, literals: List[int]) -> None:
    """Clauses for ``out <-> AND(literals)`` (empty AND is constant 1)."""
    if not literals:
        cnf.add_clause((out,))
        return
    for lit in literals:
        cnf.add_clause((-out, lit))
    cnf.add_clause((out,) + tuple(-lit for lit in literals))


def _define_or(cnf: Cnf, out: int, literals: List[int]) -> None:
    """Clauses for ``out <-> OR(literals)`` (empty OR is constant 0)."""
    if not literals:
        cnf.add_clause((-out,))
        return
    for lit in literals:
        cnf.add_clause((out, -lit))
    cnf.add_clause((-out,) + tuple(literals))


def encode_network(
    cnf: Cnf,
    network: Network,
    var_map: Optional[Dict[str, int]] = None,
) -> Dict[str, int]:
    """Tseitin-encode every node of *network* into *cnf*.

    Returns a map from node name to its CNF variable.  A name
    pre-seeded in *var_map* counts as already encoded: it keeps its
    variable and gets no clauses, which is how the miter construction
    shares inputs and structurally identical nodes between two
    encodings.  Missing entries are allocated.  Encoding walks the
    topological order, so the map covers every node of the network on
    return.
    """
    values: Dict[str, int] = {} if var_map is None else var_map
    for name in network.topo_order():
        if name in values:
            continue
        node = network.nodes[name]
        out = values[name] = cnf.new_var()
        if node.is_pi:
            continue
        fanin_vars = [values[f] for f in node.fanins]
        cube_lits: List[int] = []
        constant_one = False
        for cube in node.cover.cubes:
            signed = [
                fanin_vars[var] if phase else -fanin_vars[var]
                for var, phase in cube.literals()
            ]
            if not signed:
                # The full cube: the whole cover is constant 1.
                constant_one = True
                break
            if len(signed) == 1:
                # A one-literal cube needs no definition variable.
                cube_lits.append(signed[0])
                continue
            t = cnf.new_var()
            _define_and(cnf, t, signed)
            cube_lits.append(t)
        if constant_one:
            cnf.add_clause((out,))
        else:
            _define_or(cnf, out, cube_lits)
    return values


# ----------------------------------------------------------------------
# Circuit (structural gate) encoding
# ----------------------------------------------------------------------
def encode_circuit(
    cnf: Cnf,
    circuit,
    var_map: Optional[Dict[str, int]] = None,
) -> Dict[str, int]:
    """Tseitin-encode a :class:`~repro.circuit.circuit.Circuit`.

    Input-edge phases fold into literal signs; CONST0/CONST1 gates
    become unit clauses.  Same sharing contract as
    :func:`encode_network`.
    """
    from repro.circuit.gate import GateKind

    values: Dict[str, int] = {} if var_map is None else var_map
    for name in circuit.topo_order():
        gate = circuit.gates[name]
        out = values.get(name)
        if out is None:
            out = values[name] = cnf.new_var()
        if gate.kind == GateKind.PI:
            continue
        if gate.kind == GateKind.CONST0:
            cnf.add_clause((-out,))
            continue
        if gate.kind == GateKind.CONST1:
            cnf.add_clause((out,))
            continue
        signed = [
            values[signal] if phase else -values[signal]
            for signal, phase in gate.inputs
        ]
        if gate.kind == GateKind.AND:
            _define_and(cnf, out, signed)
        else:
            _define_or(cnf, out, signed)
    return values


# ----------------------------------------------------------------------
# Equivalence miter
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Miter:
    """A network-equivalence miter: SAT exactly on differing inputs."""

    cnf: Cnf
    #: Shared primary-input variables (union of both PI sets).
    pi_vars: Dict[str, int]
    #: Difference variables of the POs whose two sides kept distinct
    #: variables (``po -> var``); the formula asserts their
    #: disjunction.
    diff_vars: Dict[str, int]
    #: Internal nodes of ``b`` that reuse ``a``'s variable.
    shared: int


def build_miter(a: Network, b: Network) -> Miter:
    """XOR paired primary outputs of two networks over shared PIs.

    The caller guarantees ``sorted(a.pos) == sorted(b.pos)``.  PIs are
    matched by name (the union is allocated first, in sorted order, so
    variable numbering is deterministic); a PI one network lacks is a
    free input to the other.  A node of ``b`` that
    :func:`~repro.network.verify.shared_nodes` proves equal to ``a``'s
    node of its name takes ``a``'s variable and emits no clauses; the
    enumeration backend follows the same rule.  A PO whose two sides
    share one variable needs no XOR, so a pair with no differing PO is
    the empty clause.  The returned formula is satisfiable iff some
    input assignment makes at least one paired output differ — i.e.
    UNSAT proves equivalence.
    """
    if sorted(a.pos) != sorted(b.pos):
        raise ValueError("miter requires identical primary-output names")
    cnf = Cnf()
    pi_vars: Dict[str, int] = {}
    for pi in sorted(set(a.pis) | set(b.pis)):
        pi_vars[pi] = cnf.new_var()
    values_a = encode_network(cnf, a, {pi: pi_vars[pi] for pi in a.pis})
    # b's PIs, then every internal node that reuses a's variable.
    shared = [
        name for name in shared_nodes(a, b) if not b.nodes[name].is_pi
    ]
    known = {pi: pi_vars[pi] for pi in b.pis}
    known.update((name, values_a[name]) for name in shared)
    values_b = encode_network(cnf, b, known)
    diff_vars: Dict[str, int] = {}
    for po in sorted(a.pos):
        va, vb = values_a[po], values_b[po]
        if va == vb:
            continue
        x = cnf.new_var()
        # x <-> (va XOR vb)
        cnf.add_clause((-x, va, vb))
        cnf.add_clause((-x, -va, -vb))
        cnf.add_clause((x, -va, vb))
        cnf.add_clause((x, va, -vb))
        diff_vars[po] = x
    cnf.add_clause(tuple(diff_vars[po] for po in sorted(diff_vars)))
    return Miter(
        cnf=cnf, pi_vars=pi_vars, diff_vars=diff_vars, shared=len(shared)
    )
