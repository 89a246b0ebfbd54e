"""Functional verification of networks.

Three mechanisms:

* :func:`simulate_equivalent` — fast bit-parallel random simulation;
  a cheap screen (a mismatch proves inequivalence, agreement proves
  nothing), used for the commit ledger's spot checks.
* :func:`networks_equivalent` — exact equivalence by building ROBDDs of
  every primary-output cone over the primary inputs; used by the test
  suite as the oracle for every rewrite.
* :func:`exact_equivalent` — the one exact verdict of the optimizer:
  it picks BDDs or the SAT miter (:mod:`repro.sat`) and returns a
  three-valued :class:`~repro.sat.check.Verdict` that records its
  backend.  Every exact check in the program goes through it.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.bdd import BddManager
from repro.network.network import Network

if TYPE_CHECKING:
    from repro.sat.check import Verdict


def network_output_bdds(
    network: Network,
    pi_order: Optional[List[str]] = None,
    manager: Optional[BddManager] = None,
) -> Dict[str, int]:
    """BDDs of each primary output over the primary inputs.

    *pi_order* fixes the manager's variable ordering; it must cover all
    PIs of the network (extra names are allowed so two networks with
    different PI sets can share an ordering).  Pass the same *manager*
    for two networks to make the returned node ids comparable —
    hash-consing only canonicalizes within one manager.
    """
    if pi_order is None:
        pi_order = sorted(network.pis)
    index = {name: i for i, name in enumerate(pi_order)}
    missing = [pi for pi in network.pis if pi not in index]
    if missing:
        raise ValueError(f"pi_order is missing inputs: {missing}")
    if manager is None:
        manager = BddManager(len(pi_order))
    elif manager.num_vars < len(pi_order):
        raise ValueError("shared manager has too few variables")

    values: Dict[str, int] = {}
    for name in network.topo_order():
        node = network.nodes[name]
        if node.is_pi:
            values[name] = manager.var(index[name])
            continue
        fanin_bdds = [values[f] for f in node.fanins]
        cube_bdds = []
        for cube in node.cover.cubes:
            term = 1  # BDD_ONE
            for var, phase in cube.literals():
                operand = fanin_bdds[var]
                if not phase:
                    operand = manager.not_(operand)
                term = manager.and_(term, operand)
                if term == 0:
                    break
            cube_bdds.append(term)
        values[name] = manager.or_many(cube_bdds)
    return {po: values[po] for po in network.pos}


def networks_equivalent(a: Network, b: Network) -> bool:
    """Exact combinational equivalence (same PO names, same PI names)."""
    if sorted(a.pos) != sorted(b.pos):
        return False
    pi_order = sorted(set(a.pis) | set(b.pis))
    manager = BddManager(len(pi_order))
    bdds_a = network_output_bdds(a, pi_order, manager)
    bdds_b = network_output_bdds(b, pi_order, manager)
    return all(bdds_a[po] == bdds_b[po] for po in a.pos)


#: PI count above which ``backend="auto"`` stops building BDD cones
#: and hands the miter to the SAT engine instead.
SAT_PI_THRESHOLD = 16


def exact_equivalent(
    a: Network,
    b: Network,
    backend: str = "auto",
    conflict_budget: Optional[int] = None,
    tracer=None,
) -> "Verdict":
    """Exact combinational equivalence through the selected backend.

    ``backend="bdd"`` runs :func:`networks_equivalent`;
    ``backend="sat"`` solves the CNF miter under *conflict_budget*
    (``None``: :data:`repro.sat.check.DEFAULT_CONFLICT_BUDGET`);
    ``"auto"`` uses BDDs up to :data:`SAT_PI_THRESHOLD` primary inputs
    (where cones are cheap and the answer is instant) and SAT above.

    The returned verdict is truthy only for a completed proof of
    equality.  A SAT solve that exhausts its budget returns an
    ``unknown`` verdict, never a guess; each caller decides what an
    unknown costs it (roll back, reject, keep the wire, fail the run).
    No span is opened here: a SAT solve records its own ``sat_solve``
    span directly under the caller's span.
    """
    if backend not in ("auto", "bdd", "sat"):
        raise ValueError(f"unknown verify backend {backend!r}")
    from repro.sat import check  # lazy: repro.sat imports repro.network

    if backend == "auto":
        n_pis = len(set(a.pis) | set(b.pis))
        backend = "bdd" if n_pis <= SAT_PI_THRESHOLD else "sat"
    if backend == "bdd":
        return check.Verdict(networks_equivalent(a, b), backend="bdd")
    if conflict_budget is None:
        conflict_budget = check.DEFAULT_CONFLICT_BUDGET
    return check.sat_equivalent(
        a, b, conflict_budget=conflict_budget, tracer=tracer
    )


def simulate_equivalent(
    a: Network,
    b: Network,
    patterns: int = 256,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> bool:
    """Random-pattern screen: False proves inequivalence; True is only
    probabilistic evidence of equivalence."""
    if sorted(a.pos) != sorted(b.pos):
        return False
    if sorted(a.pis) != sorted(b.pis):
        return False
    if rng is None:
        rng = random.Random(seed)
    stimulus = {
        pi: rng.getrandbits(patterns) for pi in a.pis
    }
    values_a = a.simulate(stimulus, width=patterns)
    values_b = b.simulate(stimulus, width=patterns)
    return all(values_a[po] == values_b[po] for po in a.pos)


def simulate_equivalent_prescreened(
    reference: Network,
    network: Network,
    sim=None,
    patterns: int = 256,
    seed: int = 0,
) -> bool:
    """:func:`simulate_equivalent` with a maintained-signature pre-pass.

    *sim* is an up-to-date
    :class:`~repro.sim.signature.SignatureSimulator` over *network*
    (or ``None``).  Its primary-output signatures were baselined before
    optimization started, so a mismatch now is a *proof* that some
    rewrite changed the network's function on a sampled pattern — the
    expensive two-network re-simulation can be skipped.  Agreement
    proves nothing and falls through to the full screen.
    """
    if sim is not None and not sim.po_signatures_clean():
        return False
    return simulate_equivalent(
        reference, network, patterns=patterns, seed=seed
    )
