"""Functional verification of networks.

Two mechanisms:

* :func:`networks_equivalent` — exact equivalence by building ROBDDs of
  every primary-output cone over the primary inputs; the reference
  oracle of the test suite and the examples, sharing no code with the
  verdict below.
* :func:`exact_equivalent` — the one exact verdict of the optimizer:
  up to :data:`EXHAUSTIVE_PI_LIMIT` primary inputs it simulates every
  input pattern (:func:`exhaustive_equivalent`), above that it solves
  the SAT miter (:mod:`repro.sat`).  It returns a three-valued
  :class:`~repro.sat.check.Verdict` that records its backend.
* :func:`checked_equivalent` — that verdict under one traced span:
  every exact check of a run and the CLI's final check go through it.

Both exact backends leave out the logic the two networks share by
structure, under one rule (:func:`shared_nodes`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set

from repro.bdd import BddManager
from repro.network.network import Network, eval_cover_packed
from repro.obs.tracer import as_tracer
from repro.twolevel.cube import _var_truth_mask

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


#: PI count up to which ``backend="auto"`` proves by enumerating every
#: input pattern; above it the SAT miter decides.  The measured
#: crossover (DESIGN.md §18): enumeration is about 5x faster than SAT
#: at 20 inputs, ties at 22 and loses from 23 on.
EXHAUSTIVE_PI_LIMIT = 20

#: PIs that vary within one chunk of simulated patterns: a chunk packs
#: ``2**_CHUNK_PIS`` patterns, and every further PI is constant in it.
_CHUNK_PIS = 16


def shared_nodes(a: Network, b: Network) -> Set[str]:
    """Names of the nodes of *b* that compute, by structure alone, the
    function of *a*'s node of the same name.

    PIs share by name, and a name that is a PI on one side only is
    never shared.  Walking *b* in topological order, a node is shared
    when *a* has a node of its name with the same fanin list and
    :class:`~repro.twolevel.cover.Cover`, and all its fanins are
    shared; by induction it then computes the same function of the
    same inputs.  Both exact backends use this one rule: the SAT miter
    gives a shared node *a*'s variable, and the enumeration simulates
    only *a*'s copy.
    """
    shared = {pi for pi in b.pis if pi in a.nodes and a.nodes[pi].is_pi}
    for name in b.topo_order():
        node, twin = b.nodes[name], a.nodes.get(name)
        if (
            twin is not None
            and not node.is_pi
            and node.fanins == twin.fanins
            and node.cover == twin.cover
            and all(f in shared for f in node.fanins)
        ):
            shared.add(name)
    return shared


def _cone(
    network: Network, roots: Iterable[str], stop: Set[str]
) -> List[str]:
    """The transitive fanin of *roots*, roots included, in topological
    order; names in *stop* are neither listed nor entered."""
    order: List[str] = []
    seen = set(stop)
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(network.nodes[root].fanins))]
        while stack:
            name, fanins = stack[-1]
            for fanin in fanins:
                if fanin not in seen:
                    seen.add(fanin)
                    stack.append((fanin, iter(network.nodes[fanin].fanins)))
                    break
            else:
                stack.pop()
                order.append(name)
    return order


def exhaustive_equivalent(a: Network, b: Network) -> "Verdict":
    """Exact combinational equivalence by simulating every input
    pattern of the PI union.

    Only the primary outputs whose node in *b* is not shared
    (:func:`shared_nodes`) can differ.  The simulation covers *b*'s
    unshared nodes in their cones, and *a*'s cone of those outputs and
    of the shared nodes that *b* reads; each side keeps its own values,
    so a name that is a PI on one side and a node on the other is never
    confused.  The PI union is ordered by name, and pattern ``p`` gives
    PI ``i`` the value of bit ``i`` of ``p``.  The first
    :data:`_CHUNK_PIS` PIs vary within a chunk of patterns; the others
    are constant in it, so the cost doubles with each PI beyond those.

    The verdict is never unknown.  A ``"different"`` verdict carries
    the lowest differing pattern as ``{pi: bool}`` over the PI union.
    Networks with different PO name sets are different, without a
    counterexample.
    """
    # lazy: repro.sat imports repro.network
    from repro.sat.check import Verdict

    if sorted(a.pos) != sorted(b.pos):
        return Verdict(verdict=False, backend="exhaustive")
    shared = shared_nodes(a, b)
    open_pos = [po for po in sorted(a.pos) if po not in shared]
    if not open_pos:
        return Verdict(verdict=True, backend="exhaustive")

    order_b = _cone(b, open_pos, shared)
    reads = list(
        dict.fromkeys(
            fanin
            for name in order_b
            for fanin in b.nodes[name].fanins
            if fanin in shared
        )
    )
    order_a = _cone(a, open_pos + reads, set())
    slot_a = {name: i for i, name in enumerate(order_a)}
    slot_b = {name: slot_a[name] for name in reads}
    slot_b.update(
        (name, len(order_a) + i) for i, name in enumerate(order_b)
    )

    pis = sorted(set(a.pis) | set(b.pis))
    position = {pi: i for i, pi in enumerate(pis)}
    inputs = []  # (slot, PI position)
    steps = []  # (slot, cover, fanin slots), in topological order
    for network, order, slots in (
        (a, order_a, slot_a),
        (b, order_b, slot_b),
    ):
        for name in order:
            node = network.nodes[name]
            if node.is_pi:
                inputs.append((slots[name], position[name]))
            else:
                fanins = [slots[f] for f in node.fanins]
                steps.append((slots[name], node.cover, fanins))
    outputs = [(slot_a[po], slot_b[po]) for po in open_pos]

    low = min(len(pis), _CHUNK_PIS)
    mask = (1 << (1 << low)) - 1
    stimulus = [_var_truth_mask(low, i) for i in range(low)]
    values = [0] * (len(order_a) + len(order_b))
    for chunk in range(1 << (len(pis) - low)):
        for slot, i in inputs:
            if i < low:
                values[slot] = stimulus[i]
            else:
                values[slot] = mask if (chunk >> (i - low)) & 1 else 0
        for slot, cover, fanins in steps:
            values[slot] = eval_cover_packed(
                cover, [values[f] for f in fanins], mask
            )
        diff = 0
        for left, right in outputs:
            diff |= values[left] ^ values[right]
        if diff:
            pattern = (chunk << low) | ((diff & -diff).bit_length() - 1)
            return Verdict(
                verdict=False,
                backend="exhaustive",
                counterexample={
                    pi: bool(pattern >> i & 1) for i, pi in enumerate(pis)
                },
            )
    return Verdict(verdict=True, backend="exhaustive")


def exact_equivalent(
    a: Network,
    b: Network,
    backend: str = "auto",
    conflict_budget: Optional[int] = None,
    tracer=None,
) -> "Verdict":
    """Exact combinational equivalence through the selected backend.

    ``"auto"`` runs :func:`exhaustive_equivalent` up to
    :data:`EXHAUSTIVE_PI_LIMIT` primary inputs of the two networks
    together, and the SAT miter above; ``backend="sat"`` always solves
    the miter.  A solve runs under *conflict_budget* (``None``:
    :data:`repro.sat.check.DEFAULT_CONFLICT_BUDGET`); the enumeration
    has no budget and always completes.

    The returned verdict is truthy only for a completed proof of
    equality.  A SAT solve that exhausts its budget returns an
    ``unknown`` verdict, never a guess; each caller decides what an
    unknown costs it (roll back, reject, keep the wire, fail the run).
    No span is opened here: a SAT solve records its own ``sat_solve``
    span directly under the caller's span.
    """
    if backend not in ("auto", "sat"):
        raise ValueError(f"unknown verify backend {backend!r}")
    if (
        backend == "auto"
        and len(set(a.pis) | set(b.pis)) <= EXHAUSTIVE_PI_LIMIT
    ):
        return exhaustive_equivalent(a, b)
    from repro.sat import check  # lazy: repro.sat imports repro.network

    if conflict_budget is None:
        conflict_budget = check.DEFAULT_CONFLICT_BUDGET
    return check.sat_equivalent(
        a, b, conflict_budget=conflict_budget, tracer=tracer
    )


def checked_equivalent(
    a: Network,
    b: Network,
    tracer,
    kind: str = "verify",
    backend: str = "auto",
    conflict_budget: Optional[int] = None,
    stats=None,
    **attrs,
) -> "Verdict":
    """:func:`exact_equivalent` under one *kind* span.

    The span opens with the caller's *attrs* and is annotated with the
    verdict's ``backend``, ``status`` and ``ok``; a SAT solve nests its
    ``sat_solve`` span beneath it.  *stats* (a
    :class:`~repro.core.substitution.SubstitutionStats`), when given,
    counts the solver work.
    """
    tracer = as_tracer(tracer)
    with tracer.span(kind, **attrs) as span:
        verdict = exact_equivalent(
            a,
            b,
            backend=backend,
            conflict_budget=conflict_budget,
            tracer=tracer,
        )
        if stats is not None:
            stats.add_solver_work(verdict)
        span.annotate(
            backend=verdict.backend, status=verdict.status, ok=bool(verdict)
        )
    return verdict
