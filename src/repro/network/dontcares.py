"""Structural don't-care computation (SDC/ODC) and full_simplify.

The paper's GDC configuration exploits internal don't cares through
implications; this module computes the same information *explicitly*
with BDDs, which serves three purposes:

* an independent oracle for testing the implication-based machinery
  (anything the implications deduce must be inside these sets),
* SIS's ``full_simplify``: per-node espresso against the node's
  complete local don't-care set,
* documentation of what "satisfiability" and "observability" don't
  cares mean operationally.

For a node ``n`` with fanins ``y1..yk``:

* the **satisfiability don't cares** (SDCs) are the fanin patterns
  that can never appear: ``NOT ∃x . ∧ (yi == Yi(x))``,
* the **observability don't cares** (ODCs) are the fanin patterns
  under which flipping ``n`` changes no primary output.

Both are returned as covers over the node's fanin variables.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bdd import BDD_ONE, BDD_ZERO, BddManager
from repro.twolevel.cover import Cover
from repro.twolevel.minimize import espresso
from repro.network.network import Network


def _cover_bdd(manager: BddManager, cover: Cover, fanin_bdds: List[int]) -> int:
    """BDD of *cover* with variable ``i`` bound to ``fanin_bdds[i]``."""
    acc = BDD_ZERO
    for cube in cover.cubes:
        term = BDD_ONE
        for var, phase in cube.literals():
            operand = fanin_bdds[var]
            if not phase:
                operand = manager.not_(operand)
            term = manager.and_(term, operand)
            if term == BDD_ZERO:
                break
        acc = manager.or_(acc, term)
    return acc


class DontCareComputer:
    """Computes local don't-care sets for nodes of one network.

    The network must not change between calls; build a new computer
    after rewrites.  Intended for small/medium networks (everything
    is expressed in PI space).

    Every query walks the node's fanin minterms the same way
    (:meth:`_fanin_minterms`): depth first, one fanin per level, with a
    branch pruned as soon as its PI-space condition is unsatisfiable.
    :meth:`unobservable_patterns` also splits a set of simulated
    patterns along the walk and prunes the branches no pattern
    reaches, so it tests observability only at the minterms the
    samples hit: on a 14-fanin node and 256 patterns, at most 256
    leaves instead of 16,384 minterms, with a result equal bit for bit
    to evaluating the full :meth:`observability_dc` cover on the
    patterns.
    """

    def __init__(self, network: Network, max_pis: int = 24):
        if len(network.pis) > max_pis:
            raise ValueError(
                f"network has {len(network.pis)} PIs; "
                f"don't-care computation is capped at {max_pis}"
            )
        self.network = network
        pi_index = {name: i for i, name in enumerate(sorted(network.pis))}
        self._manager = manager = BddManager(len(pi_index))
        self._topo = network.topo_order()
        self._global: Dict[str, int] = {}
        for name in self._topo:
            node = network.nodes[name]
            if node.is_pi:
                self._global[name] = manager.var(pi_index[name])
            else:
                self._global[name] = _cover_bdd(
                    manager,
                    node.cover,
                    [self._global[f] for f in node.fanins],
                )

    # ------------------------------------------------------------------
    def _fanins(self, name: str) -> List[str]:
        node = self.network.nodes[name]
        if node.cover is None:
            raise ValueError("primary inputs have no don't cares")
        return node.fanins

    def _fanin_minterms(
        self,
        fanins: Sequence[str],
        sigs: Optional[Sequence[int]] = None,
        patterns: int = 0,
    ) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(minterm, condition, klass)`` per reachable minterm.

        Bit ``i`` of *minterm* is the value of ``fanins[i]``;
        *condition* is the PI-space BDD of the fanins taking those
        values (never zero: unreachable minterms are pruned).  With
        *sigs* (the fanins' packed simulation signatures), *patterns*
        is split along the walk: *klass* is the set of those patterns
        under which the fanins take the minterm's values, and a
        minterm no pattern reaches is pruned too.
        """
        manager = self._manager
        literals = []
        for fanin in fanins:
            g = self._global[fanin]
            literals.append((manager.not_(g), g))
        size = len(fanins)
        stack = [(0, 0, BDD_ONE, patterns)]
        while stack:
            depth, minterm, condition, klass = stack.pop()
            if depth == size:
                yield minterm, condition, klass
                continue
            for value in (0, 1):
                branch_klass = klass
                if sigs is not None:
                    sig = sigs[depth]
                    branch_klass &= sig if value else ~sig
                    if not branch_klass:
                        continue
                branch = manager.and_(condition, literals[depth][value])
                if branch == BDD_ZERO:
                    continue
                stack.append(
                    (depth + 1, minterm | value << depth, branch, branch_klass)
                )

    # ------------------------------------------------------------------
    def satisfiability_dc(self, name: str) -> Cover:
        """SDC cover of node *name* over its fanin variables.

        A fanin minterm ``m`` is a don't care iff no PI assignment
        produces exactly that combination of fanin values.
        """
        fanins = self._fanins(name)
        reachable = {m for m, _, _ in self._fanin_minterms(fanins)}
        return Cover.from_minterms(
            (m for m in range(1 << len(fanins)) if m not in reachable),
            len(fanins),
        )

    # ------------------------------------------------------------------
    def observability_dc(self, name: str) -> Cover:
        """ODC cover of node *name* over its fanin variables.

        A fanin minterm is observability-don't-care iff, for every PI
        assignment producing it, forcing the node to 0 or to 1 yields
        identical primary outputs.  Unreachable minterms belong to the
        SDC set instead and are left out.
        """
        fanins = self._fanins(name)
        insensitive = self._insensitive(name)
        implies = self._manager.implies
        return Cover.from_minterms(
            (
                m
                for m, condition, _ in self._fanin_minterms(fanins)
                if implies(condition, insensitive)
            ),
            len(fanins),
        )

    def unobservable_patterns(
        self, name: str, fanin_sigs: Sequence[int], patterns: int
    ) -> int:
        """The simulated *patterns* under which *name* is unobservable.

        *fanin_sigs* are the packed signatures of the node's fanins
        (simulated on this network) and *patterns* the bitmask of
        patterns to classify.  Equal to
        ``eval_cover_packed(self.observability_dc(name), fanin_sigs,
        patterns)``, but observability is tested only at the fanin
        minterms some pattern reaches.
        """
        fanins = self._fanins(name)
        insensitive = self._insensitive(name)
        if insensitive == BDD_ZERO:
            return 0  # every reachable minterm is observable
        implies = self._manager.implies
        unobservable = 0
        for _, condition, klass in self._fanin_minterms(
            fanins, fanin_sigs, patterns
        ):
            if implies(condition, insensitive):
                unobservable |= klass
        return unobservable

    def _insensitive(self, name: str) -> int:
        """PI-space BDD of the assignments under which no PO depends on
        *name*: the complement of OR over POs of (PO with *name* = 1)
        XOR (PO with *name* = 0).  Only the transitive fanout of
        *name* is re-evaluated with the node forced."""
        manager = self._manager
        fanout = self.network.transitive_fanout(name)
        cone = [other for other in self._topo if other in fanout]
        high = self._outputs_with_node_forced(name, BDD_ONE, cone)
        low = self._outputs_with_node_forced(name, BDD_ZERO, cone)
        sensitive = BDD_ZERO
        for po_high, po_low in zip(high, low):
            sensitive = manager.or_(sensitive, manager.xor(po_high, po_low))
        return manager.not_(sensitive)

    def _outputs_with_node_forced(
        self, name: str, value: int, cone: Sequence[str]
    ) -> List[int]:
        forced: Dict[str, int] = dict(self._global)
        forced[name] = value
        for other in cone:
            node = self.network.nodes[other]
            forced[other] = _cover_bdd(
                self._manager, node.cover, [forced[f] for f in node.fanins]
            )
        return [forced[po] for po in self.network.pos]

    # ------------------------------------------------------------------
    def local_dc(self, name: str) -> Cover:
        """Full local don't-care set: SDC + ODC."""
        sdc = self.satisfiability_dc(name)
        odc = self.observability_dc(name)
        return sdc.union(odc).single_cube_containment()


def full_simplify(
    network: Network, max_fanins: int = 10, max_pis: int = 24
) -> int:
    """SIS-style ``full_simplify``: espresso each node against its
    complete local don't-care set.  Returns nodes improved."""
    if len(network.pis) > max_pis:
        return 0
    improved = 0
    for name in [n.name for n in network.internal_nodes()]:
        node = network.nodes.get(name)
        if node is None or node.cover is None or node.is_constant():
            continue
        if len(node.fanins) > max_fanins:
            continue
        computer = DontCareComputer(network, max_pis=max_pis)
        dc = computer.local_dc(name)
        minimized = espresso(node.cover, dc)
        before = (node.cover.num_cubes(), node.cover.num_literals())
        after = (minimized.num_cubes(), minimized.num_literals())
        if after < before:
            node.set_function(list(node.fanins), minimized)
            node.prune_unused_fanins()
            improved += 1
    network.sweep_dangling()
    return improved
