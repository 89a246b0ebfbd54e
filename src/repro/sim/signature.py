"""Incremental bit-parallel simulation signatures for a whole network.

A *signature* is one Python integer per signal packing the signal's
value under ``num_patterns`` random primary-input patterns (bit ``k``
of the integer = value under pattern ``k`` — the same positional
bitmask idiom as :mod:`repro.twolevel.cube`).  Signatures give a cheap,
sound one-way test for the containment relations Boolean division
rests on: a pattern where cube ``c`` evaluates 1 while cover ``g``
evaluates 0 *proves* no cube of ``g`` contains ``c``; agreement on all
sampled patterns proves nothing (and triggers the exact check).

Per-PI patterns are derived deterministically from ``(seed, PI name)``,
so an incrementally maintained simulator and a from-scratch one over
the same network agree bit-for-bit — the invariant the test suite
checks after every mutation.

:meth:`SignatureSimulator.refresh` maintains the signatures
incrementally: after a network mutation only the dirty nodes and the
part of their transitive fanout whose values actually change are
re-evaluated (propagation stops at nodes whose packed value is
unchanged).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable

from repro.network.network import Network, eval_cover_packed


class SignatureSimulator:
    """Packed-pattern signatures of every signal, kept incrementally.

    ``node_generation[name]`` is bumped every time *name* is
    re-evaluated (whether or not its packed value changed — its cover
    may have), so derived per-cube caches keyed on
    ``(name, node_generation[name])`` are invalidated exactly when they
    can be stale.  ``generation`` is the global mutation counter.
    """

    def __init__(self, network: Network, patterns: int = 256, seed: int = 1):
        if patterns < 1:
            raise ValueError("patterns must be positive")
        self.network = network
        self.num_patterns = patterns
        self.seed = seed
        self.mask = (1 << patterns) - 1
        self.signatures: Dict[str, int] = {}
        self.node_generation: Dict[str, int] = {}
        self.generation = 0
        #: Total node re-evaluations performed by :meth:`refresh`.
        self.nodes_resimulated = 0
        self._simulate_all()
        self._po_baseline = {
            po: self.signatures[po] for po in network.pos
        }

    # ------------------------------------------------------------------
    # Pattern generation / evaluation
    # ------------------------------------------------------------------
    def _pi_pattern(self, name: str) -> int:
        """Deterministic packed stimulus for one PI (order-independent)."""
        rng = random.Random(f"sig:{self.seed}:{name}")
        return rng.getrandbits(self.num_patterns)

    def _eval_node(self, node) -> int:
        fanin_sigs = [self.signatures[f] for f in node.fanins]
        return eval_cover_packed(node.cover, fanin_sigs, self.mask)

    def _simulate_all(self) -> None:
        self.signatures.clear()
        for name in self.network.topo_order():
            node = self.network.nodes[name]
            if node.is_pi:
                self.signatures[name] = self._pi_pattern(name)
            else:
                self.signatures[name] = self._eval_node(node)
            self.node_generation[name] = self.generation

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def po_signatures_clean(self) -> bool:
        """True while every PO signature matches its pre-optimization
        baseline.  False *proves* the network changed function on a
        sampled pattern (used as the acceptance-check pre-pass)."""
        return all(
            self.signatures.get(po) == self._po_baseline.get(po)
            for po in self.network.pos
        )

    def stimulus(self) -> Dict[str, int]:
        """The PI patterns, in :meth:`Network.simulate` format."""
        return {
            pi: self.signatures[pi] for pi in self.network.pis
        }

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def refresh(self, roots: Iterable[str] = ()) -> int:
        """Re-simulate *roots* and the affected part of their fanout.

        Call after mutating the functions of the *roots* nodes (new
        nodes and deletions are discovered automatically).  Walks the
        topological order once, re-evaluating a node only when it is a
        root, is new, or one of its fanins' signatures changed in this
        refresh; propagation therefore stops as soon as packed values
        stabilize.  Returns the number of nodes re-evaluated.
        """
        net = self.network
        for name in list(self.signatures):
            if name not in net.nodes:
                del self.signatures[name]
                self.node_generation.pop(name, None)
        self.generation += 1
        dirty = {root for root in roots if root in net.nodes}
        for name in net.nodes:
            if name not in self.signatures:
                dirty.add(name)
        if not dirty:
            return 0
        changed: set = set()
        count = 0
        for name in net.topo_order():
            node = net.nodes[name]
            if node.is_pi:
                if name not in self.signatures:
                    self.signatures[name] = self._pi_pattern(name)
                    self.node_generation[name] = self.generation
                continue
            if name in dirty or any(f in changed for f in node.fanins):
                old = self.signatures.get(name)
                new = self._eval_node(node)
                count += 1
                self.node_generation[name] = self.generation
                if new != old:
                    self.signatures[name] = new
                    changed.add(name)
        self.nodes_resimulated += count
        return count
