"""Signature-based pruning of hopeless division candidates.

Basic Boolean division of ``f`` by ``d`` (see :mod:`repro.core.division`)
only does anything when the Lemma-1 region is non-empty: some cube of
the dividend must be contained in some cube of the divisor candidate
cover.  Cube containment ``k ⊇ c`` implies on-set containment, which
holds in particular on every simulated pattern, so::

    sig(c) & ~sig(k) != 0   ⇒   k does not contain c  (a *proof*)

The filter evaluates this per (dividend cube, divisor cube) pair for
each of the four (phase, form) attempt variants and reports which
variants could possibly produce a non-empty region.  A variant (or a
whole divisor) is pruned only when the signatures *prove* every region
empty — exactly the cases where :func:`repro.core.division.boolean_divide`
would return ``None`` — so pruning never changes the result of a
substitution run, only skips work (see ``tests/core/
test_sim_filter_property.py`` for the machine-checked version of this
argument).

Variant-to-signature mapping (``eff_phase`` as in ``boolean_divide``):

================  ========================  =========================
attempt           dividend cubes            divisor candidate cover
================  ========================  =========================
(True,  "sop")    cubes of ``f``            ``d``          (sop sigs)
(False, "sop")    cubes of ``f``            ``d'``         (pos sigs)
(True,  "pos")    cubes of ``f'``           ``d'``         (pos sigs)
(False, "pos")    cubes of ``f'``           ``d``          (sop sigs)
================  ========================  =========================

When ``d`` is already a fanin of ``f``, ``boolean_divide`` additionally
tries the single-literal candidate ``y``/``y'``; its signature is the
node signature ``sig(d)`` (resp. its complement), which the tests
include.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.network import Network, eval_cube_packed
from repro.twolevel.complement import complement
from repro.core.config import DivisionConfig
from repro.core.division import ALL_ATTEMPTS, enabled_attempts
from repro.sim.cache import LRUCache
from repro.sim.signature import SignatureSimulator
from repro.sim.witness import WitnessScreen


class DivisorFilter:
    """Sound one-way candidate filter over a :class:`SignatureSimulator`.

    Owns two LRU caches:

    * cube signatures per ``(node, form, generation)`` — the packed
      values of each cube of the node's cover (``form="sop"``) or of
      its complement cover (``form="pos"``),
    * containment verdicts per ``(f, gen_f, d, gen_d)`` — the tuple of
      surviving attempt variants for a dividend/divisor pair.

    Both keys embed the owning nodes' mutation generations, so a
    :meth:`note_mutation` call (which re-simulates the fanout cone)
    makes every stale entry unreachable; nothing is purged explicitly.
    """

    def __init__(self, network: Network, config: DivisionConfig):
        self.network = network
        self.config = config
        self.sim = SignatureSimulator(
            network, patterns=config.sim_patterns, seed=config.sim_seed
        )
        #: The witness screen the division engine puts in front of its
        #: implication tests, over the same signatures.
        self.screen = WitnessScreen(self.sim)
        self._sig_cache = LRUCache(config.sim_cache_size)
        self._verdict_cache = LRUCache(config.containment_cache_size)
        self._enabled = tuple(enabled_attempts(config))

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return self._sig_cache.hits + self._verdict_cache.hits

    @property
    def cache_misses(self) -> int:
        return self._sig_cache.misses + self._verdict_cache.misses

    def note_mutation(self, roots: Sequence[str]) -> int:
        """Declare the *roots* nodes rewritten; re-simulate their cones.

        Must be called after every network mutation while the filter is
        live (generation bumps invalidate the caches for the affected
        nodes).  Returns the number of nodes re-simulated.
        """
        return self.sim.refresh(roots)

    # ------------------------------------------------------------------
    # Signatures
    # ------------------------------------------------------------------
    def cube_signatures(self, name: str, form: str) -> Tuple[int, ...]:
        """Packed values of each cube of *name*'s cover (or its
        complement cover for ``form="pos"``), LRU-cached per mutation
        generation."""
        key = (name, form, self.sim.node_generation[name])
        cached = self._sig_cache.get(key)
        if cached is not None:
            return cached
        node = self.network.nodes[name]
        cover = node.cover if form == "sop" else complement(node.cover)
        fanin_sigs = [self.sim.signatures[f] for f in node.fanins]
        sigs = tuple(
            eval_cube_packed(cube, fanin_sigs, self.sim.mask)
            for cube in cover.cubes
        )
        self._sig_cache.put(key, sigs)
        return sigs

    # ------------------------------------------------------------------
    # The filter
    # ------------------------------------------------------------------
    @staticmethod
    def _containment_possible(
        dividend_sigs: Sequence[int],
        divisor_sigs: Sequence[int],
        literal_sig: Optional[int],
    ) -> bool:
        """Could any dividend cube be contained in a candidate cube?

        *literal_sig* is the single-literal candidate's signature when
        the divisor is a fanin of the dividend, else ``None``.  Returns
        False only when every containment is refuted by some pattern.
        """
        for c in dividend_sigs:
            if literal_sig is not None and c & ~literal_sig == 0:
                return True
            for k in divisor_sigs:
                if c & ~k == 0:
                    return True
        return False

    def viable_attempts(
        self, f_name: str, d_name: str
    ) -> Tuple[Tuple[bool, str], ...]:
        """The enabled (phase, form) variants not refuted by signatures.

        An empty result proves ``divide_node_pair(f, d)`` returns
        ``None`` on the current network, so the pair can be skipped
        outright.
        """
        gen = self.sim.node_generation
        key = (f_name, gen[f_name], d_name, gen[d_name])
        cached = self._verdict_cache.get(key)
        if cached is not None:
            return cached

        sig_d = self.sim.signatures[d_name]
        not_d = self.sim.mask & ~sig_d
        is_fanin = d_name in self.network.nodes[f_name].fanins
        verdict: List[Tuple[bool, str]] = []
        for phase, form in self._enabled:
            dividend_sigs = self.cube_signatures(f_name, form)
            eff_phase = phase if form == "sop" else not phase
            if eff_phase:
                divisor_sigs = self.cube_signatures(d_name, "sop")
                literal_sig = sig_d if is_fanin else None
            else:
                divisor_sigs = self.cube_signatures(d_name, "pos")
                literal_sig = not_d if is_fanin else None
            if self._containment_possible(
                dividend_sigs, divisor_sigs, literal_sig
            ):
                verdict.append((phase, form))
        result = tuple(verdict)
        self._verdict_cache.put(key, result)
        return result
