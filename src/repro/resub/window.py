"""Divisor windows for simulation-guided resubstitution.

A *window* for a target node ``f`` is a small, ordered pool of
signals whose signatures the resynthesis core may combine into a
replacement function for ``f``.  Any signal outside ``f``'s
transitive fanout is structurally legal (using it cannot create a
cycle); the ranking below decides which few of those legal signals
are worth enumerating subsets over.

Ranking is pure structure — no randomness, no hashes over unordered
sets — so the engine's output is deterministic for a given network:

1. ``f``'s current fanins come first (re-expressing a node over its
   own support is the cheapest win and what classic resubstitution
   tries before anything else),
2. then signals whose PI support overlaps ``f``'s cone the most
   (shared support is a necessary condition for a useful divisor —
   a signal over disjoint PIs can only contribute as a constant),
3. ties broken by topological position (earlier first), which is
   itself deterministic because :meth:`Network.topo_order` follows
   creation order.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Set, Tuple

from repro.network.network import Network

#: Divisor candidates collected into each target's window, best-ranked
#: first; the resynthesis core enumerates subsets of this pool.
WINDOW_SIZE = 12


@dataclasses.dataclass(frozen=True)
class Window:
    """An ordered divisor pool for one target node."""

    target: str
    #: Candidate divisor names, best-ranked first, already truncated
    #: to :data:`WINDOW_SIZE`.
    divisors: Tuple[str, ...]


def pi_supports(network: Network) -> Dict[str, Set[str]]:
    """PI support of every signal, in one topological sweep."""
    supports: Dict[str, Set[str]] = {}
    for name in network.topo_order():
        node = network.nodes[name]
        if node.is_pi:
            supports[name] = {name}
        else:
            acc: Set[str] = set()
            for fanin in node.fanins:
                acc |= supports[fanin]
            supports[name] = acc
    return supports


def build_window(
    network: Network,
    f_name: str,
    *,
    topo_index: Optional[Dict[str, int]] = None,
    supports: Optional[Dict[str, Set[str]]] = None,
) -> Window:
    """Collect and rank divisor candidates for *f_name*.

    *topo_index* and *supports* are per-network maps the engine
    precomputes once per pass; they are recomputed here when omitted
    (the standalone/test path).
    """
    if topo_index is None:
        topo_index = {n: i for i, n in enumerate(network.topo_order())}
    if supports is None:
        supports = pi_supports(network)

    f_node = network.nodes[f_name]
    f_support = supports[f_name]
    f_fanins = set(f_node.fanins)
    # Everything that (transitively) reads f is off limits: wiring it
    # into f's new function would create a combinational cycle.
    excluded = network.transitive_fanout(f_name)
    excluded.add(f_name)

    ranked = []
    for name in topo_index:
        if name in excluded:
            continue
        node = network.nodes[name]
        if node.is_constant():
            # The resynthesis core already tries both constants via
            # the empty divisor subset; a constant divisor only
            # duplicates that.
            continue
        overlap = len(supports[name] & f_support)
        if overlap == 0 and name not in f_fanins:
            continue  # disjoint support: can never help
        rank = (
            0 if name in f_fanins else 1,
            -overlap,
            topo_index[name],
        )
        ranked.append((rank, name))
    ranked.sort()
    pool = tuple(name for _, name in ranked[:WINDOW_SIZE])
    return Window(target=f_name, divisors=pool)
