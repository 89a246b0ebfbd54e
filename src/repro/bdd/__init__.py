"""Reduced-ordered binary decision diagrams.

A compact hash-consed BDD manager used throughout the repository as the
semantic oracle: network-level rewrites (division, substitution, script
passes) are verified by building BDDs of primary-output cones before and
after the transformation.  It is also the natural implementation of the
generalized-cofactor division baseline of Stanion & Sechen that the
paper's related-work section discusses.
"""

from repro.bdd.bdd import BddManager, BDD_ZERO, BDD_ONE

__all__ = [
    "BddManager",
    "BDD_ZERO",
    "BDD_ONE",
]
