"""Two-level (sum-of-products) cube algebra.

This subpackage is the substrate that everything else in :mod:`repro`
builds on: cubes in positional-cube notation, covers (sets of cubes),
unate-recursive-paradigm tautology checking and complementation, and an
Espresso-style two-level minimizer ("espresso-lite").

The representation follows Espresso's positional cube notation, packed
into two Python integers per cube (a positive-literal mask and a
negative-literal mask), so containment / intersection / distance are
single bitwise operations.
"""

from repro.twolevel.cube import Cube
from repro.twolevel.cover import Cover
from repro.twolevel.tautology import is_tautology, cover_contains_cube
from repro.twolevel.complement import complement, complement_cube
from repro.twolevel.minimize import espresso, expand, irredundant, reduce_cover

__all__ = [
    "Cube",
    "Cover",
    "is_tautology",
    "cover_contains_cube",
    "complement",
    "complement_cube",
    "espresso",
    "expand",
    "irredundant",
    "reduce_cover",
]
