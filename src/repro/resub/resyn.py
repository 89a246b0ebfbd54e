"""Truth-table resynthesis over divisor signatures.

Given the packed simulation signature of a target node, the signatures
of ``k`` candidate divisors, and a care mask (which sampled patterns
actually constrain the function), :func:`resynthesize_window` asks:
*is there a function of just these divisors that agrees with the
target on every care pattern?* — and if so, returns it as a minimized
:class:`~repro.twolevel.cover.Cover` over the divisors.

The construction is the classic simulation-guided one:

* every care pattern maps to a minterm of the divisor space (the
  divisor values under that pattern) and pins the function's value
  there to the target's value;
* a minterm pinned to both 0 and 1 by different care patterns is a
  **conflict** — the divisor set provably cannot express the target
  (on the samples), so the window is rejected without any exact work;
* minterms never reached by a care pattern are free: they join the
  don't-care set handed to espresso, which is where most of the
  literal savings come from.

Agreement on the sampled patterns proves nothing about the function —
exactly like the divisor filter's containment test, it is a cheap
one-way screen.  The engine (:mod:`repro.resub.engine`) validates
every surviving candidate exactly before committing it.

The minimization is memoized on its whole input, ``(k, on-minterms,
dc-minterms)``: the engine resynthesizes the same small truth tables
over and over (every pass, every target sharing a divisor pattern),
and espresso is deterministic, so a cached cover is the cover a fresh
call would return.  Sharing it is safe because covers are immutable.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Tuple

from repro.twolevel.cover import Cover
from repro.twolevel.minimize import espresso


@functools.lru_cache(maxsize=4096)
def _minimize_cached(
    k: int, on_minterms: Tuple[int, ...], dc_minterms: Tuple[int, ...]
) -> Cover:
    return espresso(
        Cover.from_minterms(on_minterms, k),
        Cover.from_minterms(dc_minterms, k),
    )


def resynthesize_window(
    target_sig: int,
    divisor_sigs: Sequence[int],
    mask: int,
    care_mask: Optional[int] = None,
) -> Optional[Cover]:
    """A cover over the divisors matching *target_sig* on care patterns.

    *mask* is the all-patterns bitmask (``(1 << patterns) - 1``);
    *care_mask* restricts which sampled patterns constrain the result
    (``None`` = all of them).  Returns ``None`` on a conflict — some
    divisor-value combination is pinned to both 0 and 1 — which proves
    no function of these divisors matches the target on the samples.

    The returned cover ``F`` satisfies ``on ⊆ F ⊆ on ∪ dc`` (espresso's
    contract), so it evaluates to the target's value on **every** care
    pattern: on-minterms are covered, off-minterms excluded, and
    unconstrained minterms may fall either way.
    """
    if care_mask is None:
        care_mask = mask
    care_mask &= mask
    k = len(divisor_sigs)
    if care_mask == 0:
        # Nothing constrains the function; the constant 0 is the
        # cheapest member of the (complete) equivalence class.
        return Cover.zero(k)

    # Partition the care patterns into divisor-space minterm classes
    # with bitwise ops: class_mask(m) = patterns where every divisor
    # takes the value bit m assigns it.
    on_minterms = []
    dc_minterms = []
    off_seen = False
    for m in range(1 << k):
        klass = care_mask
        for i in range(k):
            sig = divisor_sigs[i]
            klass &= sig if (m >> i) & 1 else ~sig
            if klass == 0:
                break
        if klass == 0:
            dc_minterms.append(m)
            continue
        ones = klass & target_sig
        if ones and klass & ~ones:
            return None  # conflict: minterm pinned to both values
        if ones:
            on_minterms.append(m)
        else:
            off_seen = True
    if not on_minterms:
        return Cover.zero(k)
    if not off_seen and not dc_minterms:
        return Cover.one(k)
    return _minimize_cached(k, tuple(on_minterms), tuple(dc_minterms))
