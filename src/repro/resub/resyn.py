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

Most subsets of a window conflict, so the engine does not ask
:func:`resynthesize_window` about each one.
:func:`conflict_free_subsets` walks the subsets in
``itertools.combinations`` order and yields only those with no
conflict.  It decides this by refinement: the classes of ``S + (d,)``
are the classes of ``S``, each split by ``d``, and a class whose care
patterns all pin one value keeps doing so when split.  So ``S + (d,)``
conflicts exactly when some *mixed* class of ``S`` (one holding care
patterns of both target values) has a mixed child, and only the mixed
classes of each prefix need keeping.
"""

from __future__ import annotations

import functools
from typing import Iterator, List, Optional, Sequence, Tuple

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


def _mixed_children(
    mixed: List[Tuple[int, int]], sig: int
) -> List[Tuple[int, int]]:
    """The mixed classes left by splitting each ``(ones, zeros)`` class
    of *mixed* by a divisor with signature *sig*."""
    children = []
    for ones, zeros in mixed:
        ones_in, zeros_in = ones & sig, zeros & sig
        if ones_in and zeros_in:
            children.append((ones_in, zeros_in))
        ones_out, zeros_out = ones ^ ones_in, zeros ^ zeros_in
        if ones_out and zeros_out:
            children.append((ones_out, zeros_out))
    return children


def conflict_free_subsets(
    target_sig: int,
    divisor_sigs: Sequence[int],
    mask: int,
    care_mask: Optional[int],
    max_size: int,
) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """The divisor subsets :func:`resynthesize_window` does not reject.

    Walks ``itertools.combinations(range(len(divisor_sigs)), size)``
    for ``size`` in ``0..max_size`` and yields ``(position, indices)``
    for each subset with no conflict, where *position* is the subset's
    1-based place in that walk.  *mask* and *care_mask* mean what they
    mean to :func:`resynthesize_window`, which returns a cover for
    exactly the yielded subsets.

    Each subset the walk extends later keeps its mixed classes as
    ``(care-1 patterns, care-0 patterns)`` pairs, and its extensions
    split them by one more divisor.  Extending the prefixes of one size
    in the order they were walked, each by the divisors after its last
    one, walks the next size in ``combinations`` order.  A subset with
    no mixed class has none in any extension.
    """
    if care_mask is None:
        care_mask = mask
    care_mask &= mask
    n = len(divisor_sigs)
    ones, zeros = care_mask & target_sig, care_mask & ~target_sig
    root = [(ones, zeros)] if ones and zeros else []
    if not root:
        yield 1, ()
    position = 1
    level: List[Tuple[Tuple[int, ...], List[Tuple[int, int]]]] = [((), root)]
    for size in range(1, max_size + 1):
        extend = size < max_size
        next_level = []
        for prefix, mixed in level:
            for d in range(prefix[-1] + 1 if prefix else 0, n):
                position += 1
                sig = divisor_sigs[d]
                if extend and d < n - 1:
                    children = _mixed_children(mixed, sig)
                    next_level.append((prefix + (d,), children))
                    if not children:
                        yield position, prefix + (d,)
                    continue
                # Not extended later: the first mixed child settles it.
                for ones, zeros in mixed:
                    ones_in = ones & sig
                    if ones_in and zeros & sig or (
                        ones ^ ones_in and zeros & ~sig
                    ):
                        break
                else:
                    yield position, prefix + (d,)
        level = next_level
