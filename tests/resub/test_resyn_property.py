"""Property tests for the truth-table resynthesis core.

Two layers:

* **Raw signatures** (hypothesis): for random ≤4-divisor windows over
  random packed signatures and care masks, :func:`resynthesize_window`
  must return a cover that evaluates to the target's value on *every*
  care pattern — and must return ``None`` exactly when the window is
  genuinely conflicted (some divisor-value combination is pinned to
  both 0 and 1 by care patterns), which a direct per-pattern oracle
  decides independently.
* **The subset walk** (hypothesis): :func:`conflict_free_subsets`
  must yield exactly the divisor subsets :func:`resynthesize_window`
  does not reject, in ``itertools.combinations`` order, with their
  1-based positions in that walk.
* **Real networks** (exhaustive): signatures built from exhaustive
  simulation of small networks (≤12 PIs would be the cap; these use
  4-5), so "every care pattern" literally means "every input minterm"
  — the resynthesized cover is a proven-exact replacement, checked
  against :meth:`Network.evaluate` on the whole input space.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resub.resyn import conflict_free_subsets, resynthesize_window
from repro.resub.window import build_window
from repro.core.config import SIMGUIDED
from repro.twolevel.cover import Cover

from tests.conftest import random_network

#: Patterns per raw-signature window (the exhaustive space of a
#: hypothetical 3-PI stimulus; small enough to check every bit).
PATTERNS = 8
MASK = (1 << PATTERNS) - 1


@st.composite
def window_st(draw):
    k = draw(st.integers(0, 4))
    divisor_sigs = [
        draw(st.integers(0, MASK)) for _ in range(k)
    ]
    target_sig = draw(st.integers(0, MASK))
    care_mask = draw(st.integers(0, MASK))
    return target_sig, divisor_sigs, care_mask


def _oracle_conflict(target_sig, divisor_sigs, care_mask):
    """Direct per-pattern check: is some divisor minterm pinned both
    ways by care patterns?"""
    seen = {}
    for p in range(PATTERNS):
        if not (care_mask >> p) & 1:
            continue
        minterm = sum(
            ((sig >> p) & 1) << i for i, sig in enumerate(divisor_sigs)
        )
        value = (target_sig >> p) & 1
        if seen.setdefault(minterm, value) != value:
            return True
    return False


@given(window_st())
@settings(max_examples=300, deadline=None)
def test_resynthesis_matches_target_on_every_care_pattern(window):
    target_sig, divisor_sigs, care_mask = window
    cover = resynthesize_window(target_sig, divisor_sigs, MASK, care_mask)
    conflicted = _oracle_conflict(target_sig, divisor_sigs, care_mask)
    if cover is None:
        # None is only allowed (and then required) on a real conflict.
        assert conflicted
        return
    assert not conflicted
    assert isinstance(cover, Cover)
    assert cover.num_vars == len(divisor_sigs)
    for p in range(PATTERNS):
        if not (care_mask >> p) & 1:
            continue
        assignment = sum(
            ((sig >> p) & 1) << i for i, sig in enumerate(divisor_sigs)
        )
        assert cover.evaluate(assignment) == bool((target_sig >> p) & 1), (
            f"pattern {p}: cover disagrees with target "
            f"(minterm {assignment:b})"
        )


@given(st.integers(0, MASK))
@settings(max_examples=50, deadline=None)
def test_empty_window_resynthesizes_constants_only(target_sig):
    """With no divisors there is one minterm class: the window works
    iff the target is constant on the care set."""
    cover = resynthesize_window(target_sig, [], MASK, MASK)
    if target_sig == 0:
        assert cover is not None and cover.is_zero()
    elif target_sig == MASK:
        assert cover is not None and cover.is_one_cube()
    else:
        assert cover is None
    # An empty care set constrains nothing: constant 0 by convention.
    empty = resynthesize_window(target_sig, [], MASK, 0)
    assert empty is not None and empty.is_zero()


@st.composite
def subset_window_st(draw):
    """A window of 0-7 divisors over 8 or 64 patterns, with an empty,
    partial or full care mask and a target that is random, a function
    of a few divisors, or constant on the care set.  The signatures
    come from a drawn seed, so they are dense random words."""
    patterns = draw(st.sampled_from([8, 64]))
    mask = (1 << patterns) - 1
    k = draw(st.sampled_from(range(8)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    divisor_sigs = [rng.getrandbits(patterns) for _ in range(k)]
    partial = rng.getrandbits(patterns)
    # Partial masks and derived targets come twice as often: they give
    # walks with both conflicting and conflict-free subsets.
    care_mask = draw(st.sampled_from([partial, mask, partial, 0]))
    kind = draw(st.sampled_from(["derived", "random", "derived", "constant"]))
    if kind == "derived" and k:
        # A function of up to three divisors: every subset holding
        # them is free of conflicts.
        support = rng.sample(range(k), rng.randint(1, min(3, k)))
        table = rng.getrandbits(1 << len(support))
        target_sig = 0
        for p in range(patterns):
            minterm = sum(
                ((divisor_sigs[d] >> p) & 1) << i
                for i, d in enumerate(support)
            )
            target_sig |= ((table >> minterm) & 1) << p
    elif kind == "constant":
        noise = rng.getrandbits(patterns)
        if rng.random() < 0.5:
            target_sig = care_mask | noise  # 1 on every care pattern
        else:
            target_sig = ~care_mask & noise  # 0 on every care pattern
    else:
        target_sig = rng.getrandbits(patterns)
    return target_sig, divisor_sigs, mask, care_mask


def _resynthesized_subsets(target_sig, divisor_sigs, mask, care_mask, top):
    """``(position, subset)`` of every subset resynthesis accepts, one
    :func:`resynthesize_window` call per subset."""
    position = 0
    for size in range(top + 1):
        for subset in itertools.combinations(range(len(divisor_sigs)), size):
            position += 1
            cover = resynthesize_window(
                target_sig, [divisor_sigs[i] for i in subset], mask, care_mask
            )
            if cover is not None:
                yield position, subset


@given(subset_window_st())
@settings(max_examples=300, deadline=None)
def test_subset_walk_yields_exactly_the_resynthesized_subsets(window):
    target_sig, divisor_sigs, mask, care_mask = window
    for top in range(min(6, len(divisor_sigs)) + 1):
        assert list(
            conflict_free_subsets(
                target_sig, divisor_sigs, mask, care_mask, top
            )
        ) == list(
            _resynthesized_subsets(
                target_sig, divisor_sigs, mask, care_mask, top
            )
        ), f"max_size {top}"


@given(subset_window_st(), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_skipping_yielded_subsets_changes_no_later_subset(window, seed):
    """A caller that skips some subsets (as the engine passes over a
    candidate it rejects) and resynthesizes the rest gets what a full
    walk yields."""
    target_sig, divisor_sigs, mask, care_mask = window
    top = min(4, len(divisor_sigs))
    walk = list(
        conflict_free_subsets(target_sig, divisor_sigs, mask, care_mask, top)
    )
    skipped = {
        subset for i, (_, subset) in enumerate(walk) if (seed >> i % 32) & 1
    }
    used = []
    for position, subset in conflict_free_subsets(
        target_sig, divisor_sigs, mask, care_mask, top
    ):
        if subset in skipped:
            continue
        cover = resynthesize_window(
            target_sig, [divisor_sigs[i] for i in subset], mask, care_mask
        )
        assert cover is not None
        used.append((position, subset))
    assert used == [item for item in walk if item[1] not in skipped]


def test_subset_walk_keeps_the_combinations_positions():
    """With nothing constrained every subset is yielded, numbered as
    ``itertools.combinations`` walks them."""
    sigs = [0b1010, 0b1100, 0b0110, 0b1111, 0b0001]
    walk = list(conflict_free_subsets(0b0110, sigs, 0b1111, 0, 3))
    expected = [
        subset
        for size in range(4)
        for subset in itertools.combinations(range(5), size)
    ]
    assert walk == list(enumerate(expected, start=1))


def _exhaustive_signatures(network):
    """Packed signatures with bit *k* = value under PI minterm *k*."""
    pis = sorted(network.pis)
    sigs = {name: 0 for name in network.nodes}
    for k in range(1 << len(pis)):
        assignment = {
            pi: bool((k >> i) & 1) for i, pi in enumerate(pis)
        }
        values = network.evaluate(assignment)
        for name, value in values.items():
            sigs[name] |= int(value) << k
    return sigs, (1 << (1 << len(pis))) - 1


def test_resynthesis_is_exact_under_exhaustive_signatures():
    """Exhaustive-simulation signatures make the screen a proof: a
    returned cover is a complete functional replacement, verified on
    every input minterm against the network's own evaluator."""
    checked = 0
    for seed in range(300, 312):
        network = random_network(seed, n_pis=4, n_nodes=6)
        sigs, mask = _exhaustive_signatures(network)
        pis = sorted(network.pis)
        targets = [
            n.name
            for n in network.internal_nodes()
            if not n.is_constant()
        ]
        for f_name in targets[:3]:
            window = build_window(network, f_name, SIMGUIDED)
            for subset in itertools.combinations(window.divisors[:5], 2):
                cover = resynthesize_window(
                    sigs[f_name],
                    [sigs[d] for d in subset],
                    mask,
                )
                if cover is None:
                    continue
                checked += 1
                for k in range(1 << len(pis)):
                    assignment = {
                        pi: bool((k >> i) & 1)
                        for i, pi in enumerate(pis)
                    }
                    values = network.evaluate(assignment)
                    divisor_minterm = sum(
                        int(values[d]) << i
                        for i, d in enumerate(subset)
                    )
                    assert cover.evaluate(divisor_minterm) == bool(
                        values[f_name]
                    ), f"seed {seed}, {f_name} over {subset}, minterm {k}"
    # The population yields real resynthesis opportunities.
    assert checked > 0
