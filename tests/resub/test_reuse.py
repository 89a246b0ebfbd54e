"""The simguided engine's reuse rules, each against a fresh computation.

* Resynthesis minimization is memoized on ``(k, on-minterms,
  dc-minterms)``: a warm memo must return the cover a cold one
  computes.
* ``_clean_cover`` results are memoized per run on the target, the
  candidate cover and every divisor's ``(name, fanins, cover)``: a
  divisor that changes between two calls must miss the memo.
* The ODC care mask is traced as ``resub_care``, only where the
  engine computes ODCs at all.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings

from repro.core.config import SIMGUIDED
from repro.core.substitution import substitute_network
from repro.obs.tracer import Tracer
from repro.resub import engine, resyn
from repro.resub.engine import _clean_cover
from repro.twolevel.cover import Cover
from repro.twolevel.minimize import espresso

from tests.resub.test_engine_units import (
    _accepting_network,
    _implied_divisors,
)
from tests.resub.test_resyn_property import MASK, window_st


@given(window_st())
@settings(max_examples=200, deadline=None)
def test_resynthesis_memo_returns_the_cold_cover(window):
    target_sig, divisor_sigs, care_mask = window
    resyn._minimize_cached.cache_clear()
    cold = resyn.resynthesize_window(target_sig, divisor_sigs, MASK, care_mask)
    misses = resyn._minimize_cached.cache_info().misses
    warm = resyn.resynthesize_window(target_sig, divisor_sigs, MASK, care_mask)
    # The second call is served by the memo, and agrees with the first.
    assert resyn._minimize_cached.cache_info().misses == misses
    assert warm == cold


def test_memoized_minimization_equals_espresso():
    k, on, dc = 3, (0, 3, 5), (6, 7)
    resyn._minimize_cached.cache_clear()
    expected = espresso(Cover.from_minterms(on, k), Cover.from_minterms(dc, k))
    assert resyn._minimize_cached(k, on, dc) == expected  # cold
    assert resyn._minimize_cached(k, on, dc) == expected  # warm
    assert resyn._minimize_cached.cache_info().hits == 1


def _negate_d2(net):
    # d2 = a': d1 = a·b now forces d2 = 0, so the d2 literal of
    # d1·d2 is no longer redundant.
    net.nodes["d2"].set_function(["a"], Cover.parse("a'", ["a"]))


def _rewire_d2(net):
    # d2 = c: same cover object, new fanin; d1 no longer implies d2.
    net.add_pi("c")
    net.nodes["d2"].set_function(["c"], net.nodes["d2"].cover)


def test_clean_memo_misses_when_a_divisor_changes():
    cover = Cover.parse("d1 d2", ["d1", "d2"])
    for change in (_negate_d2, _rewire_d2):
        net = _implied_divisors()
        memo = {}
        first = _clean_cover(
            net, "f", ("d1", "d2"), cover, SIMGUIDED, None, memo
        )
        assert first[1] == 1  # d1 => d2: the d2 literal goes
        change(net)
        second = _clean_cover(
            net, "f", ("d1", "d2"), cover, SIMGUIDED, None, memo
        )
        fresh = _clean_cover(net, "f", ("d1", "d2"), cover, SIMGUIDED, None)
        assert fresh != first, change.__name__  # the change matters
        assert second == fresh, change.__name__


def test_clean_memo_serves_an_unchanged_state():
    net = _implied_divisors()
    cover = Cover.parse("d1 + d2", ["d1", "d2"])
    memo = {}
    first = _clean_cover(net, "f", ("d1", "d2"), cover, SIMGUIDED, None, memo)
    assert len(memo) == 1
    assert _clean_cover(
        net, "f", ("d1", "d2"), cover, SIMGUIDED, None, memo
    ) is first


def test_clean_memo_is_off_under_global_dc():
    # With global_dc the analysis circuit reads the whole network
    # outside TFO(f), which the key does not cover.
    net = _implied_divisors()
    cover = Cover.parse("d1 + d2", ["d1", "d2"])
    memo = {}
    config = dataclasses.replace(SIMGUIDED, global_dc=True)
    _clean_cover(net, "f", ("d1", "d2"), cover, config, None, memo)
    assert memo == {}


def _traced_kinds():
    tracer = Tracer()
    substitute_network(_accepting_network(), SIMGUIDED, tracer=tracer)
    return {event["kind"] for event in tracer.events}


def test_care_mask_is_traced_when_odcs_are_computed(monkeypatch):
    assert "resub_care" in _traced_kinds()  # 3 PIs <= 12
    monkeypatch.setattr(engine, "ODC_MAX_PIS", 2)
    assert "resub_care" not in _traced_kinds()
