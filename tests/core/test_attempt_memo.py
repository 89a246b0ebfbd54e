"""The per-run attempt memo of the division engine.

A failed attempt is skipped when it comes up again on exactly what it
read (``AttemptMemo`` in ``core/substitution.py``, DESIGN §16).  These
tests pin that the skips never change an output, that a key goes stale
as soon as anything it covers changes, that a skipped core extraction
still takes its fresh name, and that a skip makes no divide call.
"""

import dataclasses

import pytest

from repro.bench.suite import benchmark_names, build_benchmark
from repro.core import substitution
from repro.core.config import BASIC, EXTENDED, EXTENDED_GDC
from repro.core.substitution import (
    AttemptMemo,
    SubstitutionStats,
    _try_extended,
    substitute_network,
    substitute_pass,
)
from repro.network.blif import to_blif_str
from repro.network.network import Network
from repro.obs.tracer import Tracer
from repro.twolevel.cover import Cover

CONFIGS = {"basic": BASIC, "ext": EXTENDED, "gdc": EXTENDED_GDC}

#: The signature filter prunes most hopeless pairs before the memo is
#: asked; without it every pair of the small networks below reaches it.
UNFILTERED = dataclasses.replace(BASIC, enable_sim_filter=False)


@pytest.fixture
def never_hit(monkeypatch):
    """Make the memo forget every failure: each attempt runs again."""

    def enable():
        monkeypatch.setattr(AttemptMemo, "skip", lambda self, key: False)

    return enable


def _run(name, config):
    network = build_benchmark(name)
    stats = substitute_network(network, config)
    return to_blif_str(network), stats


def _spy(monkeypatch, name):
    """Record the first two arguments after the network of every call
    to ``substitution.<name>``."""
    calls = []
    real = getattr(substitution, name)

    def spy(network, *args, **kwargs):
        calls.append(tuple(
            tuple(a) if isinstance(a, list) else a for a in args[:2]
        ))
        return real(network, *args, **kwargs)

    monkeypatch.setattr(substitution, name, spy)
    return calls


def _failing_pair():
    """``f = ac + e`` over ``d = ab``: both pairs fail, nothing commits."""
    network = Network("memo")
    for pi in "abce":
        network.add_pi(pi)
    network.parse_node("d", "ab", ["a", "b"])
    network.parse_node("f", "ac + e", ["a", "c", "e"])
    network.add_po("f")
    network.add_po("d")
    return network


# ----------------------------------------------------------------------
# Parity: the skips change no output
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,label",
    [(name, label) for label in ("basic", "ext") for name in benchmark_names()]
    + [(name, "gdc") for name in ("cla4", "dec4", "pri6")],
)
def test_memo_changes_no_output(name, label, never_hit):
    blif, stats = _run(name, CONFIGS[label])
    never_hit()
    expected_blif, expected = _run(name, CONFIGS[label])
    assert blif == expected_blif
    assert stats.literals_after == expected.literals_after
    assert expected.attempts_memoized == 0
    # Each attempt saved is a skip.  (A skipped vote that would have
    # stopped before counting an attempt saves none.)
    assert 0 <= expected.attempts - stats.attempts <= stats.attempts_memoized
    assert stats.accepted == expected.accepted
    assert stats.cores_extracted == expected.cores_extracted
    assert stats.divisors_pruned == expected.divisors_pruned
    assert stats.variants_pruned == expected.variants_pruned


# ----------------------------------------------------------------------
# Stale keys
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "node,change",
    [
        ("d", "cover"),
        ("d", "fanins"),
        ("f", "cover"),
    ],
)
def test_changed_state_divides_the_pair_again(node, change, monkeypatch):
    network = _failing_pair()
    stats = SubstitutionStats()
    memo = AttemptMemo(network, UNFILTERED, stats)
    calls = _spy(monkeypatch, "divide_node_pair")
    substitute_pass(network, UNFILTERED, stats, memo=memo)
    assert ("f", "d") in calls and stats.accepted == 0
    calls.clear()
    substitute_pass(network, UNFILTERED, stats, memo=memo)
    assert calls == [] and stats.attempts_memoized == 2

    target = network.nodes[node]
    if change == "cover":
        # Same fanins, another cover: only the cover tells them apart.
        flipped = Cover.parse(
            "a'c + e" if node == "f" else "ab'", list(target.fanins)
        )
        target.set_function(list(target.fanins), flipped)
    else:
        # Same cover object over other fanins.
        target.set_function(["a", "c"], target.cover)
    substitute_pass(network, UNFILTERED, stats, memo=memo)
    assert ("f", "d") in calls


def test_changed_pooled_divisor_reruns_the_vote(monkeypatch):
    network = _failing_pair()
    network.parse_node("d2", "ce'", ["c", "e"])
    network.add_po("d2")
    stats = SubstitutionStats()
    memo = AttemptMemo(network, EXTENDED, stats)
    votes = _spy(monkeypatch, "build_vote_table")
    pool = ["d", "d2"]
    for form in ("sop", "pos", "sop", "pos"):
        assert not _try_extended(
            network, "f", pool, EXTENDED, stats, memo, form=form
        )
    # The form is part of the key: one vote per form, then two skips.
    assert votes == [("f", ("d", "d2"))] * 2
    assert stats.attempts_memoized == 2

    network.nodes["d2"].set_function(
        ["c", "e"], Cover.parse("c'e'", ["c", "e"])
    )
    _try_extended(network, "f", pool, EXTENDED, stats, memo)
    assert len(votes) == 3
    assert stats.attempts_memoized == 2


def _commit_after_failure():
    """``f``/``d`` fail and come first; ``h`` (the paper's example over
    its own inputs) then commits a division by ``g`` in the same
    pass, without touching ``f`` or ``d``."""
    network = _failing_pair()
    for pi in "pqrs":
        network.add_pi(pi)
    network.parse_node("g", "q + r", ["q", "r"])
    network.parse_node("h", "pq + pr + ps' + p'q'r's", ["p", "q", "r", "s"])
    network.add_po("g")
    network.add_po("h")
    return network


@pytest.mark.parametrize("global_dc", [False, True])
def test_commit_elsewhere_reruns_only_global_dc_attempts(
    global_dc, monkeypatch
):
    config = dataclasses.replace(UNFILTERED, global_dc=global_dc)
    network = _commit_after_failure()
    stats = SubstitutionStats()
    memo = AttemptMemo(network, config, stats)
    calls = _spy(monkeypatch, "divide_node_pair")
    assert substitute_pass(network, config, stats, memo=memo) == 1
    assert ("f", "d") in calls
    calls.clear()
    substitute_pass(network, config, stats, memo=memo)
    # With global don't cares the analysis circuit reads h, which the
    # commit changed; without them only f's and d's states count.
    assert (("f", "d") in calls) == global_dc


# ----------------------------------------------------------------------
# Name-counter replay
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,label", [("dec4", "ext"), ("pri6", "gdc")])
def test_skipped_core_extraction_takes_its_fresh_name(
    name, label, never_hit, monkeypatch
):
    """A failed core extraction advanced the name counter; its skip
    must advance it too, or later cores are renamed (dec4 under
    EXTENDED changes its BLIF without the replay)."""
    taken = []
    real = Network.fresh_name

    def fresh_name(self, prefix="n"):
        taken.append(real(self, prefix))
        return taken[-1]

    monkeypatch.setattr(Network, "fresh_name", fresh_name)
    sop = _spy(monkeypatch, "decompose_divisor")
    pos = _spy(monkeypatch, "decompose_divisor_pos")
    blif, _ = _run(name, CONFIGS[label])
    names = list(taken)
    # Some core names were taken by skips, not by decompositions.
    cores = [n for n in names if "_core" in n]
    assert len(cores) > len(sop) + len(pos)
    taken.clear()
    never_hit()
    expected_blif, _ = _run(name, CONFIGS[label])
    assert blif == expected_blif
    assert names == taken


# ----------------------------------------------------------------------
# Counters and trace
# ----------------------------------------------------------------------
def test_memo_hits_charge_no_divide_calls(never_hit):
    _, stats = _run("cla4", BASIC)
    assert stats.attempts_memoized > 0
    never_hit()
    _, expected = _run("cla4", BASIC)
    assert expected.attempts == stats.attempts + stats.attempts_memoized
    assert expected.divide_calls >= (
        stats.divide_calls + stats.attempts_memoized
    )


def test_skipped_pairs_are_annotated_in_the_trace():
    tracer = Tracer()
    network = build_benchmark("cla4")
    stats = substitute_network(network, BASIC, tracer=tracer)
    skipped = [
        event for event in tracer.events
        if event["kind"] == "pair" and event["attrs"].get("memo")
    ]
    assert stats.attempts_memoized > 0
    assert len(skipped) == stats.attempts_memoized
    assert not any(event["attrs"].get("accepted") for event in skipped)

