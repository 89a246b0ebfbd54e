"""Unit tests for the simguided engine's moving parts.

The differential suite (`test_resub_vs_division.py`) checks the
end-to-end contract; these tests pin the pieces individually —
windowing legality, the ATPG cover cleaner's removal branches, the
reject-on-unknown and reject-on-difference paths (forced through a
zero SAT conflict budget or monkeypatching, since a correct engine
never hits them naturally), budget clean stops, and config
validation.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.core.config import SIMGUIDED, DivisionConfig
from repro.core.substitution import substitute_network
from repro.network.blif import to_blif_str
from repro.network.dontcares import DontCareComputer
from repro.network.network import Network
from repro.network.verify import networks_equivalent
from repro.obs.tracer import Tracer
from repro.resilience.budget import RunBudget
from repro.resub import engine
from repro.resub import window as window_module
from repro.resub.engine import _care_mask, _clean_cover, _divisor_label
from repro.resub.window import build_window, pi_supports
from repro.sat.check import Verdict
from repro.sim.signature import SignatureSimulator
from repro.twolevel.cover import Cover


# ----------------------------------------------------------------------
# Fixture networks
# ----------------------------------------------------------------------
def _implied_divisors() -> Network:
    """d1 = a·b implies d2 = a, so covers over (d1, d2) carry
    structural redundancy the ATPG cleaner can prove away."""
    net = Network("cleaner_fixture")
    net.add_pi("a")
    net.add_pi("b")
    net.parse_node("d1", "a b", ["a", "b"])
    net.parse_node("d2", "a", ["a"])
    net.parse_node("f", "d1 + d2", ["d1", "d2"])
    net.add_po("f")
    return net


def _accepting_network() -> Network:
    """f = a·b·c with d = a·b in scope: simguided deterministically
    rewrites f to d·c (3 literals -> 2)."""
    net = Network("accepting")
    for pi in ("a", "b", "c"):
        net.add_pi(pi)
    net.parse_node("d", "a b", ["a", "b"])
    net.parse_node("f", "a b c", ["a", "b", "c"])
    net.parse_node("out", "d + f", ["d", "f"])
    net.add_po("out")
    return net


# ----------------------------------------------------------------------
# _CoverCleaner via _clean_cover
# ----------------------------------------------------------------------
class TestCoverCleaner:
    def test_implied_literal_is_removed(self):
        # Cube d1·d2: asserting d1=1 forces a=b=1, hence d2=1, so the
        # d2 literal's stuck-at-1 fault is untestable -> removable.
        net = _implied_divisors()
        cover = Cover.parse("d1 d2", ["d1", "d2"])
        cleaned, removed = _clean_cover(
            net, "f", ("d1", "d2"), cover, SIMGUIDED, None
        )
        assert removed == 1
        assert cleaned.num_cubes() == 1
        assert list(cleaned.cubes[0].literals()) == [(0, True)]  # just d1

    def test_contained_cube_is_removed(self):
        # d1 + d2 with d1 => d2: exciting cube {d1} while holding the
        # {d2} cube at 0 is contradictory -> the {d1} cube is dropped.
        net = _implied_divisors()
        cover = Cover.parse("d1 + d2", ["d1", "d2"])
        cleaned, removed = _clean_cover(
            net, "f", ("d1", "d2"), cover, SIMGUIDED, None
        )
        assert removed == 1
        assert cleaned.num_cubes() == 1
        assert list(cleaned.cubes[0].literals()) == [(1, True)]  # just d2

    def test_cleaning_preserves_function_on_reachable_minterms(self):
        # Soundness spot-check: on every reachable divisor valuation,
        # the cleaned cover equals the original.
        net = _implied_divisors()
        for text in ("d1 d2", "d1 + d2"):
            cover = Cover.parse(text, ["d1", "d2"])
            cleaned, _ = _clean_cover(
                net, "f", ("d1", "d2"), cover, SIMGUIDED, None
            )
            for a in (0, 1):
                for b in (0, 1):
                    d1, d2 = a & b, a
                    minterm = d1 | (d2 << 1)
                    assert cover.evaluate(minterm) == cleaned.evaluate(
                        minterm
                    )

    def test_pi_only_divisors_skip_cleaning(self):
        # Over PIs the engine's (prime, irredundant) covers have
        # nothing to remove, so the cleaner returns the cover as it
        # is without building a circuit (test_clean_settle.py checks
        # that premise).
        net = _implied_divisors()
        cover = Cover.parse("a b", ["a", "b"])
        cleaned, removed = _clean_cover(
            net, "f", ("a", "b"), cover, SIMGUIDED, None
        )
        assert removed == 0
        assert cleaned is cover

    def test_zero_cover_and_oversize_region_skip_cleaning(
        self, monkeypatch
    ):
        net = _implied_divisors()
        zero = Cover.zero(2)
        assert _clean_cover(
            net, "f", ("d1", "d2"), zero, SIMGUIDED, None
        ) == (zero, 0)
        monkeypatch.setattr(engine, "MAX_REGION_CUBES", 1)
        cover = Cover.parse("d1 + d2", ["d1", "d2"])
        cleaned, removed = _clean_cover(
            net, "f", ("d1", "d2"), cover, SIMGUIDED, None
        )
        assert removed == 0
        assert cleaned is cover


# ----------------------------------------------------------------------
# Windowing
# ----------------------------------------------------------------------
class TestWindow:
    def _net(self) -> Network:
        net = Network("window_fixture")
        for pi in ("a", "b", "c"):
            net.add_pi(pi)
        net.parse_node("d1", "a b", ["a", "b"])
        net.parse_node("f", "a + b", ["a", "b"])
        net.parse_node("t", "f c", ["f", "c"])  # in TFO(f)
        net.add_po("t")
        net.add_po("d1")
        return net

    def test_target_and_tfo_are_excluded(self):
        window = build_window(self._net(), "f")
        assert "f" not in window.divisors
        assert "t" not in window.divisors

    def test_disjoint_support_non_fanins_are_excluded(self):
        # c shares no PI support with f and is not a fanin: useless as
        # a divisor under simulation (its signature is uncorrelated).
        window = build_window(self._net(), "f")
        assert "c" not in window.divisors

    def test_fanins_rank_first_then_overlap(self):
        window = build_window(self._net(), "f")
        assert window.target == "f"
        assert list(window.divisors[:2]) == ["a", "b"]
        assert "d1" in window.divisors

    def test_window_size_truncates(self, monkeypatch):
        monkeypatch.setattr(window_module, "WINDOW_SIZE", 2)
        window = build_window(self._net(), "f")
        assert list(window.divisors) == ["a", "b"]


# ----------------------------------------------------------------------
# Engine paths that a correct run never exercises naturally
# ----------------------------------------------------------------------
class TestForcedPaths:
    def test_accepting_fixture_accepts(self):
        # Pre-condition for the forced-path tests below: the fixture
        # really does commit a rewrite under normal conditions.
        net = _accepting_network()
        reference = _accepting_network()
        stats = substitute_network(net, SIMGUIDED)
        assert stats.resub_accepted >= 1
        assert stats.literals_after < stats.literals_before
        assert networks_equivalent(reference, net)

    def test_unknown_verdict_rejects_candidate(self, force_sat):
        # A SAT don't-know must keep the old node: a zero conflict
        # budget leaves every exact validation unknown, and nothing
        # may commit.
        force_sat(0)
        net = _accepting_network()
        reference = _accepting_network()
        stats = substitute_network(net, SIMGUIDED)
        assert stats.resub_accepted == 0
        assert stats.resub_rejected_unknown >= 1
        assert stats.resub_validated == stats.resub_rejected_unknown
        assert stats.literals_after == stats.literals_before
        assert networks_equivalent(reference, net)

    def test_different_verdict_rejects_candidate(self, monkeypatch):
        # A validation that proves the candidate different keeps the
        # old node, as an unknown does, but is not counted as one;
        # with verify_commits on there is still no ledger to roll
        # back or quarantine anything.
        monkeypatch.setattr(
            engine,
            "checked_equivalent",
            lambda *args, **kwargs: Verdict(
                False, "exhaustive", counterexample={}
            ),
        )
        config = dataclasses.replace(SIMGUIDED, verify_commits=True)
        net = _accepting_network()
        stats = substitute_network(net, config)
        assert stats.resub_validated >= 1
        assert stats.resub_accepted == 0
        assert stats.resub_rejected_unknown == 0
        assert stats.commits_verified == 0
        assert stats.commits_rolled_back == 0
        assert stats.incidents == []
        assert to_blif_str(net) == to_blif_str(_accepting_network())

    def test_rejected_subset_falls_through_to_the_next(self, monkeypatch):
        # Normally f commits via the empty subset (its ODCs make it
        # constant-0 on the care set).  With that candidate refuted,
        # the walk must go on to a later subset that validates.
        validate = engine.checked_equivalent
        calls = []

        def refute_first(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                return Verdict(False, "exhaustive", counterexample={})
            return validate(*args, **kwargs)

        monkeypatch.setattr(engine, "checked_equivalent", refute_first)
        net = _accepting_network()
        tracer = Tracer()
        stats = substitute_network(net, SIMGUIDED, tracer=tracer)
        commits = [
            (event["attrs"]["f"], event["attrs"]["d"],
             event["attrs"]["accepted"])
            for event in tracer.events
            if event["kind"] == "commit"
        ]
        assert commits[0] == ("f", _divisor_label(()), False)
        assert commits[1][0] == "f"
        assert commits[1][1] != _divisor_label(())
        assert commits[1][2] is True
        assert stats.resub_accepted >= 1
        assert networks_equivalent(_accepting_network(), net)

    def test_budget_deadline_stops_cleanly(self):
        ticks = itertools.count()
        budget = RunBudget(
            deadline_seconds=0.5, clock=lambda: float(next(ticks))
        )
        net = _accepting_network()
        reference = _accepting_network()
        stats = substitute_network(net, SIMGUIDED, budget=budget)
        assert stats.budget_report is not None
        assert stats.budget_report.stopped
        assert stats.budget_report.reason == "deadline"
        assert stats.resub_accepted == 0
        assert networks_equivalent(reference, net)


# ----------------------------------------------------------------------
# Care mask / observability don't-cares
# ----------------------------------------------------------------------
class TestCareMask:
    def test_no_computer_cares_about_everything(self):
        net = _accepting_network()
        sim = SignatureSimulator(net, patterns=64, seed=3)
        assert _care_mask(sim, net.nodes["f"], None) == sim.mask

    def test_care_mask_is_subset_of_simulated_patterns(self):
        net = _accepting_network()
        sim = SignatureSimulator(net, patterns=64, seed=3)
        dc = DontCareComputer(net, max_pis=12)
        for node in net.internal_nodes():
            care = _care_mask(sim, node, dc)
            assert care & ~sim.mask == 0

    def test_dontcares_do_not_break_equivalence(self, monkeypatch):
        # The fixture has 3 PIs: a limit of 0 leaves the ODCs out.
        for odc_max_pis in (0, 12):
            monkeypatch.setattr(engine, "ODC_MAX_PIS", odc_max_pis)
            net = _accepting_network()
            reference = _accepting_network()
            stats = substitute_network(net, SIMGUIDED)
            assert networks_equivalent(reference, net)
            assert stats.resub_accepted >= 1


# ----------------------------------------------------------------------
# Small pieces
# ----------------------------------------------------------------------
def test_divisor_label_is_stable():
    assert _divisor_label(("x", "y")) == "resub(x,y)"
    assert _divisor_label(()) == "resub()"


def test_resyn_span_counts_every_subset_up_to_the_commit(monkeypatch):
    """``resub_resyn``'s ``subsets=`` is the walk position of the
    committed subset, or the size of the whole walk when nothing
    commits, although only conflict-free subsets are resynthesized."""
    import math

    from repro.bench.suite import build_benchmark
    from repro.obs.tracer import Tracer
    from repro.resub import engine

    walk = engine.conflict_free_subsets
    last_yielded = []

    def recording(*args):
        last_yielded.append(None)
        for position, subset in walk(*args):
            last_yielded[-1] = position
            yield position, subset

    monkeypatch.setattr(engine, "conflict_free_subsets", recording)
    tracer = Tracer()
    substitute_network(build_benchmark("rnd1"), SIMGUIDED, tracer=tracer)
    windows = [e for e in tracer.events if e["kind"] == "resub_window"]
    resyns = [e for e in tracer.events if e["kind"] == "resub_resyn"]
    assert len(windows) == len(resyns) == len(last_yielded)
    accepted = 0
    for window, resyn, position in zip(windows, resyns, last_yielded):
        assert window["attrs"]["f"] == resyn["attrs"]["f"]
        n = window["attrs"]["divisors"]
        top = min(engine.MAX_SUBSET_DIVISORS, n)
        attrs = resyn["attrs"]
        if attrs["accepted"]:
            accepted += 1
            assert attrs["subsets"] == position
        else:
            assert attrs["subsets"] == sum(
                math.comb(n, size) for size in range(top + 1)
            )
    assert accepted > 0


def test_pi_supports_matches_transitive_reachability():
    net = _accepting_network()
    supports = pi_supports(net)
    assert supports["d"] == {"a", "b"}
    assert supports["f"] == {"a", "b", "c"}
    assert supports["a"] == {"a"}


@pytest.mark.parametrize("kwargs", [{"method": "bogus"}])
def test_config_validation_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        DivisionConfig(**kwargs)
