"""The D-alg's per-call backtrack limit: incomplete verdicts must stay
conservative.

The regression locked in here: a D-alg search that runs out of
backtracks reports ``complete=False`` and its ``None`` redundancy
verdict is treated as *not redundant* everywhere a wire removal hangs
on it — keeping a removable wire is safe, removing a needed one is
not.
"""

from repro.atpg.dalg import generate_test, prove_redundant
from repro.atpg.fault import StuckAtFault
from repro.atpg.redundancy import (
    redundancy_removal,
    wire_is_redundant_exact,
)
from repro.obs.tracer import Tracer
from tests.atpg.test_dalg import demo

#: The demo circuit's provably redundant fault (b' literal of g2); its
#: proof takes 6 backtracks.
REDUNDANT = StuckAtFault("g2", 1, True)


class TestBacktrackLimit:
    def test_proof_within_the_limit_is_complete(self):
        result = generate_test(demo(), REDUNDANT, {"out"})
        assert result.test is None
        assert result.complete
        assert result.backtracks == 6
        assert generate_test(
            demo(), REDUNDANT, {"out"}, max_backtracks=6
        ).complete

    def test_search_over_the_limit_is_incomplete(self):
        for limit in (0, 5):
            result = generate_test(
                demo(), REDUNDANT, {"out"}, max_backtracks=limit
            )
            assert result.test is None
            assert not result.complete
            assert prove_redundant(
                demo(), REDUNDANT, {"out"}, max_backtracks=limit
            ) is None


class TestConservativeDirection:
    def test_incomplete_search_is_not_redundant(self):
        # The fault IS redundant, but the search ran out of backtracks
        # before the proof finished: the only safe answer is "not
        # redundant".
        assert wire_is_redundant_exact(
            demo(), REDUNDANT, {"out"}, max_backtracks=0
        ) is False

    def test_ample_limit_proves_redundant(self):
        assert wire_is_redundant_exact(demo(), REDUNDANT, {"out"}) is True

    def test_exact_removal_skips_wire_it_cannot_prove(self):
        # With no backtracks the exact check proves nothing here, so
        # exact removal degenerates to the implication-only removal —
        # never a wrong wire.
        limited = demo()
        removed_limited = redundancy_removal(
            limited, {"out"}, exact=True, max_backtracks=0
        )
        baseline = demo()
        removed_plain = redundancy_removal(baseline, {"out"})
        assert removed_limited == removed_plain

    def test_limit_is_per_call_not_per_sweep(self):
        # Each D-alg search of an exact sweep gets the whole limit:
        # at 5 every search completes, although together they take
        # more than 5 backtracks, and the sweep removes what an
        # unlimited one removes.
        tracer = Tracer()
        removed = redundancy_removal(
            demo(), {"out"}, exact=True, max_backtracks=5, tracer=tracer
        )
        searches = [
            event["attrs"] for event in tracer.events
            if event["attrs"].get("scope") == "dalg"
        ]
        assert searches
        assert all(attrs["complete"] for attrs in searches)
        assert sum(attrs["backtracks"] for attrs in searches) > 5
        assert removed == redundancy_removal(demo(), {"out"}, exact=True)

    def test_exact_removal_removes_at_least_as_much(self):
        # Sanity in the other direction: with room to search, the
        # exact mode proves (at least) everything implications prove.
        loose = demo()
        removed = redundancy_removal(loose, {"out"}, exact=True)
        plain = demo()
        assert removed >= redundancy_removal(plain, {"out"})
