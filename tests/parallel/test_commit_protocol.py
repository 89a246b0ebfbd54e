"""Property tests for the deterministic commit protocol.

The protocol's safety property: a speculative outcome may be committed
only while a fresh evaluation would provably return the same thing —
any committed rewrite whose dividend/divisor state collides with a
stored pair must invalidate that pair (forcing live re-evaluation),
and must never let a stale result through.  These tests drive the
:class:`~repro.parallel.engine.SpeculativeStore` ledger directly with
randomized commit orders and forced support collisions; no process
pool is involved.
"""

import dataclasses
import random

import pytest

from repro.bench.generators import planted_network
from repro.core.config import BASIC
from repro.core.substitution import substitute_network
from repro.parallel.engine import (
    SpeculativeStore,
    enumerate_candidate_pairs,
    shard_pairs,
)
from repro.parallel.worker import PairOutcome
from repro.twolevel.cover import Cover
from repro.twolevel.cube import Cube

from tests.conftest import random_network


def _outcome(f_name, d_name):
    return PairOutcome(f_name, d_name, False, 4, 0, None)


def _rewrite(network, name):
    """Force a support collision: replace *name*'s function in place."""
    node = network.nodes[name]
    # Constant-0 is always a different function than a planted node's.
    node.set_function([], Cover.zero(0))


class TestSpeculativeStore:
    def test_untouched_pairs_stay_valid(self):
        net = random_network(7, n_pis=4, n_nodes=4)
        store = SpeculativeStore(net, whole_network_sensitive=False)
        store.record(_outcome("n0", "n1"))
        assert store.lookup(net, "n0", "n1", mutated=False) is not None
        assert store.reused == 1 and store.invalidated == 0

    def test_unevaluated_pair_misses_without_counting(self):
        net = random_network(7, n_pis=4, n_nodes=4)
        store = SpeculativeStore(net, whole_network_sensitive=False)
        assert store.lookup(net, "n0", "n1", mutated=False) is None
        assert store.reused == 0 and store.invalidated == 0

    @pytest.mark.parametrize("victim", ["n0", "n1"])
    def test_collision_invalidates_either_side(self, victim):
        net = random_network(7, n_pis=4, n_nodes=4)
        store = SpeculativeStore(net, whole_network_sensitive=False)
        store.record(_outcome("n0", "n1"))
        _rewrite(net, victim)
        assert store.lookup(net, "n0", "n1", mutated=True) is None
        assert store.invalidated == 1

    def test_deleted_node_invalidates(self):
        net = random_network(7, n_pis=4, n_nodes=4)
        store = SpeculativeStore(net, whole_network_sensitive=False)
        store.record(_outcome("n0", "n1"))
        del net.nodes["n1"]
        assert store.lookup(net, "n0", "n1", mutated=True) is None

    def test_rewrite_then_restore_revalidates(self):
        # The undo path (_Snapshot.restore on a rejected rewrite) puts
        # the original fanins/cover back; an equal state is exactly as
        # good as an untouched one, so the outcome is usable again.
        net = random_network(7, n_pis=4, n_nodes=4)
        node = net.nodes["n0"]
        saved = (list(node.fanins), node.cover)
        store = SpeculativeStore(net, whole_network_sensitive=False)
        store.record(_outcome("n0", "n1"))
        _rewrite(net, "n0")
        assert store.lookup(net, "n0", "n1", mutated=False) is None
        node.set_function(*saved)
        assert store.lookup(net, "n0", "n1", mutated=False) is not None

    def test_sensitive_store_invalidates_on_any_commit(self):
        # GDC/oracle outcomes depend on the whole circuit: a commit
        # anywhere — even to a node unrelated to the pair — kills them.
        net = random_network(7, n_pis=4, n_nodes=5)
        store = SpeculativeStore(net, whole_network_sensitive=True)
        store.record(_outcome("n0", "n1"))
        assert store.lookup(net, "n0", "n1", mutated=False) is not None
        assert store.lookup(net, "n0", "n1", mutated=True) is None
        assert store.invalidated == 1

    def test_randomized_commit_orders_never_serve_stale(self):
        """The core property: under any commit order, a lookup succeeds
        iff neither endpoint was rewritten (and not restored) — a stale
        apply is impossible by construction."""
        for seed in range(25):
            rng = random.Random(seed)
            net = random_network(seed, n_pis=5, n_nodes=8)
            names = [n.name for n in net.internal_nodes()]
            store = SpeculativeStore(net, whole_network_sensitive=False)
            pairs = [
                (f, d) for f in names for d in names if f != d
            ]
            rng.shuffle(pairs)
            pairs = pairs[:12]
            for f, d in pairs:
                store.record(_outcome(f, d))
            committed = set()
            # Interleave rewrites and lookups in a random order.
            actions = ["rewrite"] * (len(names) // 2) + ["lookup"] * 12
            rng.shuffle(actions)
            for action in actions:
                if action == "rewrite" and len(committed) < len(names):
                    victim = rng.choice(
                        [n for n in names if n not in committed]
                    )
                    _rewrite(net, victim)
                    committed.add(victim)
                else:
                    f, d = rng.choice(pairs)
                    hit = store.lookup(
                        net, f, d, mutated=bool(committed)
                    )
                    stale = f in committed or d in committed
                    if stale:
                        assert hit is None, (
                            f"stale apply: {f}/{d} after {committed}"
                        )
                    else:
                        assert hit is not None
            # Every stale lookup above was counted as an invalidation.
            assert store.invalidated + store.reused > 0


class TestShardPairs:
    def test_preserves_order_and_coverage(self):
        pairs = [(f"f{i}", f"d{j}") for i in range(5) for j in range(3)]
        batches = shard_pairs(pairs, batch_size=4)
        assert [p for b in batches for p in b] == pairs
        assert all(len(b) <= 4 for b in batches[:-1] or batches)

    def test_groups_one_dividend_per_batch_when_possible(self):
        pairs = [(f"f{i}", f"d{j}") for i in range(4) for j in range(3)]
        batches = shard_pairs(pairs, batch_size=6)
        # Groups of 3 pack two-per-batch without splitting a dividend.
        for batch in batches:
            firsts = [f for f, _ in batch]
            # A dividend's run is contiguous within the batch.
            assert firsts == sorted(firsts, key=firsts.index)
        assert [p for b in batches for p in b] == pairs

    def test_oversized_group_still_splits(self):
        pairs = [("f0", f"d{j}") for j in range(10)]
        batches = shard_pairs(pairs, batch_size=4)
        assert [len(b) for b in batches] == [4, 4, 2]


class TestEndToEndInvalidation:
    def test_engine_reevaluates_collisions_live(self):
        """On a network with many accepted rewrites the snapshot goes
        stale mid-pass; the engine must invalidate and still land on
        the serial fixpoint (checked via the reported counters plus
        the byte-identity assertion in test_parallel_vs_serial)."""
        config = dataclasses.replace(BASIC, parallel_backend="serial")
        net = planted_network("collide", seed=11, n_pis=9, n_divisors=3,
                              n_targets=5)
        stats = substitute_network(net, config, n_jobs=2)
        assert stats.accepted > 0
        assert stats.parallel_pairs_invalidated > 0
        assert stats.parallel_pairs_reused > 0

    def test_enumeration_matches_serial_visit_set(self):
        net = planted_network("enum", seed=23, n_pis=8, n_divisors=3,
                              n_targets=4)
        pairs = enumerate_candidate_pairs(net, BASIC)
        assert pairs, "planted networks always have candidates"
        assert len(set(pairs)) == len(pairs)
        internal = {n.name for n in net.internal_nodes()}
        assert all(f in internal and d in internal for f, d in pairs)

    def test_commit_loop_reuses_enumeration_until_first_commit(
        self, monkeypatch
    ):
        """On a network already at its fixpoint nothing commits, so the
        speculative run lists each dividend's divisors once — in the
        enumeration — as a serial run does."""
        from repro.core import substitution

        config = dataclasses.replace(BASIC, parallel_backend="serial")
        calls = []
        real = substitution._candidate_divisors
        monkeypatch.setattr(
            substitution,
            "_candidate_divisors",
            lambda *args: calls.append(args) or real(*args),
        )
        counts = {}
        for n_jobs in (1, 2):
            net = planted_network("fixpoint", seed=11, n_pis=9,
                                  n_divisors=3, n_targets=5)
            substitute_network(net, config)  # to its fixpoint
            calls.clear()
            stats = substitute_network(net, config, n_jobs=n_jobs)
            assert stats.accepted == 0
            counts[n_jobs] = len(calls)
        assert counts[1] > 0
        assert counts[2] == counts[1]
