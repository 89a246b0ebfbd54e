"""Verified checkpoints: corrupt results are rolled back + quarantined.

The injected fault is the nastiest kind a commit can receive: a
:class:`DivisionResult` that is structurally valid but functionally
*wrong* (its cover complemented).  It sails through the commit
plumbing untouched — only the transactional verification of
``verify_commits`` can catch it.
"""

import dataclasses

import pytest

from repro.bench.generators import planted_network
from repro.bench.suite import build_benchmark
from repro.core import substitution
from repro.core.config import BASIC, EXTENDED, SIMGUIDED
from repro.core.substitution import SubstitutionStats, substitute_network
from repro.network.blif import to_blif_str
from repro.network.verify import networks_equivalent
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.resilience.checkpoint import CommitLedger
from repro.scripts.flows import script_a
from repro.twolevel.complement import complement


def _network(seed=4242):
    return planted_network(
        f"rollback{seed}", seed=seed, n_pis=8, n_divisors=3, n_targets=5
    )


#: Every commit is proven, so the corrupt one is caught at its own
#: commit.
TRANSACTIONAL = dataclasses.replace(
    BASIC, verify_commits=True, verify_full_every=1
)


@pytest.fixture
def corrupt_first_result(monkeypatch):
    """Complement the cover of the first division result the run gets.

    The corrupted result keeps its fanins and (positive) gain, so the
    pass commits it; later results are left alone.
    """
    divide = substitution.divide_node_pair
    corrupted = []

    def corrupting(*args, **kwargs):
        result = divide(*args, **kwargs)
        if result is None or corrupted:
            return result
        corrupted.append(result)
        return dataclasses.replace(
            result, new_cover=complement(result.new_cover)
        )

    monkeypatch.setattr(substitution, "divide_node_pair", corrupting)


@pytest.mark.fault_injection
@pytest.mark.usefixtures("corrupt_first_result")
class TestRollback:
    def _corrupted_run(self, config=TRANSACTIONAL):
        network = _network()
        reference = network.copy(network.name)
        stats = substitute_network(network, config)
        return network, reference, stats

    def test_corrupt_commit_is_rolled_back_and_quarantined(self):
        network, reference, stats = self._corrupted_run()
        assert stats.commits_rolled_back >= 1
        assert stats.pairs_quarantined >= 1
        # The run survived the fault and the result is still correct.
        assert networks_equivalent(reference, network)

    def test_incident_record_is_structured(self):
        _, _, stats = self._corrupted_run()
        assert stats.incidents
        incident = stats.incidents[0]
        assert incident["kind"] == "rolled_back_commit"
        assert isinstance(incident["dividend"], str)
        assert isinstance(incident["divisor"], str)
        assert incident["check"] == "exact"
        assert incident["verdict"] == "different"
        import json

        json.dumps(stats.incidents)  # JSON-ready for --stats-json

    def test_default_cadence_proves_the_corrupt_commit(self):
        # verify_full_every keeps its default (16) and has no effect:
        # the first commit, the corrupt one, is proven different.
        network, reference, stats = self._corrupted_run(
            dataclasses.replace(BASIC, verify_commits=True)
        )
        assert [
            (incident["check"], incident["verdict"])
            for incident in stats.incidents
        ] == [("exact", "different")]
        assert networks_equivalent(reference, network)

    def test_quarantined_pair_stays_out(self):
        # The quarantined pair is the one the corrupt result named; it
        # must not be committed later in the run, although the
        # rollback restored the exact pre-commit node state.
        network, reference, stats = self._corrupted_run()
        assert stats.commits_rolled_back == stats.pairs_quarantined
        assert networks_equivalent(reference, network)


class TestTransactionalMode:
    def test_clean_run_verifies_every_commit(self):
        network = _network(seed=7)
        stats = substitute_network(
            network,
            dataclasses.replace(
                BASIC, verify_commits=True, verify_full_every=2
            ),
        )
        assert stats.accepted > 0
        assert stats.commits_verified >= stats.accepted
        assert stats.commits_rolled_back == 0
        assert stats.pairs_quarantined == 0
        assert stats.incidents == []

    def test_transactional_mode_changes_nothing_when_clean(self):
        plain = _network(seed=7)
        substitute_network(plain, BASIC)
        checked = _network(seed=7)
        substitute_network(
            checked, dataclasses.replace(BASIC, verify_commits=True)
        )
        assert to_blif_str(plain) == to_blif_str(checked)


class TestUnknownVerdict:
    def test_unknown_rolls_back_every_commit(self, force_sat):
        # Every commit gets an exact SAT check that cannot finish: a
        # zero conflict budget stops each non-trivial miter at its
        # first conflict.
        force_sat(0)
        network = build_benchmark("rnd8")
        script_a(network)
        prepared = to_blif_str(network)
        stats = substitute_network(network, TRANSACTIONAL)
        assert stats.commits_verified > 0
        assert stats.accepted == 0
        assert stats.commits_rolled_back == stats.commits_verified
        assert stats.pairs_quarantined == stats.commits_rolled_back
        assert stats.sat_solves == stats.commits_verified
        assert [
            (incident["check"], incident["verdict"])
            for incident in stats.incidents
        ] == [("exact", "unknown")] * stats.commits_rolled_back
        assert to_blif_str(network) == prepared


def _restate(network, index, complement=False):
    """Reverse the cubes of the *index*-th multi-cube node: the same
    function in a new structure (or, with *complement*, a wrong one)."""
    from repro.twolevel.complement import complement as complement_cover
    from repro.twolevel.cover import Cover

    node = [n for n in network.internal_nodes() if len(n.cover) > 1][index]
    cover = Cover(node.cover.num_vars, node.cover.cubes[::-1])
    if complement:
        cover = complement_cover(cover)
    node.set_function(list(node.fanins), cover)


class TestAdvancingReference:
    """After an exact proof the ledger holds a copy of the proven
    network as its reference; the caller's reference never changes.
    Every proof here is a SAT solve."""

    @pytest.fixture(autouse=True)
    def _sat(self, force_sat):
        force_sat()

    def _ledger(self, network, every=1):
        reference = network.copy(network.name)
        config = dataclasses.replace(
            BASIC, verify_commits=True, verify_full_every=every
        )
        ledger = CommitLedger(reference, config, SubstitutionStats())
        return reference, ledger

    def test_proven_commit_becomes_the_reference(self):
        network = _network()
        reference, ledger = self._ledger(network)
        original = to_blif_str(reference)
        _restate(network, 0)
        assert ledger.verify_commit(network, "f", "d", NULL_TRACER)
        assert ledger.reference is not network
        assert ledger.reference is not reference
        assert to_blif_str(ledger.reference) == to_blif_str(network)
        assert to_blif_str(reference) == original
        # A copy, not an alias: later rewrites leave the proven state.
        proven = to_blif_str(ledger.reference)
        _restate(network, 1)
        assert to_blif_str(ledger.reference) == proven

    def test_reference_moves_at_every_commit(self):
        # verify_full_every has no effect: both commits are proven,
        # and each proof advances the reference.
        network = _network()
        reference, ledger = self._ledger(network, every=2)
        _restate(network, 0)
        assert ledger.verify_commit(network, "f", "d", NULL_TRACER)
        assert ledger.reference is not reference
        first = ledger.reference
        assert to_blif_str(first) == to_blif_str(network)
        _restate(network, 1)
        assert ledger.verify_commit(network, "f", "d", NULL_TRACER)
        assert ledger.reference is not first
        assert to_blif_str(ledger.reference) == to_blif_str(network)
        assert ledger.stats.sat_solves == 2

    @pytest.mark.parametrize("status", ["different", "unknown"])
    def test_failed_check_keeps_the_last_proven_state(
        self, status, force_sat
    ):
        network = _network()
        _, ledger = self._ledger(network)
        _restate(network, 0)
        assert ledger.verify_commit(network, "f", "d", NULL_TRACER)
        proven = ledger.reference
        if status == "different":
            _restate(network, 1, complement=True)
        else:
            # An equal pair the solver cannot finish without search.
            force_sat(0)
            _restate(network, 1)
        assert not ledger.verify_commit(network, "f", "d", NULL_TRACER)
        ledger.quarantine("f", "d")
        assert ledger.stats.incidents[-1]["verdict"] == status
        assert ledger.reference is proven


def _spans(tracer, kind):
    return [event for event in tracer.events if event["kind"] == kind]


def _counters(stats):
    """Every field of *stats* except the timing."""
    fields = dataclasses.asdict(stats)
    del fields["cpu_seconds"]
    return fields


class TestLedgerTracing:
    def test_every_ledger_solve_is_a_span(self, force_sat):
        force_sat()
        network = build_benchmark("rnd8")
        script_a(network)
        config = dataclasses.replace(
            EXTENDED, verify_commits=True, verify_full_every=1
        )
        tracer = Tracer()
        stats = substitute_network(network, config, tracer=tracer)
        solves = _spans(tracer, "sat_solve")
        assert stats.sat_solves > 0
        assert len(solves) == stats.sat_solves
        verify_ids = {
            event["id"]: event for event in _spans(tracer, "verify")
        }
        assert len(verify_ids) == stats.commits_verified
        # Each solve nests directly under the ledger's verify span,
        # which records the backend and the status of its verdict.
        for solve in solves:
            parent = verify_ids[solve["parent"]]
            assert parent["attrs"]["backend"] == "sat"
            assert parent["attrs"]["status"] == "equal"
            # Checked against the last proven state, most of the
            # network is shared and only the changed cone is encoded.
            assert solve["attrs"]["shared"] >= 1

    def test_every_ledger_check_is_a_proof_at_any_cadence(self):
        # verify_full_every has no effect: at 1 and at the default 16
        # the run is the same, and every ledger check is a proof.
        runs = []
        for every in (1, 16):
            network = build_benchmark("rnd8")
            script_a(network)
            config = dataclasses.replace(
                EXTENDED, verify_commits=True, verify_full_every=every
            )
            tracer = Tracer()
            stats = substitute_network(network, config, tracer=tracer)
            verify = _spans(tracer, "verify")
            assert stats.commits_verified > 0
            assert len(verify) == stats.commits_verified
            for event in verify:
                assert event["attrs"]["check"] == "ledger"
                assert event["attrs"]["backend"] == "exhaustive"
                assert event["attrs"]["status"] == "equal"
                assert event["attrs"]["ok"] is True
            runs.append((to_blif_str(network), _counters(stats)))
        assert runs[0] == runs[1]

    def test_simguided_builds_no_ledger(self):
        runs = []
        for verify_commits in (False, True):
            network = build_benchmark("rnd8")
            tracer = Tracer()
            stats = substitute_network(
                network,
                dataclasses.replace(SIMGUIDED, verify_commits=verify_commits),
                tracer=tracer,
            )
            runs.append((to_blif_str(network), _counters(stats)))
        assert runs[0] == runs[1]
        assert stats.resub_accepted > 0
        assert stats.commits_verified == 0
        assert not [
            event for event in _spans(tracer, "verify")
            if event["attrs"].get("check") == "ledger"
        ]
        # Every accepted commit was proven by its own validation.
        validations = {
            event["parent"]: event
            for event in _spans(tracer, "resub_validate")
        }
        accepted = [
            event for event in _spans(tracer, "commit")
            if event["attrs"]["accepted"]
        ]
        assert len(accepted) == stats.resub_accepted
        for commit in accepted:
            assert validations[commit["id"]]["attrs"]["status"] == "equal"
