"""Tests for the network-level substitution passes."""

import dataclasses
import itertools
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.suite import build_benchmark
from repro.core import substitution
from repro.core.config import BASIC, EXTENDED, EXTENDED_GDC, DivisionConfig
from repro.core.substitution import (
    SubstitutionStats,
    _candidate_divisors,
    substitute_network,
    substitute_pass,
)
from repro.network.blif import to_blif_str
from repro.network.factor import network_literals
from repro.network.network import Network
from repro.network.verify import networks_equivalent
from tests.conftest import assert_equivalent


class TestCandidates:
    def test_excludes_fanout_cone_and_self(self, paper_network):
        paper_network.parse_node("h", "f", ["f"])
        paper_network.add_po("h")
        candidates = _candidate_divisors(paper_network, "f")
        assert "f" not in candidates
        assert "h" not in candidates  # depends on f

    def test_requires_support_overlap(self, paper_network):
        paper_network.add_pi("z1")
        paper_network.add_pi("z2")
        paper_network.parse_node("far", "z1 z2", ["z1", "z2"])
        paper_network.add_po("far")
        assert "far" not in _candidate_divisors(paper_network, "f")

    def test_ranked_by_overlap(self, paper_network):
        candidates = _candidate_divisors(paper_network, "f")
        assert candidates[0] == "g"

    def test_limit_respected(self, paper_network, monkeypatch):
        monkeypatch.setattr(substitution, "MAX_CANDIDATE_DIVISORS", 0)
        assert _candidate_divisors(paper_network, "f") == []


class TestBasicPass:
    def test_paper_example_improves(self, paper_network):
        reference = paper_network.copy()
        stats = substitute_network(paper_network, BASIC)
        assert stats.accepted >= 2
        assert stats.literals_after < stats.literals_before
        assert_equivalent(reference, paper_network)

    def test_stats_accounting(self, paper_network):
        stats = substitute_network(paper_network, BASIC)
        assert stats.literals_after == network_literals(paper_network)
        assert stats.cpu_seconds >= 0
        assert 0 < stats.improvement() <= 100

    def test_fixpoint(self, paper_network):
        substitute_network(paper_network, BASIC)
        again = substitute_network(paper_network, BASIC)
        assert again.accepted == 0

    def test_pass_returns_delta(self, paper_network):
        stats = SubstitutionStats()
        first = substitute_pass(paper_network, BASIC, stats)
        assert first == stats.accepted

    def test_verification_hook(self, paper_network):
        config = DivisionConfig(verify_commits=True)
        reference = paper_network.copy()
        stats = substitute_network(paper_network, config)
        assert stats.accepted >= 1
        assert_equivalent(reference, paper_network)


class TestExtendedPass:
    def test_extended_extracts_core(self, fat_divisor_network):
        reference = fat_divisor_network.copy()
        stats = substitute_network(fat_divisor_network, EXTENDED)
        assert stats.cores_extracted >= 1
        assert stats.literals_after < stats.literals_before
        assert_equivalent(reference, fat_divisor_network)

    def test_basic_cannot_touch_fat_divisor(self, fat_divisor_network):
        stats = substitute_network(fat_divisor_network, BASIC)
        assert stats.cores_extracted == 0
        assert stats.literals_after == stats.literals_before

    def test_quality_ladder(self, fat_divisor_network):
        results = {}
        for name, config in (
            ("basic", BASIC),
            ("ext", EXTENDED),
            ("ext_gdc", EXTENDED_GDC),
        ):
            net = fat_divisor_network.copy()
            stats = substitute_network(net, config)
            results[name] = stats.literals_after
        assert results["ext"] <= results["basic"]
        assert results["ext_gdc"] <= results["basic"]


class TestGdc:
    def test_gdc_exploits_satisfiability_dont_cares(self):
        # m = ab implies M = a + b; with both as fanins of t, the
        # combination m=1, M=0 is unreachable.  Dividing t by some
        # divisor can exploit this only when implications run through
        # the whole circuit.
        net = Network()
        for pi in "abc":
            net.add_pi(pi)
        net.parse_node("m", "ab", ["a", "b"])
        net.parse_node("M", "a + b", ["a", "b"])
        net.parse_node("d", "M + c", ["M", "c"])
        net.parse_node("t", "mM + mc", ["m", "M", "c"])
        for po in ("t", "d", "m", "M"):
            net.add_po(po)
        reference = net.copy()
        local = net.copy()
        substitute_network(local, EXTENDED)
        gdc = net.copy()
        stats = substitute_network(gdc, EXTENDED_GDC)
        assert networks_equivalent(reference, gdc)
        assert network_literals(gdc) <= network_literals(local)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_gdc_preserves_function(self, seed):
        from repro.bench.generators import planted_network

        net = planted_network(
            "p", seed=seed, n_pis=6, n_divisors=2, n_targets=2
        )
        reference = net.copy()
        substitute_network(net, EXTENDED_GDC)
        assert networks_equivalent(reference, net)

    def test_shared_circuit_keeps_the_eager_gate_order(self, monkeypatch):
        """The per-dividend GDC circuit is built lazily, yet with the
        gates of an eager build at the dividend's first division.  On
        rnd7 a commit whose tests were all witnessed comes first, and
        the commit reorders ``topo_order()``, so the circuit must be
        built before it."""
        real_build = substitution.build_analysis_circuit
        real_divide = substitution.divide_node_pair
        eager = {}  # the dividend loop's circuit getter -> gate order
        built = []  # (getter, gate order) of every shared build
        current = []

        def divide(network, f_name, d_name, config, base_circuit=None,
                   **kwargs):
            if base_circuit not in eager:
                eager[base_circuit] = list(
                    real_build(network, f_name, [], config).gates
                )
            current[:] = [base_circuit]
            return real_divide(
                network, f_name, d_name, config,
                base_circuit=base_circuit, **kwargs
            )

        def build(network, f_name, divisors, config):
            circuit = real_build(network, f_name, divisors, config)
            built.append((current[0], list(circuit.gates)))
            return circuit

        monkeypatch.setattr(substitution, "divide_node_pair", divide)
        monkeypatch.setattr(substitution, "build_analysis_circuit", build)
        substitute_network(build_benchmark("rnd7"), EXTENDED_GDC)
        assert built
        for getter, gates in built:
            assert gates == eager[getter]


class TestRandomized:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_substitution_preserves_function(self, seed):
        from repro.bench.generators import planted_network

        net = planted_network(
            "p", seed=seed, n_pis=7, n_divisors=3, n_targets=3
        )
        reference = net.copy()
        stats = substitute_network(net, BASIC)
        assert networks_equivalent(reference, net)
        assert stats.literals_after <= stats.literals_before


class TestDeepNetworkStress:
    """Multi-level random networks stress the TFO-exclusion logic that
    keeps global-don't-care implications sound (implications must never
    flow through the fault's own output cone)."""

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_gdc_on_deep_networks(self, seed):
        from tests.conftest import random_network

        net = random_network(seed, n_pis=5, n_nodes=8)
        reference = net.copy()
        substitute_network(net, EXTENDED_GDC)
        assert networks_equivalent(reference, net)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_all_configs_on_deep_networks(self, seed):
        from tests.conftest import random_network

        for config in (BASIC, EXTENDED):
            net = random_network(seed, n_pis=4, n_nodes=7)
            reference = net.copy()
            substitute_network(net, config)
            assert networks_equivalent(reference, net), config.mode


class TestStatsAccumulation:
    """Regression: reusing one :class:`SubstitutionStats` ledger across
    runs must *add* every counter.  The sim-filter cache/resim counters
    used to be overwritten by the last run, silently dropping earlier
    passes from multi-run aggregations."""

    @staticmethod
    def _fresh():
        from repro.bench.generators import planted_network

        return planted_network(
            "acc", seed=31, n_pis=8, n_divisors=3, n_targets=4
        )

    def test_second_run_adds_instead_of_overwriting(self, monkeypatch):
        # A clock that advances 1.0 per reading makes every run take
        # exactly 1.0 s, so the timing adds up like the counters
        # instead of depending on how warm the process is.
        clock = itertools.count()
        monkeypatch.setattr(
            substitution,
            "time",
            types.SimpleNamespace(perf_counter=lambda: float(next(clock))),
        )
        solo = substitute_network(self._fresh(), BASIC)
        assert solo.resim_nodes > 0  # the counters under test are live
        assert solo.tests_witnessed > 0

        ledger = SubstitutionStats()
        substitute_network(self._fresh(), BASIC, stats=ledger)
        substitute_network(self._fresh(), BASIC, stats=ledger)
        for field in (
            "attempts",
            "accepted",
            "divide_calls",
            "sim_cache_hits",
            "sim_cache_misses",
            "resim_nodes",
            "tests_witnessed",
            "literals_before",
            "literals_after",
            "cpu_seconds",
        ):
            assert getattr(ledger, field) == 2 * getattr(solo, field), field

    def test_returned_object_is_the_ledger(self):
        ledger = SubstitutionStats()
        out = substitute_network(self._fresh(), BASIC, stats=ledger)
        assert out is ledger


class TestInertJobs:
    """``n_jobs`` has no effect: a run that sets it takes the serial
    loop and reports the same network and counters."""

    def test_n_jobs_changes_nothing(self):
        runs = []
        for jobs in (1, 2):
            network = build_benchmark("rnd3")
            config = dataclasses.replace(EXTENDED, n_jobs=jobs)
            stats = dataclasses.asdict(substitute_network(network, config))
            stats.pop("cpu_seconds")
            runs.append((to_blif_str(network), stats))
        assert runs[0] == runs[1]

    def test_n_jobs_is_still_checked(self):
        with pytest.raises(ValueError):
            DivisionConfig(n_jobs=0)


@pytest.mark.parametrize(
    "field",
    [
        "max_passes",
        "max_divisors",
        "max_region_cubes",
        "sim_patterns",
        "sim_seed",
        "sim_cache_size",
        "containment_cache_size",
        "resub_window_size",
        "resub_max_divisors",
        "resub_use_dontcares",
        "resub_odc_max_pis",
        "verify_backend",
        "sat_conflict_budget",
        "max_divide_calls",
    ],
)
def test_fixed_sizes_are_constants_not_config_fields(field):
    """The engine's fixed sizes are module constants, the exact check
    picks its own backend and conflict budget, and the run budget is
    a deadline alone; the config rejects the old field names."""
    with pytest.raises(TypeError):
        DivisionConfig(**{field: 1})
