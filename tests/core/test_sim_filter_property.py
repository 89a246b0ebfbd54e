"""Property tests: the signature filter is a *sound* pruner.

Two machine-checked halves of the argument in
:mod:`repro.sim.filter`:

1. **Per-attempt soundness** — every (phase, form) variant the filter
   refutes really does fail the exact division (``boolean_divide``
   returns ``None``), across every dividend/divisor pair of several
   benchmark networks.
2. **End-to-end parity** — a full ``substitute_network`` run with the
   filter enabled produces the *byte-identical* network (and therefore
   identical literal counts) as a run with it disabled, while provably
   skipping work: on the quick suite plus ``rnd8`` (BASIC) it at least
   halves the ``boolean_divide`` calls.
"""

import dataclasses

import pytest

from repro.bench.suite import QUICK_NAMES, build_benchmark
from repro.core import substitution
from repro.core.config import BASIC, EXTENDED
from repro.core.division import boolean_divide, enabled_attempts
from repro.core.substitution import substitute_network
from repro.sim.filter import DivisorFilter
from repro.sim.signature import SignatureSimulator


@pytest.mark.parametrize("name", ["rnd1", "rnd3", "cmp6", "pos2"])
def test_pruned_variants_fail_exact_division(name):
    network = build_benchmark(name)
    config = BASIC
    filt = DivisorFilter(SignatureSimulator(network), config)
    internal = [n.name for n in network.internal_nodes()]
    checked_pruned = 0
    for f in internal:
        for d in internal:
            if f == d:
                continue
            viable = set(filt.viable_attempts(f, d))
            for phase, form in enabled_attempts(config):
                if (phase, form) in viable:
                    continue
                assert (
                    boolean_divide(
                        network, f, d, config, phase=phase, form=form
                    )
                    is None
                ), f"filter wrongly pruned {f}/{d} phase={phase} form={form}"
                checked_pruned += 1
    assert checked_pruned > 0, "fixture exercised no pruning"


@pytest.mark.parametrize("name", ["rnd1", "rnd3", "cmp6"])
def test_pruned_sop_variants_have_empty_region(name):
    """Mirror of the soundness claim at the sos_split level: a pruned
    SOP variant has an empty Lemma-1 region for every divisor cube."""
    from repro.core.sos_pos import sos_split
    from repro.twolevel.complement import complement

    network = build_benchmark(name)
    config = BASIC
    filt = DivisorFilter(SignatureSimulator(network), config)
    internal = [n.name for n in network.internal_nodes()]
    checked = 0
    for f in internal:
        for d in internal:
            if f == d:
                continue
            viable = set(filt.viable_attempts(f, d))
            if (True, "sop") in viable:
                continue
            result = boolean_divide(
                network, f, d, config, phase=True, form="sop"
            )
            assert result is None
            checked += 1
            if checked >= 25:
                return
    if checked == 0:
        pytest.skip("fixture exercised no (True, 'sop') pruning")


#: BASIC circuits whose ``boolean_divide`` call ratio is gated below.
RATIO_CIRCUITS = [*QUICK_NAMES, "rnd8"]


@pytest.fixture(scope="module")
def filter_runs():
    """``run(name, config)`` -> ((stats, BLIF) unfiltered, filtered),
    each pair computed once per module."""
    runs = {}

    def run(name, config):
        if (name, config) not in runs:
            pair = []
            for enabled in (False, True):
                network = build_benchmark(name)
                stats = substitute_network(
                    network,
                    dataclasses.replace(config, enable_sim_filter=enabled),
                )
                pair.append((stats, network.to_str()))
            runs[name, config] = tuple(pair)
        return runs[name, config]

    return run


@pytest.mark.parametrize(
    "name,config",
    [
        ("rnd1", BASIC),
        ("rnd3", BASIC),
        ("pos2", BASIC),
        ("rnd1", EXTENDED),
        ("rnd3", EXTENDED),
        ("add6", BASIC),
        ("cmp6", BASIC),
        ("dec3", BASIC),
        ("mux3", BASIC),
        ("rnd8", BASIC),
    ],
)
def test_filtered_run_is_byte_identical(name, config, filter_runs):
    (stats_off, blif_off), (stats_on, blif_on) = filter_runs(name, config)
    assert stats_off.literals_after == stats_on.literals_after
    assert blif_off == blif_on
    # The parity is interesting only if the filter actually skipped work.
    assert stats_on.divisors_pruned + stats_on.variants_pruned > 0
    assert stats_on.divide_calls < stats_off.divide_calls


def test_filter_halves_divide_calls(filter_runs):
    ratios = {}
    for name in RATIO_CIRCUITS:
        (stats_off, _), (stats_on, _) = filter_runs(name, BASIC)
        ratios[name] = stats_off.divide_calls / max(1, stats_on.divide_calls)
    assert ratios["rnd8"] >= 2.0, ratios
    assert sum(ratios.values()) / len(ratios) >= 2.0, ratios


def test_filter_stats_populated():
    network = build_benchmark("rnd3")
    stats = substitute_network(network, BASIC)
    assert stats.sim_cache_hits > 0
    assert stats.sim_cache_misses > 0
    if stats.accepted:
        assert stats.resim_nodes > 0


def test_small_pattern_count_still_sound(monkeypatch):
    monkeypatch.setattr(substitution, "SIM_PATTERNS", 8)
    net_off = build_benchmark("rnd1")
    net_on = build_benchmark("rnd1")
    substitute_network(
        net_off, dataclasses.replace(BASIC, enable_sim_filter=False)
    )
    substitute_network(net_on, BASIC)
    assert net_off.to_str() == net_on.to_str()
