"""Differential fuzz of the serial substitution loop.

The 30 seeded planted networks of the three-oracle corpus (20 SOP and
10 POS plants, 7-10 PIs) are optimized under each of the paper's three
configurations (BASIC, EXTENDED, EXTENDED_GDC) and checked three ways:

* the signature filter is a pure pruner: a run with it disabled gives
  the byte-identical BLIF and the same accepted and literal counts,
  while the filtered run prunes divisors or variants and makes fewer
  divide calls;
* the optimized network is functionally equivalent to its input (BDD
  check), and the run's ``literals_after`` is its literal count, no
  more than ``literals_before``;
* under BASIC, ``verify_commits`` verifies every commit, rolls none
  back and gives the BLIF of the unverified run;
* the witness screen (``repro/sim/witness.py``) only skips implication
  runs whose answer a sampled pattern already gives: a run with the
  screen switched off gives the byte-identical BLIF and every counter
  but ``tests_witnessed``, which the screened run makes positive.

``tests/core/test_sim_filter_property.py`` checks the filter parity on
suite circuits under BASIC and EXTENDED; this corpus adds POS-planted
networks and the global-don't-care configuration.
"""

import dataclasses

import pytest

from repro.core.config import BASIC, EXTENDED, EXTENDED_GDC
from repro.core.substitution import substitute_network
from repro.network.blif import to_blif_str
from repro.network.factor import network_literals
from repro.network.verify import networks_equivalent
from tests.sat.test_three_oracle import _build, _fuzz_cases

CONFIGS = {"basic": BASIC, "ext": EXTENDED, "ext_gdc": EXTENDED_GDC}


def _case_id(case):
    return f"{case[0]}{case[1]}"


CASES = [
    pytest.param(case, label, id=f"{_case_id(case)}-{label}")
    for case in _fuzz_cases()
    for label in CONFIGS
]


def _run(case, config):
    """One run on a fresh build: (optimized network, stats)."""
    network = _build(case)
    return network, substitute_network(network, config)


@pytest.fixture(scope="module")
def filtered_run():
    """``filtered_run(case, label)`` -> the default (filtered) run,
    cached."""
    runs = {}

    def first(case, label):
        if (case, label) not in runs:
            runs[case, label] = _run(case, CONFIGS[label])
        return runs[case, label]

    return first


@pytest.mark.parametrize("case, label", CASES)
def test_filter_changes_no_output(case, label, filtered_run):
    network, stats = filtered_run(case, label)
    plain_network, plain = _run(
        case, dataclasses.replace(CONFIGS[label], enable_sim_filter=False)
    )
    assert to_blif_str(network) == to_blif_str(plain_network)
    assert stats.accepted == plain.accepted
    assert stats.literals_after == plain.literals_after
    # The parity is interesting only if the filter actually skipped work.
    assert stats.divisors_pruned + stats.variants_pruned > 0
    assert stats.divide_calls < plain.divide_calls


@pytest.mark.parametrize("case, label", CASES)
def test_output_is_equivalent_and_no_larger(case, label, filtered_run):
    network, stats = filtered_run(case, label)
    assert stats.accepted > 0
    assert networks_equivalent(_build(case), network)
    assert stats.literals_before == network_literals(_build(case))
    assert stats.literals_after == network_literals(network)
    assert stats.literals_after <= stats.literals_before


def counters(stats):
    """Every stats field but the timing."""
    fields = dataclasses.asdict(stats)
    fields.pop("cpu_seconds")
    return fields


@pytest.mark.parametrize("case, label", CASES)
def test_witness_screen_changes_no_output(
    case, label, filtered_run, screen_off
):
    network, stats = filtered_run(case, label)
    screen_off()
    open_network, unscreened = _run(case, CONFIGS[label])
    assert to_blif_str(network) == to_blif_str(open_network)
    screened, opened = counters(stats), counters(unscreened)
    assert screened.pop("tests_witnessed") > 0
    assert opened.pop("tests_witnessed") == 0
    assert screened == opened


@pytest.mark.parametrize("case", _fuzz_cases(), ids=_case_id)
def test_verified_commits_change_no_output(case, filtered_run):
    network, stats = filtered_run(case, "basic")
    checked_network, checked = _run(
        case, dataclasses.replace(BASIC, verify_commits=True)
    )
    assert to_blif_str(checked_network) == to_blif_str(network)
    assert checked.accepted == stats.accepted
    assert checked.commits_verified >= checked.accepted
    assert checked.commits_rolled_back == 0
    assert checked.pairs_quarantined == 0
    assert checked.incidents == []
