"""The candidate clean's two shortcuts, each against the remover.

``_clean_cover`` returns a cover unchanged without building a
:class:`~repro.core.division.RegionRemover` in two cases:

* **The settle**: the witness screen meets every test of the clean
  (:meth:`~repro.sim.witness.WitnessScreen.clean_tests`).  On seeded
  random divisor networks and covers, the result must equal an
  unscreened clean's, and ``tests_witnessed`` must grow by what the
  per-test loop counts; a cover with a removable literal and one with
  a test no sample meets must fall through to the remover.
* **The all-PI shortcut**: every divisor is a PI.  It is exact for the
  engine's covers only because espresso returns them prime and
  irredundant: the remover does clean a redundant cover over PIs.
"""

from __future__ import annotations

import itertools
import random

from repro.core.config import SIMGUIDED
from repro.core.division import RegionRemover, build_analysis_circuit
from repro.network.network import Network
from repro.resub import engine
from repro.resub.engine import _clean_cover
from repro.resub.resyn import resynthesize_window
from repro.sim.signature import SignatureSimulator
from repro.sim.witness import WitnessScreen
from repro.twolevel.cover import Cover
from repro.twolevel.cube import Cube

from tests.conftest import random_network
from tests.resub.test_engine_units import _implied_divisors


class _PerTestScreen(WitnessScreen):
    """A screen that never settles a clean whole, so the remover's
    per-test loop runs and counts its witnesses."""

    def clean_tests(self, cover, shared):
        return 0


def _count_removers(monkeypatch):
    built = []

    class Counted(RegionRemover):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["f_name"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine, "RegionRemover", Counted)
    return built


def _three_cleans(network, f_name, divisors, cover, sim):
    """Clean *cover* unscreened, settled and per test; returns the
    three results and the two screens."""
    settle, per_test = WitnessScreen(sim), _PerTestScreen(sim)
    results = [
        _clean_cover(
            network, f_name, divisors, cover, SIMGUIDED, None, None, screen
        )
        for screen in (None, settle, per_test)
    ]
    return results, settle, per_test


def _random_cover(rng, width):
    cubes = []
    for _ in range(rng.randint(1, 3)):
        literals = {
            var: rng.random() < 0.5
            for var in range(width)
            if rng.random() < 0.7
        }
        cubes.append(Cube.from_literals(literals.items()))
    return Cover(width, cubes)


def test_settled_cleans_equal_the_remover(monkeypatch):
    built = _count_removers(monkeypatch)
    settled = opened = removed = 0
    for seed in range(12):
        rng = random.Random(seed)
        network = random_network(seed, n_pis=5, n_nodes=7)
        sim = SignatureSimulator(network, patterns=16, seed=seed)
        names = [node.name for node in network.internal_nodes()]
        f_name = names[-1]
        for size in (1, 2, 3):
            for divisors in itertools.combinations(names[:-1], size):
                cover = _random_cover(rng, size)
                before = len(built)
                results, settle, per_test = _three_cleans(
                    network, f_name, divisors, cover, sim
                )
                plain, screened, looped = results
                assert screened == plain == looped, (seed, divisors, cover)
                assert settle.tests_witnessed == per_test.tests_witnessed
                if WitnessScreen(sim).clean_tests(cover, divisors):
                    settled += 1
                    assert screened[1] == 0
                    # Only the unscreened and the per-test cleans ran
                    # a remover.
                    assert len(built) - before == 2
                else:
                    opened += 1
                    assert len(built) - before == 3
                removed += plain[1]
    # The population exercises both branches and real removals.
    assert settled > 30 and opened > 30 and removed > 0


def test_removable_literal_falls_through_to_the_remover(monkeypatch):
    # d1 d2 + d1 d2': the d2 literal's test asks for d1 d2' = 0 and
    # d1 d2' = 1 at once, so no pattern meets it, and it conflicts.
    built = _count_removers(monkeypatch)
    network = _implied_divisors()
    sim = SignatureSimulator(network, patterns=64, seed=1)
    cover = Cover.parse("d1 d2 + d1 d2'", ["d1", "d2"])
    assert WitnessScreen(sim).clean_tests(cover, ("d1", "d2")) == 0
    results, settle, per_test = _three_cleans(
        network, "f", ("d1", "d2"), cover, sim
    )
    plain, screened, looped = results
    assert screened == plain == looped
    assert plain[1] > 0
    assert plain[0] == Cover.parse("d1", ["d1", "d2"])
    assert settle.tests_witnessed == per_test.tests_witnessed
    assert len(built) == 3


def _rare_divisor() -> Network:
    """d1 = a·b·c·d·e·g is 1 on 1/64 of the patterns, and d2 = x·y is
    not implied by it: the d2 literal of d1·d2 is testable, but rarely
    met by a sample."""
    net = Network("rare")
    pis = ["a", "b", "c", "d", "e", "g", "x", "y"]
    for pi in pis:
        net.add_pi(pi)
    net.parse_node("d1", "a b c d e g", pis[:6])
    net.parse_node("d2", "x y", ["x", "y"])
    net.parse_node("f", "d1 d2", ["d1", "d2"])
    net.add_po("f")
    return net


def test_unmet_test_falls_through_to_the_remover(monkeypatch):
    built = _count_removers(monkeypatch)
    network = _rare_divisor()
    sim = SignatureSimulator(network, patterns=16, seed=1)
    screen = WitnessScreen(sim)
    cover = Cover.parse("d1 d2", ["d1", "d2"])
    # No sample has d1 = 1 and d2 = 0.
    assert screen.signal("d1") & ~screen.signal("d2") & sim.mask == 0
    assert screen.clean_tests(cover, ("d1", "d2")) == 0
    results, settle, per_test = _three_cleans(
        network, "f", ("d1", "d2"), cover, sim
    )
    plain, screened, looped = results
    assert screened == plain == looped == (cover, 0)
    # One of the two literal tests had a witness; the other ran imply.
    assert settle.tests_witnessed == per_test.tests_witnessed == 1
    assert len(built) == 3


def _remover_removals(network, f_name, divisors, cover):
    """What the remover takes out of *cover*, without the shortcut."""
    remover = RegionRemover(
        lambda: build_analysis_circuit(
            network, f_name, list(divisors), SIMGUIDED
        ),
        f_name=f_name,
        shared=list(divisors),
        region=dict(enumerate(cover.cubes)),
        remainder={},
        divisor_assignment=None,
        config=SIMGUIDED,
    )
    remover.run()
    return remover.wires_removed + remover.cubes_removed


def test_pi_shortcut_skips_only_what_the_remover_would_keep():
    # A redundant cover over PIs is cleaned by the remover ...
    network = _implied_divisors()
    redundant = Cover.parse("a b + a b'", ["a", "b"])
    assert _remover_removals(network, "f", ("a", "b"), redundant) > 0
    assert _clean_cover(
        network, "f", ("a", "b"), redundant, SIMGUIDED, None
    ) == (redundant, 0)
    # ... but resynthesis covers are prime and irredundant over
    # on ∪ dc, and the remover removes nothing from them.
    checked = 0
    for seed in range(8):
        rng = random.Random(seed)
        network = random_network(seed, n_pis=5, n_nodes=6)
        sim = SignatureSimulator(network, patterns=16, seed=seed)
        for node in network.internal_nodes():
            care = rng.choice([sim.mask, rng.getrandbits(16)])
            for size in (1, 2, 3):
                for divisors in itertools.combinations(network.pis, size):
                    cover = resynthesize_window(
                        sim.signatures[node.name],
                        [sim.signatures[d] for d in divisors],
                        sim.mask,
                        care,
                    )
                    if cover is None or cover.is_zero():
                        continue
                    checked += 1
                    assert _remover_removals(
                        network, node.name, divisors, cover
                    ) == 0, (seed, node.name, divisors, cover)
    assert checked > 200
