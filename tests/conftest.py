"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from typing import List

import pytest
from hypothesis import strategies as st

from repro.twolevel.cube import Cube
from repro.twolevel.cover import Cover
from repro.network.network import Network


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def cube_st(draw, num_vars: int = 5):
    """A random (possibly full) cube over *num_vars* variables."""
    literals = {}
    for var in range(num_vars):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            literals[var] = True
        elif choice == 1:
            literals[var] = False
    return Cube.from_literals(literals.items())


@st.composite
def cover_st(draw, num_vars: int = 5, max_cubes: int = 6):
    """A random cover over *num_vars* variables."""
    cubes = draw(st.lists(cube_st(num_vars), max_size=max_cubes))
    return Cover(num_vars, cubes)


@st.composite
def cover_pair_st(draw, num_vars: int = 5, max_cubes: int = 5):
    return (
        draw(cover_st(num_vars, max_cubes)),
        draw(cover_st(num_vars, max_cubes)),
    )


@st.composite
def network_st(draw, max_pis: int = 5, max_nodes: int = 5):
    """A small random multilevel network with all nodes as POs."""
    n_pis = draw(st.integers(2, max_pis))
    n_nodes = draw(st.integers(1, max_nodes))
    seed = draw(st.integers(0, 2**31))
    return random_network(seed, n_pis, n_nodes)


def random_network(seed: int, n_pis: int = 5, n_nodes: int = 5) -> Network:
    """Deterministic random multilevel network (plain random module)."""
    rng = random.Random(seed)
    net = Network(f"rand{seed}")
    signals: List[str] = []
    for i in range(n_pis):
        name = f"x{i}"
        net.add_pi(name)
        signals.append(name)
    for j in range(n_nodes):
        width = rng.randint(1, min(4, len(signals)))
        fanins = rng.sample(signals, width)
        cubes = []
        for _ in range(rng.randint(1, 4)):
            literals = {}
            for v in range(width):
                r = rng.random()
                if r < 0.4:
                    literals[v] = True
                elif r < 0.8:
                    literals[v] = False
            cubes.append(Cube.from_literals(literals.items()))
        name = f"n{j}"
        cover = Cover(width, cubes).single_cube_containment()
        net.add_node(name, fanins, cover)
        signals.append(name)
    # Outputs: every node nothing else reads (keeps internal nodes
    # collapsible in structural tests).
    fanouts = net.fanouts()
    for node in net.internal_nodes():
        if not fanouts[node.name]:
            net.add_po(node.name)
    if not net.pos:
        net.add_po(net.internal_nodes()[-1].name)
    return net


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def paper_network() -> Network:
    """The intro example: f = ab + ac + ad' + a'b'c'd with g = b + c."""
    net = Network("paper")
    for pi in "abcd":
        net.add_pi(pi)
    net.parse_node("g", "b + c", ["b", "c"])
    net.parse_node("f", "ab + ac + ad' + a'b'c'd", ["a", "b", "c", "d"])
    net.add_po("f")
    net.add_po("g")
    return net


@pytest.fixture
def fat_divisor_network() -> Network:
    """Extended-division scenario: the core ab+cd hides inside g."""
    net = Network("fat")
    for pi in "abcdefxy":
        net.add_pi(pi)
    net.parse_node("g", "ab + cd + ef", list("abcdef"))
    net.parse_node("f1", "abx + cdx + a'y", ["a", "b", "c", "d", "x", "y"])
    net.parse_node("f2", "aby + cdy", ["a", "b", "c", "d", "y"])
    for po in ("f1", "f2", "g"):
        net.add_po(po)
    return net


@pytest.fixture
def screen_off(monkeypatch):
    """``screen_off()`` switches the witness screen off for the rest of
    the test: no implication test has a witness, and no clean is
    settled whole (both entry points of ``WitnessScreen``)."""
    from repro.sim.witness import WitnessScreen

    def switch() -> None:
        monkeypatch.setattr(
            WitnessScreen, "witnesses", lambda self, assignments, gates: 0
        )
        monkeypatch.setattr(
            WitnessScreen, "clean_tests", lambda self, cover, shared: 0
        )

    return switch


@pytest.fixture
def force_sat(monkeypatch):
    """``force_sat(budget=None)`` sends every exact check of the rest of
    the test to the SAT miter, whatever its PI count; with a *budget*,
    every solve also runs under that conflict budget (0 leaves each
    proof that needs search unknown)."""
    from repro.network import verify
    from repro.sat import check

    def switch(budget=None) -> None:
        monkeypatch.setattr(verify, "EXHAUSTIVE_PI_LIMIT", -1)
        if budget is not None:
            monkeypatch.setattr(check, "DEFAULT_CONFLICT_BUDGET", budget)

    return switch


def assert_equivalent(before: Network, after: Network) -> None:
    from repro.network.verify import networks_equivalent

    assert networks_equivalent(before, after), (
        f"rewrite broke equivalence:\n{before.to_str()}\n--\n{after.to_str()}"
    )
