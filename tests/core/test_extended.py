"""Tests for extended division: voting, clique selection, decomposition."""

import pytest

from repro.core.config import EXTENDED, EXTENDED_GDC
from repro.core.extended import (
    build_vote_table,
    choose_core_divisor,
    decompose_divisor,
)
from repro.network.network import Network
from repro.network.verify import networks_equivalent


def fat() -> Network:
    net = Network("fat")
    for pi in "abcdefxy":
        net.add_pi(pi)
    net.parse_node("g", "ab + cd + ef", list("abcdef"))
    net.parse_node("f1", "abx + cdx + a'y", ["a", "b", "c", "d", "x", "y"])
    net.parse_node("f2", "aby + cdy", ["a", "b", "c", "d", "y"])
    for po in ("f1", "f2", "g"):
        net.add_po(po)
    return net


class TestVoteTable:
    def test_wires_vote_for_implied_zero_cubes(self):
        table = build_vote_table(fat(), "f1", ["g"], EXTENDED)
        by_wire = {
            (e.cube_index, e.var, e.phase): e.candidates
            for e in table.entries
        }
        # Wire a of cube abx: a=0 implies g-cubes ab and (via learning
        # through cdx=0, x=1) cd to 0.
        shared = table.shared
        a_var = shared.index("a")
        candidates = by_wire[(0, a_var, True)]
        assert candidates["g"] == frozenset({0, 1})

    def test_infeasible_votes_deleted(self):
        # Wire x of cube abx: candidate would have to contain abx, but
        # implied-zero cubes need not; feasibility prunes it.
        table = build_vote_table(fat(), "f1", ["g"], EXTENDED)
        shared = table.shared
        x_var = shared.index("x")
        entry = [
            e for e in table.entries if e.var == x_var and e.cube_index == 0
        ][0]
        assert not entry.candidates

    def test_already_redundant_wires_marked(self):
        net = Network()
        for pi in "ab":
            net.add_pi(pi)
        net.parse_node("g", "a + b", ["a", "b"])
        # f = ab + ab' : wire b is redundant without any divisor.
        net.parse_node("f", "ab + ab'", ["a", "b"])
        net.add_po("f")
        net.add_po("g")
        table = build_vote_table(net, "f", ["g"], EXTENDED)
        assert any(e.already_redundant for e in table.entries)

    def test_pi_dividend_rejected(self):
        with pytest.raises(ValueError):
            build_vote_table(fat(), "a", ["g"], EXTENDED)

    def test_table_rendering(self):
        table = build_vote_table(fat(), "f1", ["g"], EXTENDED)
        text = table.to_str()
        assert "vote table for f1" in text
        assert "wire" in text


class TestCoreChoice:
    def test_chooses_embedded_core(self):
        table = build_vote_table(fat(), "f1", ["g"], EXTENDED)
        choice = choose_core_divisor(table, EXTENDED)
        assert choice is not None
        assert choice.divisor_name == "g"
        assert set(choice.cube_indices) == {0, 1}  # ab, cd
        assert len(choice.supporting_wires) >= 4

    def test_no_votes_no_choice(self):
        net = Network()
        for pi in "abcd":
            net.add_pi(pi)
        net.parse_node("g", "a + b", ["a", "b"])
        net.parse_node("f", "cd", ["c", "d"])
        net.add_po("f")
        net.add_po("g")
        table = build_vote_table(net, "f", ["g"], EXTENDED)
        assert choose_core_divisor(table, EXTENDED) is None

    def test_multiple_divisors_pooled(self):
        net = fat()
        net.parse_node("h", "ab + xy", ["a", "b", "x", "y"])
        net.add_po("h")
        table = build_vote_table(net, "f2", ["g", "h"], EXTENDED)
        choice = choose_core_divisor(table, EXTENDED)
        assert choice is not None
        # The core must come from a single node.
        assert choice.divisor_name in ("g", "h")


class TestDecompose:
    def test_decompose_divisor_structure(self):
        net = fat()
        reference = fat()
        core_name = decompose_divisor(net, "g", [0, 1])
        core = net.nodes[core_name]
        assert core.cover.num_cubes() == 2
        assert net.nodes["g"].fanins[-1] == core_name or (
            core_name in net.nodes["g"].fanins
        )
        assert networks_equivalent(reference, net)

    def test_rejects_trivial_cores(self):
        net = fat()
        with pytest.raises(ValueError):
            decompose_divisor(net, "g", [])
        with pytest.raises(ValueError):
            decompose_divisor(net, "g", [0, 1, 2])

    def test_gdc_table_finds_at_least_as_much(self):
        table_local = build_vote_table(fat(), "f1", ["g"], EXTENDED)
        table_gdc = build_vote_table(fat(), "f1", ["g"], EXTENDED_GDC)
        votes_local = sum(
            len(s) for e in table_local.entries for s in e.candidates.values()
        )
        votes_gdc = sum(
            len(s) for e in table_gdc.entries for s in e.candidates.values()
        )
        assert votes_gdc >= votes_local


def pos_fat() -> Network:
    """Divisor g = (a+b)(c+d)(e+f) carrying the POS core (a+b)(c+d)."""
    from repro.twolevel.cover import Cover

    net = Network("posfat")
    for pi in "abcdefxy":
        net.add_pi(pi)
    g = Cover.parse(
        "ace + acf + ade + adf + bce + bcf + bde + bdf", list("abcdef")
    )
    net.add_node("g", list("abcdef"), g)
    t1 = Cover.parse("acx + adx + bcx + bdx", ["a", "b", "c", "d", "x"])
    net.add_node("t1", ["a", "b", "c", "d", "x"], t1)
    t2 = Cover.parse("acy + ady + bcy + bdy", ["a", "b", "c", "d", "y"])
    net.add_node("t2", ["a", "b", "c", "d", "y"], t2)
    for po in ("t1", "t2", "g"):
        net.add_po(po)
    return net


class TestPosVoting:
    def test_dual_table_votes_for_sum_terms(self):
        table = build_vote_table(pos_fat(), "t1", ["g"], EXTENDED, form="pos")
        assert table.form == "pos"
        voted = [e for e in table.entries if e.candidates]
        assert len(voted) == 4  # a', b', c', d' wires of the dual cubes
        for entry in voted:
            assert entry.candidates["g"] == frozenset({1, 2})

    def test_pos_core_choice(self):
        table = build_vote_table(pos_fat(), "t1", ["g"], EXTENDED, form="pos")
        choice = choose_core_divisor(table, EXTENDED)
        assert choice is not None
        assert choice.divisor_name == "g"
        assert len(choice.cube_indices) == 2
        assert len(choice.supporting_wires) == 4

    def test_invalid_form_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            build_vote_table(pos_fat(), "t1", ["g"], EXTENDED, form="bogus")


class TestPosDecompose:
    def test_structure_and_equivalence(self):
        from repro.core.extended import decompose_divisor_pos

        net = pos_fat()
        table = build_vote_table(net, "t1", ["g"], EXTENDED, form="pos")
        choice = choose_core_divisor(table, EXTENDED)
        core = decompose_divisor_pos(net, "g", choice.cube_indices)
        # core = (a+b)(c+d): 4 cubes, 8 SOP literals.
        assert net.nodes[core].cover.num_cubes() == 4
        assert networks_equivalent(pos_fat(), net)

    def test_rejects_trivial(self):
        import pytest

        from repro.core.extended import decompose_divisor_pos

        net = pos_fat()
        with pytest.raises(ValueError):
            decompose_divisor_pos(net, "g", [])


class TestPosExtendedSubstitution:
    def test_pos_core_extraction_end_to_end(self):
        from repro.core.substitution import substitute_network

        net = pos_fat()
        stats = substitute_network(net, EXTENDED)
        assert stats.cores_extracted >= 1
        assert stats.literals_after < stats.literals_before
        assert networks_equivalent(pos_fat(), net)

    def test_basic_cannot_touch_pos_fat(self):
        from repro.core.config import BASIC
        from repro.core.substitution import substitute_network

        net = pos_fat()
        stats = substitute_network(net, BASIC)
        assert stats.literals_after == stats.literals_before


class TestVoteSpan:
    def test_traced_run_attributes_the_vote_table(self):
        from repro.core.substitution import substitute_network
        from repro.network.blif import to_blif_str
        from repro.obs.tracer import Tracer

        plain = fat()
        substitute_network(plain, EXTENDED)
        traced = fat()
        tracer = Tracer()
        substitute_network(traced, EXTENDED, tracer=tracer)
        assert to_blif_str(traced) == to_blif_str(plain)
        votes = [e for e in tracer.events if e["kind"] == "vote"]
        assert votes
        for event in votes:
            attrs = event["attrs"]
            assert attrs["form"] in ("sop", "pos")
            assert isinstance(attrs["f"], str)
            assert 0 <= attrs["candidates"] <= attrs["wires"]
        # The vote table's implications run under the vote span, not
        # under a pass's self time.
        by_id = {e["id"]: e for e in tracer.events}
        assert all(by_id[e["parent"]]["kind"] == "pass" for e in votes)
        assert any(e["attrs"]["candidates"] > 0 for e in votes)
