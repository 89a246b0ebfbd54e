"""Tests for network nodes."""

import pytest

from repro.twolevel.cover import Cover
from repro.network.node import Node


def make(expression: str, fanins):
    return Node("n", fanins, Cover.parse(expression, list(fanins)))


class TestBasics:
    def test_pi_has_no_cover(self):
        node = Node("x")
        assert node.is_pi
        assert node.sop_literals() == 0

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Node("n", ["a"], Cover.zero(2))

    def test_constant_detection(self):
        zero = Node("n", [], Cover.zero(0))
        one = Node("n", [], Cover.one(0))
        assert zero.is_constant() and zero.constant_value() is False
        assert one.constant_value() is True
        assert make("a", ["a"]).constant_value() is None

    def test_buffer_and_inverter(self):
        assert make("a", ["a"]).is_buffer()
        assert make("a'", ["a"]).is_inverter()
        assert not make("a", ["a"]).is_inverter()
        assert not make("ab", ["a", "b"]).is_buffer()

    def test_counts(self):
        node = make("ab + c'", ["a", "b", "c"])
        assert node.num_cubes() == 2
        assert node.sop_literals() == 3


class TestMutation:
    def test_set_function_checks_width(self):
        node = make("a", ["a"])
        with pytest.raises(ValueError):
            node.set_function(["a", "b"], Cover.zero(3))

    def test_prune_unused_fanins(self):
        node = Node("n", ["a", "b", "c"], Cover.parse("ac", ["a", "b", "c"]))
        node.prune_unused_fanins()
        assert node.fanins == ["a", "c"]
        assert node.cover.to_str(node.fanins) == "ac"

    def test_prune_noop_when_all_used(self):
        node = make("ab", ["a", "b"])
        node.prune_unused_fanins()
        assert node.fanins == ["a", "b"]


class TestQueries:
    def test_literal_occurrences(self):
        node = make("ab + a'c + b", ["a", "b", "c"])
        assert node.literal_occurrences("a") == (1, 1)
        assert node.literal_occurrences("b") == (2, 0)
        assert node.literal_occurrences("z") == (0, 0)

    def test_to_str_and_copy(self):
        node = make("ab", ["a", "b"])
        assert node.to_str() == "n = ab"
        clone = node.copy()
        clone.fanins.append("z")
        assert node.fanins == ["a", "b"]
