"""Unit tests for the small LRU cache behind the divisor filter."""

import pytest

from repro.sim.cache import LRUCache


def test_basic_get_put():
    cache = LRUCache(4)
    assert cache.get("a") is None
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert "a" in cache
    assert len(cache) == 1


def test_hit_miss_counters():
    cache = LRUCache(4)
    cache.get("a")
    cache.put("a", 1)
    cache.get("a")
    cache.get("b")
    assert cache.hits == 1
    assert cache.misses == 2


def test_evicts_least_recently_used():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # refresh a; b becomes the LRU entry
    cache.put("c", 3)
    assert "a" in cache
    assert "b" not in cache
    assert "c" in cache
    assert len(cache) == 2


def test_put_updates_existing_key():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # refresh + overwrite, no eviction
    cache.put("c", 3)
    assert cache.get("a") == 10
    assert "b" not in cache


def test_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        LRUCache(0)
