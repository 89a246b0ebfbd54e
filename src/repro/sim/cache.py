"""A small LRU cache with hit/miss accounting.

Used by the signature filter for cube-signature and containment-verdict
queries.  Entries are keyed on ``(node name, generation, ...)`` tuples
(see :mod:`repro.sim.filter`), so invalidation on network mutation is
handled by bumping the owning node's generation — stale keys simply
stop matching and age out of the LRU order.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional


class LRUCache:
    """Bounded mapping with least-recently-used eviction."""

    __slots__ = ("capacity", "hits", "misses", "_data")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Optional[Any]:
        """Look up *key*, counting a hit or miss and refreshing LRU order."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
