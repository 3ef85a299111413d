"""Solve-result cache keyed by canonical problem hashes.

A small LRU memo shared by the batch runner: duplicate design points
(clamped sweep corners, repeated Monte Carlo corners, re-runs of the
same grid) are solved once and served from memory afterwards.  Values
are whatever a job kind returns (sweep points, metric rows) — small,
immutable payloads, never live scheduler state.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

__all__ = ["ResultCache"]

_MISS = object()


class ResultCache:
    """In-memory LRU cache with hit/miss accounting."""

    def __init__(self, max_entries: "int | None" = 4096):
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 or None, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: str) -> "tuple[bool, Any]":
        """``(hit, value)`` — counts the access either way."""
        value = self._entries.get(key, _MISS)
        if value is _MISS:
            self.misses += 1
            return False, None
        self._entries.move_to_end(key)
        self.hits += 1
        return True, value

    def peek(self, key: str) -> "tuple[bool, Any]":
        """``(hit, value)`` without touching counters or LRU order.

        The validity-range schedule store probes the exact cache before
        deciding whether a job needs a solve at all; counting that probe
        as a miss (as :meth:`lookup` does) would charge the cache for
        jobs it was never asked to serve.  Callers that act on the
        answer should follow up with :meth:`lookup` (on a hit, to record
        it and refresh recency) or count the miss at the point the solve
        is actually committed.
        """
        value = self._entries.get(key, _MISS)
        if value is _MISS:
            return False, None
        return True, value

    def contains(self, key: str) -> bool:
        """Membership probe *without* touching the counters."""
        return key in self._entries

    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the oldest if full."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> "dict[str, int]":
        """Counters for traces and reports."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries)}

    def __repr__(self) -> str:
        return (f"ResultCache(entries={len(self._entries)}, "
                f"hits={self.hits}, misses={self.misses}, "
                f"evictions={self.evictions})")
