"""A bounded least-recently-used table, safe to share between threads.

The per-process compile caches — interned programs, per-declaration
results, per-definition facts — are all this shape: look up, else build
outside the lock and store unless a racing thread stored first.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class LruTable:
    """At most ``bound`` entries; the least recently used goes first."""

    def __init__(self, bound):
        self.bound = bound
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._entries)

    def get(self, key):
        """The entry for ``key`` (now the most recent), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key, entry):
        """Store ``entry`` unless a racing thread stored one first;
        returns the stored entry."""
        with self._lock:
            entry = self._entries.setdefault(key, entry)
            self._entries.move_to_end(key)
            while len(self._entries) > self.bound:
                self._entries.popitem(last=False)
            return entry

    def clear(self):
        with self._lock:
            self._entries.clear()
