"""The update-surviving memo store — a bounded LRU of render results.

One :class:`MemoStore` lives for the whole life of a
:class:`~repro.system.transitions.System` (and therefore of a live
session): UPDATE creates a fresh :class:`~repro.eval.memo.RenderMemo`
*view* per code version, but every view shares this store, so entries
for functions whose digest and read-set values are unchanged survive
the edit and replay without re-execution.

Entries are keyed by ``(code digest, argument value)`` — deliberately
*not* by function name (a rename that keeps the body is a digest match
and still hits) and *not* by read-set values (those are validated
against the entry's version-stamped read snapshot at probe time, see
:meth:`~repro.eval.memo.RenderMemo.probe`).

The store is bounded: without a cap, surviving UPDATE turns the old
per-machine cache into a leak across a long editing session.  Insertion
beyond ``max_entries`` evicts the least recently used entry and counts
``incremental.memo_evictions``.

**Sharing across sessions** (repro.cluster).  The store can also be
promoted from per-:class:`~repro.system.transitions.System` to
per-*program*: a :class:`~repro.serve.host.SessionHost` constructed with
``memo_store=`` hands every session a :class:`SessionMemoView` over the
one shared store, so N sessions running the same app warm each other —
entries are digest-keyed, which makes cross-session reuse sound (the
digest pins the code; the read-set snapshot is validated against the
*probing* session's store, and write-version ticks are globally unique
per process, so a foreign version stamp can never spuriously validate —
it falls back to the value compare and is then re-stamped locally).
That promotion makes the store a concurrency point: every operation is
serialized behind an internal lock, cheap when uncontended.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..obs.trace import NULL_TRACER


class MemoEntry:
    """One cached render call.

    ``reads`` is the version-stamped read snapshot: a list of mutable
    ``[global_name, store_version, value]`` slots.  Validation is an
    integer compare per slot on the fast path; on a version mismatch it
    falls back to a value compare and, when the value turns out equal,
    refreshes the stamp in place so the *next* probe is integers again.
    A version of ``0`` means "never assigned" — the value then came from
    the code's declared initial value, which an update can change with
    the digest fixed, so version-0 slots always deep-compare.

    ``origin`` names the session (token) that executed the call;
    ``None`` for private per-System stores.  A validated hit on an
    entry with a *different* origin is a cross-session warm hit
    (``cluster.memo.shared_hits``).
    """

    __slots__ = ("digest", "arg", "reads", "items", "value", "boxes",
                 "origin", "natives")

    def __init__(self, digest, arg, reads, items, value, boxes,
                 origin=None, natives=frozenset()):
        self.digest = digest
        self.arg = arg
        self.reads = reads
        self.items = items          # the cached box items (frozen trees)
        self.value = value          # the call's return value
        self.boxes = boxes          # boxes in ``items``, for replay stats
        self.origin = origin        # producing session, for shared stores
        self.natives = natives      # native ops the producer may call


class MemoStore:
    """A bounded, insertion-tracked LRU of :class:`MemoEntry`.

    Thread-safe: sessions sharing one store run on different host
    threads, so the LRU bookkeeping is serialized behind a lock (an
    uncontended acquire costs nanoseconds; the private per-System case
    pays essentially nothing).
    """

    def __init__(self, max_entries=4096, tracer=NULL_TRACER):
        self._entries = OrderedDict()
        self._max_entries = max_entries
        self._lock = threading.RLock()
        self.tracer = tracer
        self.evictions = 0
        self.lookups = 0

    def get(self, key):
        with self._lock:
            self.lookups += 1
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key, entry):
        with self._lock:
            entries = self._entries
            if key not in entries and len(entries) >= self._max_entries:
                entries.popitem(last=False)
                self.evictions += 1
                self.tracer.add("incremental.memo_evictions")
            entries[key] = entry
            entries.move_to_end(key)

    def discard(self, key):
        with self._lock:
            self._entries.pop(key, None)

    def clear(self):
        with self._lock:
            self._entries.clear()

    def invalidate_natives(self, names):
        """Drop exactly the entries that may have called a rebound native.

        Digests cannot see host Python, so when UPDATE rebinds a native
        implementation the affected entries are stale with their keys
        unchanged.  Each entry carries the (transitive) native call set
        of the function that produced it, so invalidation is precise:
        entries whose producers cannot reach any name in ``names``
        survive the rebind.  Returns the number of entries dropped.
        """
        names = frozenset(names)
        if not names:
            return 0
        with self._lock:
            stale = [
                key for key, entry in self._entries.items()
                if entry.natives & names
            ]
            for key in stale:
                del self._entries[key]
            if stale:
                self.tracer.add(
                    "incremental.native_invalidations", len(stale)
                )
            return len(stale)

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries

    def stats(self):
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "evictions": self.evictions,
                "lookups": self.lookups,
            }


class SessionMemoView:
    """One session's facade over a shared :class:`MemoStore`.

    The view is what a :class:`~repro.system.transitions.System` owns
    when its host promotes memoization to per-program: reads and writes
    go straight to the shared store, but every entry this session
    executes is tagged with the session's ``origin``, and a validated
    hit on a *foreign* entry is reported through ``count`` (the host's
    serialized metric counter) as ``cluster.memo.shared_hits`` — the
    measurable fact that one user's render warmed another's.

    ``clear()`` and ``invalidate_natives()`` act on the *shared* store:
    their only caller is the native-rebind guard in UPDATE, whose
    reasoning ("digests cannot see host Python") invalidates the
    affected entries for every session equally.
    """

    __slots__ = ("store", "origin", "_count")

    def __init__(self, store, origin, count=None):
        self.store = store
        self.origin = origin
        self._count = count

    def get(self, key):
        return self.store.get(key)

    def put(self, key, entry):
        entry.origin = self.origin
        self.store.put(key, entry)

    def note_shared_hit(self, entry):
        """Called by :meth:`~repro.eval.memo.RenderMemo.probe` after an
        entry *validated*: count it iff another session produced it."""
        if entry.origin is not None and entry.origin != self.origin:
            if self._count is not None:
                self._count("cluster.memo.shared_hits")

    def discard(self, key):
        self.store.discard(key)

    def clear(self):
        self.store.clear()

    def invalidate_natives(self, names):
        return self.store.invalidate_natives(names)

    def __len__(self):
        return len(self.store)

    def __contains__(self, key):
        return key in self.store

    def stats(self):
        return self.store.stats()
