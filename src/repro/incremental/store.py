"""The update-surviving memo store — a bounded LRU of render results.

One :class:`MemoStore` lives for the whole life of a
:class:`~repro.system.transitions.System` (and therefore of a live
session): UPDATE creates a fresh :class:`~repro.eval.memo.RenderMemo`
*view* per code version, but every view shares this store, so entries
for functions whose digest and read-set values are unchanged survive
the edit and replay without re-execution.

Entries are keyed in two levels.  The *call* is ``(code digest,
argument value)`` — deliberately *not* the function name (a rename that
keeps the body is a digest match and still hits).  Under each call sits
a small LRU of *variants* keyed by the values of the function's read
set (a :class:`ReadValues`), in sorted read-name order: render output
is a pure function of ``(digest, argument, read-set values)``, so a key
match is a complete validation and no per-entry check is left to do —
the rule self-adjusting computation uses, which keys a memo hit on the
values a computation actually read.  Two sessions whose read globals
differ (the gallery's ``selected``) therefore both stay cached instead
of overwriting each other's entry.

The store is bounded twice: a call keeps at most
:data:`MAX_VARIANTS_PER_CALL` variants (a render function reading a
counter that never repeats cannot crowd out every other function), and
the whole store at most ``max_entries`` variants.  Insertion beyond
either bound evicts a least recently used variant (of the call itself,
or of the least recently used call) and counts
``incremental.memo_evictions``.

**Sharing across sessions** (repro.serve).  A standalone session owns
its store, but every :class:`~repro.serve.host.SessionHost` — a lone
``repro serve`` process or one cluster worker — owns one store and hands
each session a :class:`SessionMemoView` over it, so N sessions running
the same app warm each other.  Cross-session reuse is sound because the
key holds everything the output depends on: the digest pins the code,
the read values are the probing session's own, and a hit on an entry
whose producer may have called a native is taken only if the probing
session has bound the very same implementations
(:meth:`~repro.eval.memo.RenderMemo.probe`).  Sharing makes the store a
concurrency point: every operation is serialized behind an internal
lock, cheap when uncontended.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..obs.trace import NULL_TRACER

#: Read-value variants kept per ``(digest, argument)`` call.  The
#: gallery's cells read ``selected``, which a fleet of users spreads over
#: about twenty values; a call past the bound evicts its own least
#: recently used variant.
MAX_VARIANTS_PER_CALL = 32


class CallKey:
    """A call ``(digest, argument)`` with its hash computed once.

    Every store operation hashes its call at least twice (the lookup and
    the LRU touch), and an argument's hash recurses through its AST
    value in Python.  A key is built once per probe and hashed once.
    """

    __slots__ = ("digest", "argument", "hash")

    def __init__(self, digest, argument):
        self.digest = digest
        self.argument = argument
        self.hash = hash((digest, argument))

    def __hash__(self):
        return self.hash

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, CallKey)
            and self.hash == other.hash
            and self.digest == other.digest
            and self.argument == other.argument
        )

    def __repr__(self):
        return "CallKey({!r}, {!r})".format(self.digest, self.argument)


class ReadValues:
    """The values of one call's read set, in sorted read-name order,
    then the ``(native, implementation)`` pairs of the natives it may
    call — the variant key under a call.

    The hash is computed once, at construction: a
    :class:`~repro.eval.memo.RenderMemo` view reuses one key object for
    as long as the store versions of the read set do not move, so a
    repeat probe never re-hashes a large list global, and equality
    short-circuits on identity.  Only a hash match against another
    session's key pays the deep value compare.
    """

    __slots__ = ("values", "hash")

    def __init__(self, values):
        self.values = values
        self.hash = hash(values)

    def __hash__(self):
        return self.hash

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, ReadValues)
            and self.hash == other.hash
            and self.values == other.values
        )


class MemoEntry:
    """One cached render call: the box items it appended and its value.
    For a page's render (:meth:`~repro.eval.memo.RenderMemo.probe_page`)
    ``items`` is the frozen display root and ``steps`` the evaluation
    steps its execution charged.

    ``origin`` names the session (token) that executed the call;
    ``None`` for private per-System stores.  A hit on an entry with a
    *different* origin is a cross-session warm hit
    (``cluster.memo.shared_hits``).  ``natives`` pairs each native the
    producing function may call (transitively) with the implementation
    the producer had bound, in name order.
    """

    __slots__ = ("items", "value", "boxes", "origin", "natives", "steps")

    def __init__(self, items, value, boxes, origin=None, natives=(),
                 steps=0):
        self.items = items          # the cached box items (frozen trees)
        self.value = value          # the call's return value
        self.boxes = boxes          # boxes in ``items``, for replay stats
        self.origin = origin        # producing session, for shared stores
        self.natives = natives      # ((native, implementation), ...)
        self.steps = steps          # a page render's charged steps


class MemoStore:
    """A bounded LRU of :class:`MemoEntry` variants, grouped per call.

    ``call`` arguments are :class:`CallKey` objects and ``read_key``
    arguments :class:`ReadValues`.  Recency is kept per call and, within
    a call, per variant; past ``max_entries`` variants the least recently
    used call gives up its least recently used variant.  Thread-safe:
    sessions sharing one store run on different host threads, so the LRU
    bookkeeping is serialized behind a lock (an uncontended acquire costs
    nanoseconds; the private per-System case pays essentially nothing).
    """

    def __init__(self, max_entries=4096, tracer=NULL_TRACER):
        # call → OrderedDict(read_key → entry); both levels in LRU order.
        self._calls = OrderedDict()
        self._size = 0              # variants held, what max_entries bounds
        self._max_entries = max_entries
        self._lock = threading.RLock()
        self.tracer = tracer
        self.evictions = 0
        self.lookups = 0

    def get(self, call, read_key):
        """The variant of ``call`` for ``read_key``, or ``None``."""
        with self._lock:
            self.lookups += 1
            variants = self._calls.get(call)
            if variants is None:
                return None
            entry = variants.get(read_key)
            if entry is not None:
                variants.move_to_end(read_key)
                self._calls.move_to_end(call)
            return entry

    def put(self, call, read_key, entry):
        """Store ``entry`` as the ``read_key`` variant of ``call``;
        returns whether the call held variants before (a miss on such a
        call is a read-values miss, otherwise a cold one)."""
        with self._lock:
            calls = self._calls
            variants = calls.get(call)
            if variants is None:
                if self._size >= self._max_entries:
                    self._evict(next(iter(calls)))
                calls[call] = OrderedDict([(read_key, entry)])
                self._size += 1
                return False
            calls.move_to_end(call)
            if read_key in variants:
                variants[read_key] = entry
                variants.move_to_end(read_key)
                return True
            if len(variants) >= MAX_VARIANTS_PER_CALL:
                self._evict(call)
            elif self._size >= self._max_entries:
                self._evict(next(iter(calls)))
            variants = calls.get(call)
            if variants is None:    # its last variant was the one evicted
                variants = calls[call] = OrderedDict()
            variants[read_key] = entry
            self._size += 1
            return True

    def _evict(self, call):
        """Drop the least recently used variant of ``call``."""
        variants = self._calls[call]
        variants.popitem(last=False)
        if not variants:
            del self._calls[call]
        self._size -= 1
        self.evictions += 1
        self.tracer.add("incremental.memo_evictions")

    def discard(self, call):
        """Drop every variant of ``call``."""
        with self._lock:
            self._size -= len(self._calls.pop(call, ()))

    def clear(self):
        with self._lock:
            self._calls.clear()
            self._size = 0

    def invalidate_natives(self, names):
        """Drop exactly the calls that may have called a rebound native.

        Digests cannot see host Python, so when UPDATE rebinds a native
        implementation the affected entries are stale with their keys
        unchanged.  Each entry carries the (transitive) native call set
        of the function that produced it, so invalidation is precise:
        calls whose producers cannot reach any name in ``names`` keep
        their variants; an affected call loses all of them.  Returns the
        number of variants dropped.
        """
        names = frozenset(names)
        if not names:
            return 0
        with self._lock:
            stale = [
                call for call, variants in self._calls.items()
                if any(
                    name in names
                    for entry in variants.values()
                    for name, _ in entry.natives
                )
            ]
            dropped = sum(len(self._calls.pop(call)) for call in stale)
            self._size -= dropped
            if dropped:
                self.tracer.add(
                    "incremental.native_invalidations", dropped
                )
            return dropped

    def __len__(self):
        """The number of variants held (what ``max_entries`` bounds)."""
        with self._lock:
            return self._size

    def __contains__(self, call):
        with self._lock:
            return call in self._calls

    def variants(self, call):
        """How many variants ``call`` holds."""
        with self._lock:
            return len(self._calls.get(call, ()))

    def stats(self):
        with self._lock:
            return {
                "entries": self._size,
                "calls": len(self._calls),
                "max_entries": self._max_entries,
                "evictions": self.evictions,
                "lookups": self.lookups,
            }


class SessionMemoView:
    """One session's facade over a shared :class:`MemoStore`.

    The view is what a :class:`~repro.system.transitions.System` owns
    when it runs on a :class:`~repro.serve.host.SessionHost`: reads and
    writes go straight to the shared store, but every entry this
    session executes is tagged with the session's ``origin``, and a hit
    on a *foreign* entry is reported through ``count`` (the host's
    serialized metric counter) as ``cluster.memo.shared_hits`` — the
    measurable fact that one user's render warmed another's.

    ``invalidate_natives()`` acts on the *shared* store: its only caller
    is the native-rebind guard in UPDATE, whose reasoning ("digests
    cannot see host Python") invalidates the affected entries for every
    session equally.
    """

    __slots__ = ("store", "origin", "_count")

    def __init__(self, store, origin, count=None):
        self.store = store
        self.origin = origin
        self._count = count

    def get(self, call, read_key):
        return self.store.get(call, read_key)

    def put(self, call, read_key, entry):
        entry.origin = self.origin
        return self.store.put(call, read_key, entry)

    def note_shared_hit(self, entry):
        """Called by :meth:`~repro.eval.memo.RenderMemo.probe` after a
        hit: count it iff another session produced the entry."""
        if entry.origin is not None and entry.origin != self.origin:
            if self._count is not None:
                self._count("cluster.memo.shared_hits")

    def invalidate_natives(self, names):
        return self.store.invalidate_natives(names)

    def __len__(self):
        return len(self.store)

    def __contains__(self, call):
        return call in self.store

    def stats(self):
        return self.store.stats()
