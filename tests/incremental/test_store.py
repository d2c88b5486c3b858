"""The bounded LRU memo store: capacity, recency, eviction accounting.

Keys are two-level: a call ``(digest, argument)`` and, under it, the
read-set values (:class:`ReadValues`) the variant was produced from.
"""

from repro.api import Tracer
from repro.incremental import MemoEntry, MemoStore, ReadValues
from repro.incremental.store import MAX_VARIANTS_PER_CALL

NO_READS = ReadValues(())


def entry(tag):
    return MemoEntry(items=(), value=tag, boxes=0)


def call(tag):
    return ("d{}".format(tag), None)


class TestLRU:
    def test_get_put_roundtrip(self):
        store = MemoStore(max_entries=2)
        e = entry(1)
        store.put(call(1), NO_READS, e)
        assert store.get(call(1), NO_READS) is e
        assert store.get(call("absent"), NO_READS) is None
        assert call(1) in store
        assert len(store) == 1

    def test_capacity_evicts_least_recently_used(self):
        store = MemoStore(max_entries=2)
        store.put(call("a"), NO_READS, entry("a"))
        store.put(call("b"), NO_READS, entry("b"))
        store.get(call("a"), NO_READS)    # refresh a: b is now LRU
        store.put(call("c"), NO_READS, entry("c"))
        assert call("a") in store
        assert call("b") not in store
        assert call("c") in store
        assert store.evictions == 1

    def test_overwriting_existing_key_does_not_evict(self):
        store = MemoStore(max_entries=2)
        store.put(call("a"), NO_READS, entry("a"))
        store.put(call("b"), NO_READS, entry("b"))
        store.put(call("a"), NO_READS, entry("a2"))
        assert store.evictions == 0
        assert len(store) == 2
        assert store.get(call("a"), NO_READS).value == "a2"

    def test_eviction_counts_into_tracer(self):
        tracer = Tracer()
        store = MemoStore(max_entries=1, tracer=tracer)
        store.put(call("a"), NO_READS, entry("a"))
        store.put(call("b"), NO_READS, entry("b"))
        store.put(call("c"), NO_READS, entry("c"))
        assert tracer.metrics()["incremental.memo_evictions"] == 2

    def test_clear_and_discard(self):
        store = MemoStore(max_entries=4)
        store.put(call("a"), ReadValues((1,)), entry("a1"))
        store.put(call("a"), ReadValues((2,)), entry("a2"))
        store.put(call("b"), NO_READS, entry("b"))
        store.discard(call("a"))          # every variant of the call
        store.discard(call("never-there"))
        assert len(store) == 1
        assert call("a") not in store
        store.clear()
        assert len(store) == 0

    def test_stats(self):
        store = MemoStore(max_entries=1)
        store.put(call("a"), NO_READS, entry("a"))
        store.put(call("b"), NO_READS, entry("b"))
        store.get(call("a"), NO_READS)
        assert store.stats() == {
            "entries": 1, "calls": 1, "max_entries": 1, "evictions": 1,
            "lookups": 1,
        }


class TestVariants:
    def test_read_values_select_the_variant(self):
        store = MemoStore()
        store.put(call(1), ReadValues((5,)), entry("five"))
        store.put(call(1), ReadValues((9,)), entry("nine"))
        # Equal values in a distinct key object still match.
        assert store.get(call(1), ReadValues((5,))).value == "five"
        assert store.get(call(1), ReadValues((9,))).value == "nine"
        assert store.get(call(1), ReadValues((7,))) is None
        assert store.variants(call(1)) == 2
        assert store.variants(call(2)) == 0
        assert store.stats()["entries"] == 2
        assert store.stats()["calls"] == 1

    def test_global_bound_counts_variants(self):
        store = MemoStore(max_entries=3)
        for value in range(4):
            store.put(call(1), ReadValues((value,)), entry(value))
        assert len(store) == 3
        assert store.evictions == 1
        assert store.get(call(1), ReadValues((0,))) is None
        assert store.get(call(1), ReadValues((3,))).value == 3

    def test_per_call_bound_evicts_the_calls_own_oldest_variant(self):
        store = MemoStore()
        store.put(call("other"), NO_READS, entry("other"))
        for value in range(MAX_VARIANTS_PER_CALL + 5):
            store.put(call(1), ReadValues((value,)), entry(value))
        assert store.variants(call(1)) == MAX_VARIANTS_PER_CALL
        assert store.evictions == 5
        assert store.get(call("other"), NO_READS).value == "other"
        assert store.get(call(1), ReadValues((0,))) is None

    def test_read_values_key_hashes_once(self):
        class Counted:
            hashed = 0

            def __hash__(self):
                Counted.hashed += 1
                return 7

        key = ReadValues((Counted(),))
        assert Counted.hashed == 1
        store = MemoStore()
        store.put(call(1), key, entry(1))
        for _ in range(5):
            assert store.get(call(1), key).value == 1
        assert Counted.hashed == 1


class TestSystemCapPlumbs:
    def test_session_memo_cache_is_bounded(self):
        # End-to-end: a memoized system's store honours the LRU cap even
        # across distinct arguments (each row call is a distinct entry).
        from repro.apps.gallery import function_gallery_source
        from repro.api import LiveSession

        session = LiveSession(function_gallery_source(rows=6, cols=2))
        store = session.runtime.system._memo_store
        assert len(store) <= store.stats()["max_entries"]
        assert len(store) > 0
