"""The bounded LRU memo store: capacity, recency, eviction accounting."""

from repro.api import Tracer
from repro.incremental import MemoEntry, MemoStore


def entry(tag):
    return MemoEntry(
        digest="d{}".format(tag), arg=None, reads=[],
        items=[], value=None, boxes=0,
    )


class TestLRU:
    def test_get_put_roundtrip(self):
        store = MemoStore(max_entries=2)
        e = entry(1)
        store.put(("d1", None), e)
        assert store.get(("d1", None)) is e
        assert store.get(("absent", None)) is None
        assert ("d1", None) in store
        assert len(store) == 1

    def test_capacity_evicts_least_recently_used(self):
        store = MemoStore(max_entries=2)
        store.put(("a", None), entry("a"))
        store.put(("b", None), entry("b"))
        store.get(("a", None))            # refresh a: b is now LRU
        store.put(("c", None), entry("c"))
        assert ("a", None) in store
        assert ("b", None) not in store
        assert ("c", None) in store
        assert store.evictions == 1

    def test_overwriting_existing_key_does_not_evict(self):
        store = MemoStore(max_entries=2)
        store.put(("a", None), entry("a"))
        store.put(("b", None), entry("b"))
        store.put(("a", None), entry("a2"))
        assert store.evictions == 0
        assert len(store) == 2

    def test_eviction_counts_into_tracer(self):
        tracer = Tracer()
        store = MemoStore(max_entries=1, tracer=tracer)
        store.put(("a", None), entry("a"))
        store.put(("b", None), entry("b"))
        store.put(("c", None), entry("c"))
        assert tracer.metrics()["incremental.memo_evictions"] == 2

    def test_clear_and_discard(self):
        store = MemoStore(max_entries=4)
        store.put(("a", None), entry("a"))
        store.put(("b", None), entry("b"))
        store.discard(("a", None))
        store.discard(("never-there", None))
        assert len(store) == 1
        store.clear()
        assert len(store) == 0

    def test_stats(self):
        store = MemoStore(max_entries=1)
        store.put(("a", None), entry("a"))
        store.put(("b", None), entry("b"))
        store.get(("a", None))
        assert store.stats() == {
            "entries": 1, "max_entries": 1, "evictions": 1, "lookups": 1,
        }


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
