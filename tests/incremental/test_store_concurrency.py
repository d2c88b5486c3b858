"""The shared memo store under concurrent mutation (repro.cluster).

Promoting :class:`MemoStore` from per-System to per-program makes it a
concurrency point: many host threads hit one LRU.  These tests hammer
the store from threads and then check the soundness story end to end —
cross-session hits fire, stale entries are rejected by value, origins
are tracked.
"""

import threading

from repro.api import Tracer
from repro.incremental import MemoEntry, MemoStore
from repro.incremental.store import SessionMemoView
from repro.serve.host import SessionHost


def entry(tag, origin=None):
    return MemoEntry(
        digest="d{}".format(tag), arg=None, reads=[],
        items=[], value=tag, boxes=0, origin=origin,
    )


def hammer(threads):
    errors = []

    def run(target):
        try:
            target()
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    workers = [
        threading.Thread(target=run, args=(target,)) for target in threads
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
    assert errors == []


class TestParallelAccess:
    def test_parallel_hits_and_puts_stay_consistent(self):
        store = MemoStore(max_entries=64)
        keys = {("d{}".format(n), None): n for n in range(32)}
        for key, n in keys.items():
            store.put(key, entry(n))

        def reader():
            for _ in range(300):
                for key in keys:
                    found = store.get(key)
                    # An entry may be mid-replacement but never torn.
                    assert found is None or found.digest == key[0]

        def writer():
            for _round in range(100):
                for key, n in keys.items():
                    store.put(key, entry(n))

        hammer([reader, reader, reader, writer, writer])
        assert len(store) == len(keys)

    def test_parallel_eviction_races_respect_the_cap(self):
        store = MemoStore(max_entries=16, tracer=Tracer())
        total = 8 * 50

        def writer(offset):
            def run():
                for n in range(50):
                    key = ("d{}-{}".format(offset, n), None)
                    store.put(key, entry(key[0]))
                    store.get(key)
            return run

        hammer([writer(n) for n in range(8)])
        assert len(store) <= 16
        assert store.evictions == total - len(store)

    def test_parallel_clear_against_writers(self):
        store = MemoStore(max_entries=64)

        def writer():
            for n in range(200):
                store.put(("d{}".format(n % 32), None), entry(n))

        def clearer():
            for _ in range(50):
                store.clear()

        hammer([writer, writer, clearer])
        assert len(store) <= 32


class TestSessionMemoView:
    def test_puts_are_stamped_with_the_sessions_origin(self):
        store = MemoStore()
        view = SessionMemoView(store, origin="s-1")
        view.put(("d1", None), entry(1))
        assert store.get(("d1", None)).origin == "s-1"

    def test_shared_hit_counts_only_foreign_origins(self):
        counted = []
        store = MemoStore()
        view = SessionMemoView(store, origin="s-1", count=counted.append)
        view.note_shared_hit(entry(1, origin="s-2"))
        view.note_shared_hit(entry(2, origin="s-1"))   # own work
        view.note_shared_hit(entry(3, origin=None))    # private store
        assert counted == ["cluster.memo.shared_hits"]

    def test_views_share_one_store(self):
        store = MemoStore()
        SessionMemoView(store, origin="a").put(("d1", None), entry(1))
        assert SessionMemoView(store, origin="b").get(
            ("d1", None)
        ).value == 1


class TestSharedAcrossSessions:
    """The soundness story end to end through a real host."""

    def _gallery_host(self):
        from repro.apps.gallery import function_gallery_source

        return SessionHost(
            pool_size=8,
            default_source=function_gallery_source(rows=4, cols=3),
            tracer=Tracer(),
            memo_store=MemoStore(),
        )

    def test_second_session_rides_the_firsts_renders(self):
        host = self._gallery_host()
        first = host.create()
        host.render(first)
        before = host.metrics()["cluster.memo.shared_hits"]
        second = host.create()
        host.render(second)
        assert host.metrics()["cluster.memo.shared_hits"] > before

    def test_stale_entries_reject_by_value_not_falsely_hit(self):
        # A tap in one session changes a global its cells read; the
        # other session's entries are version-stale for it and must be
        # re-validated by value — the tapping session sees its own new
        # state, never the neighbour's cached frame.
        host = self._gallery_host()
        first = host.create()
        untapped, _gen, _ = host.render(first)
        second = host.create()
        host.tap(second, text="[4]")
        tapped, _gen, _ = host.render(second)
        assert tapped != untapped
        # The untouched session still renders its original frame.
        assert host.render(first)[0] == untapped

    def test_parallel_sessions_on_one_shared_store(self):
        host = self._gallery_host()
        tokens = [host.create() for _ in range(6)]

        def render(token):
            def run():
                for _ in range(5):
                    html, _generation, _modified = host.render(token)
                    assert html
            return run

        hammer([render(token) for token in tokens])
        assert host.metrics()["cluster.memo.shared_hits"] > 0
