"""The shared memo store under concurrent mutation (repro.serve).

Sharing one :class:`MemoStore` among a host's sessions makes it a
concurrency point: many host threads hit one LRU.  These tests hammer
the store from threads and then check the soundness story end to end —
cross-session hits fire, a session never replays a variant produced
from other read values, origins are tracked.
"""

import threading

from repro.api import Tracer
from repro.incremental import MemoEntry, MemoStore, ReadValues
from repro.incremental.store import SessionMemoView
from repro.serve.host import SessionHost


NO_READS = ReadValues(())


def entry(tag, origin=None):
    return MemoEntry(items=(), value=tag, boxes=0, origin=origin)


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
        keys = {
            (("d{}".format(n), None), ReadValues((n % 2,))): n
            for n in range(32)
        }
        for (call, read_key), n in keys.items():
            store.put(call, read_key, entry(n))

        def reader():
            for _ in range(300):
                for (call, read_key), n in keys.items():
                    found = store.get(call, read_key)
                    # An entry may be mid-replacement but never torn.
                    assert found is None or found.value == n

        def writer():
            for _round in range(100):
                for (call, read_key), n in keys.items():
                    store.put(call, read_key, entry(n))

        hammer([reader, reader, reader, writer, writer])
        assert len(store) == len(keys)
        assert store.stats()["calls"] == len(keys)

    def test_parallel_eviction_races_respect_the_cap(self):
        store = MemoStore(max_entries=16, tracer=Tracer())
        total = 8 * 50

        def writer(offset):
            def run():
                for n in range(50):
                    # Two variants of each call race the store-wide cap.
                    call = ("d{}-{}".format(offset, n // 2), None)
                    read_key = ReadValues((n % 2,))
                    store.put(call, read_key, entry(n))
                    store.get(call, read_key)
            return run

        hammer([writer(n) for n in range(8)])
        assert len(store) <= 16
        assert store.evictions == total - len(store)

    def test_parallel_clear_against_writers(self):
        store = MemoStore(max_entries=64)

        def writer():
            for n in range(200):
                store.put(
                    ("d{}".format(n % 32), None), ReadValues((n % 3,)),
                    entry(n),
                )

        def clearer():
            for _ in range(50):
                store.clear()

        hammer([writer, writer, clearer])
        assert len(store) <= 32 * 3


class TestSessionMemoView:
    def test_puts_are_stamped_with_the_sessions_origin(self):
        store = MemoStore()
        view = SessionMemoView(store, origin="s-1")
        view.put(("d1", None), NO_READS, entry(1))
        assert store.get(("d1", None), NO_READS).origin == "s-1"

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
        SessionMemoView(store, origin="a").put(
            ("d1", None), NO_READS, entry(1)
        )
        assert SessionMemoView(store, origin="b").get(
            ("d1", None), NO_READS
        ).value == 1


class TestSharedAcrossSessions:
    """The soundness story end to end through a real host."""

    def _gallery_host(self):
        from repro.apps.gallery import function_gallery_source

        return SessionHost(
            pool_size=8,
            default_source=function_gallery_source(rows=4, cols=3),
            tracer=Tracer(),
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
        # other session's variants were produced from the old value and
        # are keyed by it — the tapping session sees its own new state,
        # never the neighbour's cached frame, and both stay cached.
        host = self._gallery_host()
        first = host.create()
        untapped, _gen, _ = host.render(first)
        second = host.create()
        host.tap(second, text="[4]")
        tapped, _gen, _ = host.render(second)
        assert tapped != untapped
        # The untouched session still renders its original frame.
        assert host.render(first)[0] == untapped
        # Both values of ``selected`` now have variants side by side.
        stats = host.memo_store.stats()
        assert stats["entries"] > stats["calls"]

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
