"""Every host shares one memo store among its sessions.

Soundness across sessions whose natives differ, the store's bound under
session churn, and the shared store's stats and counters on a
single-process host (``stats`` and ``/metrics``).
"""

import threading
import urllib.request

from repro.api import Tracer
from repro.apps.gallery import function_gallery_source
from repro.incremental import MemoStore
from repro.obs.metrics import parse_prometheus
from repro.serve.app import make_server
from repro.serve.host import SessionHost

GALLERY = function_gallery_source(rows=4, cols=3)

SHOUTING = '''\
extern fun shout(s : string) : string is pure

fun loud(s : string)
  boxed
    post shout(s)

page start()
  render
    loud("hello")
'''


def upper(services, s):
    return s.upper()


def lower(services, s):
    return s.lower()


class TestNativeBindings:
    def test_sessions_binding_different_natives_see_their_own_output(self):
        # Digests cannot see host Python: the cached ``loud("hello")``
        # of a session whose ``shout`` upper-cases must never replay in
        # a session whose ``shout`` lower-cases, although the code, the
        # argument and the (empty) read set are equal.
        bindings = iter([upper, upper, lower, upper])
        host = SessionHost(
            pool_size=8,
            default_source=SHOUTING,
            make_host_impls=lambda: {"shout": next(bindings)},
            tracer=Tracer(),
        )
        # A session renders as it boots, against the store as it is.
        assert "HELLO" in host.render(host.create())[0]
        # The same implementation object: a cross-session hit.
        assert "HELLO" in host.render(host.create())[0]
        assert host.metrics()["cluster.memo.shared_hits"] == 1
        # Another implementation: re-executed under its own binding, as
        # a variant of its own, so the upper-casing variant survives and
        # the next upper-casing session is served it.
        assert "hello" in host.render(host.create())[0]
        assert host.metrics()["cluster.memo.shared_hits"] == 1
        assert "HELLO" in host.render(host.create())[0]
        assert host.metrics()["cluster.memo.shared_hits"] == 2


class TestBound:
    def test_store_stays_bounded_across_session_churn(self):
        host = SessionHost(
            pool_size=2, default_source=GALLERY, tracer=Tracer()
        )
        # A small bound, so the churn below overflows it many times.
        host.memo_store = store = MemoStore(max_entries=12)
        tokens = []
        for n in range(8):
            token = host.create()
            tokens.append(token)
            host.tap(token, text="[{}]".format(n % 4 + 4))
            host.render(token)
            assert len(store) <= 12
            if n % 3 == 2:
                host.destroy(tokens.pop(0))
        for token in tokens:
            host.evict(token)
            host.render(token)  # rehydrates into the same store
            assert len(store) <= 12
        stats = host.stats()["shared_memo"]
        assert stats["entries"] <= stats["max_entries"] == 12
        assert stats["evictions"] > 0


class TestObservability:
    def test_stats_report_the_shared_store(self):
        host = SessionHost(pool_size=4, default_source=GALLERY)
        assert host.stats()["shared_memo"]["lookups"] == 0
        host.render(host.create())
        shared = host.stats()["shared_memo"]
        assert shared["lookups"] > 0
        assert shared["entries"] > 0

    def test_metrics_count_shared_hits_on_a_single_host(self):
        host = SessionHost(
            pool_size=4, default_source=GALLERY, tracer=Tracer()
        )
        server = make_server(host)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            for _ in range(2):
                host.render(host.create())
            url = "http://127.0.0.1:{}/metrics".format(
                server.server_address[1]
            )
            with urllib.request.urlopen(url) as response:
                families = parse_prometheus(response.read().decode("utf-8"))
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        hits = families["repro_cluster_memo_shared_hits_total"][0][1]
        assert hits > 0
