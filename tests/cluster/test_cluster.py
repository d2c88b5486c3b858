"""End-to-end sharded serving: routing, chaos, rebalance, shared memo.

These tests spawn real worker subprocesses.  The acceptance bar for the
chaos path is the resilience story's cluster form: ``kill -9`` of any
worker must be invisible to clients beyond latency — same bytes, a
display generation that only moves forward, no untyped error.
"""

import json
import os
import shutil
import signal
import threading
import time
import urllib.request

import pytest

from repro.api import Tracer
from repro.apps.counter import SOURCE as COUNTER
from repro.apps.gallery import function_gallery_source
from repro.cluster import ClusterRouter, ClusterSupervisor
from repro.serve.app import make_server


def make_cluster(source=COUNTER, workers=2, **kwargs):
    supervisor = ClusterSupervisor(
        source=source, workers=workers, tracer=Tracer(),
        ping_interval=0.2, **kwargs
    ).start()
    return supervisor, ClusterRouter(supervisor)


def stop_cluster(supervisor):
    root = supervisor.journal_root
    supervisor.stop()
    shutil.rmtree(root, ignore_errors=True)


@pytest.fixture(scope="module")
def cluster():
    supervisor, router = make_cluster()
    try:
        yield supervisor, router
    finally:
        stop_cluster(supervisor)


def open_session(router):
    created = router.dispatch({"op": "create"})
    assert created["ok"], created
    return created["token"]


class TestRouting:
    def test_create_tap_render_flow(self, cluster):
        _supervisor, router = cluster
        token = open_session(router)
        tapped = router.dispatch(
            {"op": "tap", "token": token, "text": "count: 0"}
        )
        assert tapped["ok"], tapped
        rendered = router.dispatch({"op": "render", "token": token})
        assert rendered["ok"]
        assert "count: 1" in rendered["html"]

    def test_sessions_spread_over_workers(self, cluster):
        supervisor, router = cluster
        slots = {
            supervisor.slot_for(open_session(router)) for _ in range(12)
        }
        assert slots == {0, 1}

    def test_internal_ops_are_refused_at_the_front(self, cluster):
        _supervisor, router = cluster
        for op in ("__status__", "__drain__", "__adopt__"):
            reply = router.dispatch({"op": op})
            assert reply["ok"] is False
            assert reply["error"]["type"] == "BadRequest"

    def test_unknown_op_and_missing_token_are_typed(self, cluster):
        _supervisor, router = cluster
        assert router.dispatch({"op": "frobnicate"})["ok"] is False
        missing = router.dispatch({"op": "render"})
        assert missing["ok"] is False
        assert missing["error"]["type"] == "BadRequest"

    def test_stats_aggregate_across_workers(self, cluster):
        _supervisor, router = cluster
        open_session(router)
        reply = router.dispatch({"op": "stats"})
        assert reply["ok"]
        stats = reply["stats"]
        assert stats["sessions"] >= 1
        assert len(stats["workers"]) == 2
        assert stats["metrics"]["cluster.requests_routed"] > 0
        # Every worker is a host, and every host reports its store.
        for worker in stats["workers"].values():
            assert worker["shared_memo"]["max_entries"] == 4096

    def test_healthz_reports_both_workers(self, cluster):
        supervisor, _router = cluster
        health = supervisor.healthz()
        assert health["ok"] is True
        assert len(health["workers"]) == 2
        for worker in health["workers"]:
            assert worker["alive"] is True
            assert worker["pid"] > 0


class TestChaos:
    def test_kill_dash_nine_is_invisible_beyond_latency(self, cluster):
        supervisor, router = cluster
        token = open_session(router)
        router.dispatch({"op": "tap", "token": token, "text": "count: 0"})
        before = router.dispatch({"op": "render", "token": token})
        assert before["ok"]

        slot = supervisor.slot_for(token)
        victim = supervisor._slots[slot]
        pid = victim.process.pid
        restarts_before = victim.restarts
        os.kill(pid, signal.SIGKILL)
        victim.process.wait()

        # The next request rides revive-and-retry: the journal rebuilds
        # the session in a fresh process and the reply is byte-identical.
        after = router.dispatch({"op": "render", "token": token})
        assert after["ok"], after
        assert after["html"] == before["html"]
        assert victim.restarts == restarts_before + 1
        assert victim.process.pid != pid

        # State keeps moving forward: no acknowledged tap was lost and
        # the display generation is strictly increasing.
        router.dispatch({"op": "tap", "token": token, "text": "count: 1"})
        final = router.dispatch({"op": "render", "token": token})
        assert "count: 2" in final["html"]
        assert final["generation"] > after["generation"]

    def test_monitor_respawns_without_traffic(self, cluster):
        supervisor, router = cluster
        token = open_session(router)
        slot = supervisor.slot_for(token)
        victim = supervisor._slots[slot]
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.wait()
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline and not victim.alive:
            time.sleep(0.05)
        assert victim.alive  # the liveness loop noticed, no request needed
        rendered = router.dispatch({"op": "render", "token": token})
        assert rendered["ok"]


class TestRetire:
    def test_retire_rebalances_sessions_to_heirs(self):
        supervisor, router = make_cluster()
        try:
            tokens = [open_session(router) for _ in range(6)]
            counts = {}
            for token in tokens:
                router.dispatch(
                    {"op": "tap", "token": token, "text": "count: 0"}
                )
                counts[token] = router.dispatch(
                    {"op": "render", "token": token}
                )["html"]
            victim = supervisor.slot_for(tokens[0])
            moves = supervisor.retire(victim)
            assert all(heir != victim for _token, heir in moves)
            # Every session keeps serving from its heir with its state.
            for token in tokens:
                assert supervisor.slot_for(token) != victim
                rendered = router.dispatch({"op": "render", "token": token})
                assert rendered["ok"], rendered
                assert "count: 1" in rendered["html"]
        finally:
            stop_cluster(supervisor)

    def test_last_worker_cannot_retire(self):
        supervisor, _router = make_cluster(workers=1)
        try:
            with pytest.raises(Exception):
                supervisor.retire(0)
        finally:
            stop_cluster(supervisor)


class TestSharedCache:
    def test_two_sessions_same_app_share_render_work(self):
        supervisor, router = make_cluster(
            source=function_gallery_source(rows=4, cols=3)
        )
        try:
            for _ in range(6):
                token = open_session(router)
                assert router.dispatch(
                    {"op": "render", "token": token}
                )["ok"]
            metrics = router.dispatch({"op": "stats"})["stats"]["metrics"]
            assert metrics["cluster.memo.shared_hits"] > 0
        finally:
            stop_cluster(supervisor)


def listening_hosts(port):
    """Local addresses with a socket listening on ``port`` (Linux)."""
    hosts = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as handle:
                rows = handle.readlines()[1:]
        except OSError:
            continue
        for row in rows:
            fields = row.split()
            address, hex_port = fields[1].split(":")
            if fields[3] == "0A" and int(hex_port, 16) == port:
                hosts.add(address)
    return hosts


@pytest.mark.skipif(not os.path.exists("/proc/net/tcp"),
                    reason="reads the kernel's socket table")
class TestLoopbackWorkers:
    def test_worker_listens_on_loopback_whatever_the_front_binds(self):
        supervisor, router = make_cluster(workers=1, bind="0.0.0.0")
        try:
            token = open_session(router)
            assert router.dispatch({"op": "render", "token": token})["ok"]
            port = supervisor._slots[0].port
            # 127.0.0.1 as /proc/net/tcp spells it (little-endian hex).
            assert listening_hosts(port) == {"0100007F"}
        finally:
            stop_cluster(supervisor)


class TestHTTPFront:
    def test_cluster_behind_http(self, cluster):
        _supervisor, router = cluster
        server = make_server(router)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            request = urllib.request.Request(
                "http://127.0.0.1:{}/".format(port),
                data=json.dumps({"op": "create"}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                created = json.loads(response.read())
            assert created["ok"]
            health_url = "http://127.0.0.1:{}/healthz".format(port)
            with urllib.request.urlopen(health_url) as response:
                health = json.loads(response.read())
            assert health["ok"] is True
            assert health["role"] == "cluster"
        finally:
            server.shutdown()
            server.server_close()
