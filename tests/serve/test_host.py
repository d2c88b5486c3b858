"""SessionHost: registry, LRU pool, image-backed eviction, rehydration."""

import threading

import pytest

from repro.apps.counter import SOURCE as COUNTER
from repro.core.errors import ReproError
from repro.live.session import LiveSession
from repro.api import Tracer
from repro.serve.host import SessionHost, UnknownToken


def make_host(**kwargs):
    kwargs.setdefault("pool_size", 16)
    kwargs.setdefault("default_source", COUNTER)
    kwargs.setdefault("tracer", Tracer())
    return SessionHost(**kwargs)


class TestRegistry:
    def test_create_returns_distinct_tokens(self):
        host = make_host()
        tokens = {host.create() for _ in range(5)}
        assert len(tokens) == 5
        assert len(host) == 5

    def test_unknown_token_rejected(self):
        host = make_host()
        with pytest.raises(UnknownToken):
            host.tap("nope", text="count: 0")

    def test_create_without_source_needs_default(self):
        host = SessionHost(pool_size=2)
        with pytest.raises(ReproError):
            host.create()

    def test_explicit_source_overrides_default(self):
        host = make_host()
        token = host.create(
            'page start()\n  render\n    post "hello"\n'
        )
        assert "hello" in host.screenshot(token)

    def test_destroy_forgets_the_session(self):
        host = make_host()
        token = host.create()
        assert host.destroy(token)
        assert not host.destroy(token)
        with pytest.raises(UnknownToken):
            host.render(token)

    def test_metrics_count_creations(self):
        host = make_host()
        host.create()
        host.create()
        assert host.metrics()["sessions_created"] == 2


class TestEviction:
    def test_pool_overflow_evicts_least_recently_used(self):
        host = make_host(pool_size=2)
        a = host.create()
        b = host.create()
        c = host.create()  # pool is full: the LRU session (a) pages out
        assert host.evicted(a)
        assert not host.evicted(b)
        assert not host.evicted(c)
        assert host.metrics()["sessions_evicted"] == 1

    def test_touching_a_session_protects_it_from_eviction(self):
        host = make_host(pool_size=2)
        a = host.create()
        b = host.create()
        host.tap(a, text="count: 0")  # a is now the most recently used
        host.create()
        assert host.evicted(b)
        assert not host.evicted(a)

    def test_rehydration_is_transparent(self):
        host = make_host(pool_size=16)
        token = host.create()
        host.tap(token, text="count: 0")
        host.tap(token, text="count: 1")
        assert host.evict(token)
        assert host.evicted(token)
        # The next request rehydrates: same state, same display.
        host.tap(token, text="count: 2")
        assert not host.evicted(token)
        assert "count: 3" in host.screenshot(token)
        assert host.metrics()["sessions_rehydrated"] == 1

    def test_forced_evict_is_idempotent(self):
        host = make_host()
        token = host.create()
        assert host.evict(token)
        assert not host.evict(token)
        assert host.metrics()["sessions_evicted"] == 1

    def test_rehydrated_html_is_byte_identical(self):
        host = make_host()
        token = host.create(title="app")
        host.tap(token, text="count: 0")
        html_before, generation, _ = host.render(token)
        host.evict(token)
        html_after, generation_after, modified = host.render(token)
        assert modified  # dirty after rehydration, so it re-rendered
        assert html_after == html_before
        assert generation_after == generation  # same bytes, same gen

    def test_evicted_sessions_drop_their_html(self):
        host = make_host()
        token = host.create(title="app")
        html_before, generation, _ = host.render(token)
        host.evict(token)
        assert host._entries[token].html is None
        html_after, generation_after, modified = host.render(token)
        assert modified and html_after == html_before
        assert generation_after == generation

    def test_stats_report_pool_shape(self):
        host = make_host(pool_size=2)
        for _ in range(5):
            host.create()
        stats = host.stats()
        assert stats["sessions"] == 5
        assert stats["resident"] == 2
        assert stats["evicted"] == 3
        assert stats["pool_size"] == 2
        assert stats["metrics"]["sessions_evicted"] == 3

    def test_pool_bookkeeping_examines_residents_only(self, monkeypatch):
        from repro.serve import host as host_module

        host = make_host(pool_size=16)
        tokens = [host.create() for _ in range(2016)]
        assert host.stats()["evicted"] == 2000
        examined = []
        plain = host_module._Entry.resident

        def counting(entry):
            examined.append(entry.token)
            return plain.fget(entry)

        monkeypatch.setattr(
            host_module._Entry, "resident", property(counting)
        )
        bound = host.pool_size + 4

        def examined_by(action):
            examined.clear()
            action()
            return len(examined)

        assert examined_by(host._enforce_capacity) <= bound
        assert examined_by(host.create) <= bound
        # A tap on an evicted session rehydrates it, then evicts the
        # least recently used resident.
        assert examined_by(
            lambda: host.tap(tokens[0], text="count: 0")
        ) <= bound
        stats = host.stats()
        assert (stats["resident"], stats["evicted"]) == (16, 2001)

    def test_destroy_and_evict_keep_the_resident_count(self):
        host = make_host(pool_size=2)
        first, second, third = (host.create() for _ in range(3))
        assert host.evicted(first)
        assert host.evict(second)
        host.destroy(third)
        host.tap(first, text="count: 0")  # rehydrates
        stats = host.stats()
        assert (stats["sessions"], stats["resident"]) == (2, 1)


class TestEditWhileEvicted:
    def test_edit_on_evicted_session_applies_fixup(self):
        """Eviction is save/resume: an edit landing on a paged-out
        session behaves exactly like edit-while-suspended (Fig. 12)."""
        host = make_host()
        token = host.create()
        host.tap(token, text="count: 0")
        host.evict(token)
        edited = COUNTER.replace('"count: "', '"taps: "')
        result = host.edit_source(token, edited)
        assert result.applied
        assert "taps: 1" in host.screenshot(token)

    def test_edit_dropping_a_global_matches_live_semantics(self):
        host = make_host()
        token = host.create()
        host.tap(token, text="count: 0")
        host.evict(token)
        retyped = COUNTER.replace(
            "global count : number = 0",
            'global count : string = "fresh"',
        ).replace("count := count + 1", 'count := "tapped"').replace(
            "count := 0", 'count := ""'
        )
        result = host.edit_source(token, retyped)
        assert result.applied
        assert result.report.dropped_globals == ["count"]

    def test_rejected_edit_keeps_the_evicted_session_alive(self):
        host = make_host()
        token = host.create()
        host.tap(token, text="count: 0")
        host.evict(token)
        result = host.edit_source(token, "page start(\n")
        assert not result.applied and result.problems
        assert "count: 1" in host.screenshot(token)


class TestGenerations:
    def test_generation_bumps_only_when_the_view_changes(self):
        host = make_host()
        token = host.create()
        _html, g1, _ = host.render(token)
        host.back(token)  # empty stack pop: display re-renders identically
        _html, g2, modified = host.render(token)
        assert modified          # dirty, so it recomputed…
        assert g2 == g1          # …but the bytes did not change
        host.tap(token, text="count: 0")
        _html, g3, _ = host.render(token)
        assert g3 == g1 + 1

    def test_not_modified_short_circuit(self):
        host = make_host()
        token = host.create()
        html, generation, modified = host.render(token)
        assert modified and html
        html2, generation2, modified2 = host.render(
            token, if_generation=generation
        )
        assert not modified2 and html2 is None
        assert generation2 == generation

    def test_stale_client_generation_gets_fresh_html(self):
        host = make_host()
        token = host.create()
        _html, generation, _ = host.render(token)
        host.tap(token, text="count: 0")
        html, new_generation, modified = host.render(
            token, if_generation=generation
        )
        assert modified and "count: 1" in html
        assert new_generation == generation + 1

    def test_bytes_served_counts_only_fresh_html(self):
        host = make_host()
        token = host.create()
        html, generation, _ = host.render(token)
        served = host.metrics()["bytes_served"]
        assert served == len(html.encode("utf-8"))
        host.render(token, if_generation=generation)  # 304: free
        assert host.metrics()["bytes_served"] == served


class TestConcurrency:
    def test_parallel_traffic_on_disjoint_sessions(self):
        host = make_host(pool_size=4)
        tokens = [host.create() for _ in range(8)]
        errors = []

        def drive(token):
            try:
                for _ in range(5):
                    html, _gen, _mod = host.render(token)
                    if html is not None:
                        label = html.split("count: ")[1].split("<")[0]
                    host.tap(token, text="count: " + label.strip())
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=drive, args=(token,))
            for token in tokens
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for token in tokens:
            assert "count: 5" in host.screenshot(token)

    def test_busy_sessions_are_not_evicted(self):
        host = make_host(pool_size=1)
        a = host.create()
        with host.session(a):
            # a is busy (its lock is held); creating b must not deadlock
            # and must leave busy a resident.
            b = host.create()
        assert not host.evicted(a) or not host.evicted(b)
        # Once idle, the next create can evict normally.
        host.create()
        assert host.stats()["resident"] <= 2


class TestControlEquivalence:
    def test_pooled_session_matches_unpooled_control(self):
        """The acceptance shape in miniature: a session that lived
        through eviction+rehydration renders byte-identically to a
        plain LiveSession driven with the same actions."""
        host = make_host(pool_size=1, session_kwargs={})
        token = host.create(title="control")
        control = LiveSession(COUNTER)
        for _ in range(3):
            host.tap(token, text="count: " + str(_))
            control.tap_text("count: " + str(_))
            host.evict(token)
        html, _gen, _mod = host.render(token)
        from repro.render.html_backend import render_html

        assert html == render_html(control.display, title="control")
