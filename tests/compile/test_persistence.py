"""Backend choice across the persistence layers.

Three properties: a saved image remembers the session's backend (so
evict → rehydrate keeps the configuration), an explicit backend on load
*migrates* the session — byte-identically, because the backends are
observationally equal — and journal recovery works across a backend
switch with display generations still strictly increasing.
"""

from repro.api import Journal, SessionHost, Tracer
from repro.apps.counter import SOURCE as COUNTER
from repro.live.session import LiveSession
from repro.persist import load_image, save_image, save_image_text
from repro.render.html_backend import render_html
from repro.resilience import recover


def tapped_session(backend, taps=3):
    session = LiveSession(COUNTER, backend=backend)
    for n in range(taps):
        session.runtime.tap(
            session.runtime.require_text("count: {}".format(n))
        )
    return session


class TestImages:
    def test_tree_images_stay_byte_identical(self):
        # The default backend stays implicit: images from before the
        # field existed and tree-backend images are the same bytes.
        image = save_image(tapped_session("tree"))
        assert "backend" not in image

    def test_compiled_sessions_save_their_backend(self):
        image = save_image(tapped_session("compiled"))
        assert image["backend"] == "compiled"

    def test_load_restores_the_saved_backend(self):
        session = tapped_session("compiled")
        loaded = load_image(save_image_text(session))
        assert loaded.runtime.system.backend_name == "compiled"
        assert render_html(loaded.display) == render_html(session.display)

    def test_save_on_one_backend_load_on_the_other(self):
        # Migration in both directions is invisible: same HTML bytes,
        # same store.
        for saved_on, loaded_on in (
            ("tree", "compiled"), ("compiled", "tree"),
        ):
            session = tapped_session(saved_on)
            loaded = load_image(
                save_image(session), backend=loaded_on
            )
            assert loaded.runtime.system.backend_name == loaded_on
            assert render_html(loaded.display) == render_html(
                session.display
            )
            assert dict(
                loaded.runtime.system.state.store.items()
            ) == dict(session.runtime.system.state.store.items())

    def test_explicit_backend_wins_over_the_image(self):
        loaded = load_image(
            save_image(tapped_session("compiled")), backend="tree"
        )
        assert loaded.runtime.system.backend_name == "tree"


def make_host(backend=None, journal=None):
    return SessionHost(
        pool_size=4,
        default_source=COUNTER,
        tracer=Tracer(),
        journal=journal,
        session_kwargs={"backend": backend},
    )


class TestJournalRecovery:
    def test_recover_across_a_backend_switch(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        host = make_host(
            backend="tree", journal=Journal(journal_dir)
        )
        token = host.create()
        for _ in range(4):
            host.tap(token, path=[0])
        html, generation, _ = host.render(token)
        assert "count: 4" in html

        rebuilt = make_host(backend="compiled")
        report = recover(rebuilt, Journal(journal_dir))
        assert report.sessions == 1
        session = rebuilt._entries[token].session
        assert session.runtime.system.backend_name == "compiled"
        html_after, generation_after, _ = rebuilt.render(token)
        assert html_after == html
        assert generation_after > generation

    def test_eviction_rehydration_keeps_the_backend(self, tmp_path):
        host = SessionHost(
            pool_size=1, default_source=COUNTER, tracer=Tracer(),
            session_kwargs={"backend": "compiled"},
        )
        first = host.create()
        host.tap(first, path=[0])
        first_html, first_generation, _ = host.render(first)
        second = host.create()  # LRU-evicts ``first`` to an image
        assert second
        html, generation, _ = host.render(first)  # rehydrates
        session = host._entries[first].session
        assert session.runtime.system.backend_name == "compiled"
        assert "count: 1" in html
        assert html == first_html
        # Identical bytes keep the client's cached generation valid.
        assert generation >= first_generation

    def test_image_round_trips_through_alternating_backends(self):
        session = tapped_session("tree", taps=2)
        html = render_html(session.display)
        for backend in ("compiled", "tree", "compiled"):
            session = load_image(save_image(session), backend=backend)
            assert render_html(session.display) == html
            session.runtime.tap(session.runtime.require_text("reset"))
            session.runtime.tap(
                session.runtime.require_text("count: 0")
            )
            session.runtime.tap(session.runtime.require_text("reset"))
            html = render_html(session.display)
