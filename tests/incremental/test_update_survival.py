"""Memo entries surviving UPDATE — the tentpole behaviour.

An edit swaps the whole evaluator (and its RenderMemo view), but the
MemoStore lives with the System: the first render after UPDATE replays
every call whose digest and read-set values are unchanged.  These tests
drive real edits through LiveSession/System and assert exactly which
entries survive, what the EditResult and the metric catalog report, and
that the serve layer's HTML short-circuit fires on fully-memoized
re-renders.
"""

from repro.api import LiveSession, Tracer
from repro.apps.gallery import function_gallery_source
from repro.core import ast
from repro.core.defs import Code, FunDef, PageDef
from repro.core.effects import RENDER, STATE
from repro.core.prims import PrimSig
from repro.core.types import FunType, STRING, UNIT
from repro.eval.natives import NativeTable
from repro.render.html_backend import render_html
from repro.system.transitions import System

ROWS, COLS = 4, 3


def gallery_session(**kwargs):
    return LiveSession(function_gallery_source(rows=ROWS, cols=COLS), **kwargs)


class TestEntriesSurviveUpdate:
    def test_warm_edit_replays_every_helper(self):
        session = gallery_session()
        result = session.replace_text('"gallery"', '"edited"')
        assert result.applied
        # The title global is read only by the page's inline header, so
        # no helper digest or read-set value moved.  Hits count the
        # *outermost* replayed calls — the ROWS row calls — because a
        # row hit splices its cached subtree, cells included, without
        # ever probing the cell entries.  The box count shows the full
        # reuse: every row box plus every cell box.
        assert result.memo_hits == ROWS
        assert result.memo_misses == 0
        assert result.replayed_boxes == ROWS + ROWS * COLS
        assert "edited" in session.screenshot()

    def test_memoized_update_html_matches_unmemoized(self):
        memoized = gallery_session()
        plain = gallery_session(faithful=True)
        for edit in (('"gallery"', '"one"'), ('"one"', '"two"')):
            assert memoized.replace_text(*edit).applied
            assert plain.replace_text(*edit).applied
            assert render_html(memoized.display) == render_html(plain.display)

    def test_unmemoized_session_reports_zero(self):
        session = gallery_session(faithful=True)
        result = session.replace_text('"gallery"', '"edited"')
        assert result.applied
        assert result.memo_hits == result.memo_misses == 0
        assert result.replayed_boxes == 0

    def test_rejected_edit_reports_zero(self):
        session = gallery_session()
        result = session.edit_source("page start()\n  render\n    nonsense(")
        assert not result.applied
        assert result.memo_hits == result.memo_misses == 0

    def test_edited_helper_misses_untouched_helper_hits(self):
        session = gallery_session()
        # Change every cell's body: cell misses everywhere; row calls
        # cell, so row's digest changes too — nothing replays.
        result = session.replace_text('"["', '"<"')
        assert result.applied
        assert result.memo_hits == 0
        assert result.memo_misses == ROWS * COLS + ROWS

    def test_row_only_edit_keeps_cell_entries(self):
        session = gallery_session()
        result = session.replace_text(
            "box.horizontal := true", "box.horizontal := false"
        )
        assert result.applied
        # row's digest moved (its own body changed) but cell's did not:
        # the ROWS*COLS cell entries replay inside re-executed rows.
        assert result.memo_hits == ROWS * COLS
        assert result.memo_misses == ROWS

    def test_rename_with_identical_body_still_hits(self):
        session = gallery_session()
        # Entries are keyed by digest, not name: renaming cell→tile
        # replays all cell entries.  (row's body changed — its call site
        # now says tile — so the ROWS row entries miss.)
        result = session.edit_source(
            session.source.replace("cell", "tile")
        )
        assert result.applied
        assert result.memo_hits == ROWS * COLS
        assert result.memo_misses == ROWS


class TestWriteVersioning:
    def test_assigned_global_survives_init_edit(self):
        session = gallery_session()
        session.tap_text("[5]")  # selected := 5 — now version > 0
        result = session.replace_text(
            "selected : number = -1", "selected : number = -2"
        )
        assert result.applied
        # EP-GLOBAL reads the *assigned* value; the declared init is
        # dead, so the outermost entry — the page's own, whose read set
        # holds ``selected`` through its rows' cells — still validates.
        stats = session.runtime.system.last_update_render_stats
        assert stats["page_hits"] == 1
        assert result.memo_hits == 0
        assert result.memo_misses == 0

    def test_unassigned_global_init_edit_invalidates_readers(self):
        session = gallery_session()
        # selected was never assigned: version 0 means the read came
        # from the declared init, which this edit changes under a fixed
        # digest — the deep compare must catch it.
        result = session.replace_text(
            "selected : number = -1", "selected : number = 5"
        )
        assert result.applied
        assert result.memo_misses == ROWS * COLS + ROWS
        assert result.memo_hits == 0
        assert "yellow" in render_html(session.display)

    def test_event_between_renders_invalidates_readers_only(self):
        session = gallery_session()
        before = dict(session.runtime.system.last_render_stats)
        assert before["misses"] == ROWS * COLS + ROWS  # cold render
        session.tap_text("[5]")  # selected := 5, re-renders
        after = session.runtime.system.last_render_stats
        # Every cell reads selected (the highlight test), so cells miss;
        # rows do not read it, but they *call* cell — a row entry's
        # correctness covers its cells' output, so rows miss too via
        # their recorded read of selected.
        assert after["hits"] == 0
        assert after["misses"] == ROWS * COLS + ROWS

    def test_noop_rerender_is_all_hits(self):
        session = gallery_session()
        system = session.runtime.system
        before = system.display
        system._invalidate()
        system.run_to_stable()
        # The page's own call hits: the stored display comes back as the
        # very same object, and no function is probed.
        assert system.last_render_stats["page_hits"] == 1
        assert system.display is before
        assert system.last_render_stats["hits"] == 0
        assert system.last_render_stats["misses"] == 0


class TestNativeIdentity:
    SIG = PrimSig("shout", (STRING,), STRING, RENDER, "uppercase")

    def make_system(self, impl):
        """Two memoized render helpers: ``view`` calls the native
        ``shout``; ``plain`` is pure program code."""
        natives = NativeTable()
        natives.register(self.SIG, impl)
        view = FunDef(
            "view",
            FunType(UNIT, UNIT, RENDER),
            ast.Lam(
                "u", UNIT,
                ast.Boxed(
                    ast.Post(ast.Prim("shout", (ast.Str("hello"),))),
                    box_id=1,
                ),
                RENDER,
            ),
        )
        plain = FunDef(
            "plain",
            FunType(UNIT, UNIT, RENDER),
            ast.Lam(
                "u", UNIT,
                ast.Boxed(ast.Post(ast.Str("aside")), box_id=2),
                RENDER,
            ),
        )
        page = PageDef(
            "start", UNIT,
            ast.Lam("a", UNIT, ast.UNIT_VALUE, STATE),
            ast.Lam(
                "a", UNIT,
                ast.App(
                    ast.Lam(
                        "seq", UNIT,
                        ast.App(ast.FunRef("plain"), ast.UNIT_VALUE),
                        RENDER,
                    ),
                    ast.App(ast.FunRef("view"), ast.UNIT_VALUE),
                ),
                RENDER,
            ),
        )
        system = System(Code([view, plain, page]), natives=natives)
        system.run_to_stable()
        return system

    def test_same_natives_entries_survive(self):
        system = self.make_system(lambda services, s: s.upper())
        assert len(system._memo_store) == 3  # both helpers and the page
        system.update(system.code)
        assert len(system._memo_store) == 3

    def test_rebound_native_drops_exactly_the_calling_entries(self):
        system = self.make_system(lambda services, s: s.upper())
        natives = NativeTable()
        natives.register(self.SIG, lambda services, s: s.lower())
        # Digests hash program code only — they cannot see host Python —
        # so rebinding an implementation invalidates every entry whose
        # producer can reach the native... and no others: ``plain``
        # never calls ``shout``, so its entry survives the rebind.
        system.update(system.code, natives=natives)
        assert len(system._memo_store) == 1
        system._invalidate()
        system.run_to_stable()
        assert system.last_render_stats["hits"] == 1
        assert system.last_render_stats["misses"] == 1
        assert "HELLO" not in render_html(system.display)
        assert "hello" in render_html(system.display)


class TestMetricCatalog:
    def test_update_counters_and_reuse_gauge(self):
        tracer = Tracer()
        session = gallery_session(tracer=tracer)
        session.replace_text('"gallery"', '"edited"')
        metrics = tracer.metrics()
        total = ROWS * COLS + ROWS
        # Outermost calls only: the row hits splice their cells.
        assert metrics["incremental.update_hits"] == ROWS
        assert metrics["incremental.update_misses"] == 0
        assert metrics["incremental.update_reuse_ratio"] == 1.0
        assert metrics["incremental.entries_carried"] == total + 1  # page
        assert metrics["incremental.replayed_boxes"] == ROWS + ROWS * COLS
        assert metrics["memo_hits"] == ROWS
        # Cold render misses + nothing else.
        assert metrics["memo_misses"] == total

    def test_reuse_ratio_zero_when_everything_invalidated(self):
        tracer = Tracer()
        session = gallery_session(tracer=tracer)
        session.replace_text('"["', '"<"')
        assert tracer.metrics()["incremental.update_reuse_ratio"] == 0.0


class TestServeShortCircuit:
    def make_host(self):
        from repro.serve.host import SessionHost

        tracer = Tracer()
        host = SessionHost(
            pool_size=4,
            default_source=function_gallery_source(rows=ROWS, cols=COLS),
            tracer=tracer,
        )
        return host, tracer

    def test_fully_memoized_rerender_skips_html_build(self):
        host, tracer = self.make_host()
        token = host.create()
        html, generation, _ = host.render(token)
        # Appending an *unused* helper leaves every existing digest and
        # the page body untouched: the re-render is all hits and the
        # display fingerprint is unchanged, so the cached document is
        # served without rebuilding the HTML.
        result = host.edit_source(
            token,
            function_gallery_source(rows=ROWS, cols=COLS)
            + '\nfun unused(x : number)\n  boxed\n    post "" || x\n',
        )
        assert result.applied
        html_after, generation_after, modified = host.render(token)
        assert tracer.metrics()["incremental.html_short_circuits"] == 1
        assert generation_after == generation
        assert modified is False or html_after == html

    def test_header_edit_recomputes_html(self):
        host, tracer = self.make_host()
        token = host.create()
        host.render(token)
        result = host.edit_source(
            token,
            function_gallery_source(rows=ROWS, cols=COLS, title="edited"),
        )
        assert result.applied
        html, _generation, modified = host.render(token)
        assert modified and "edited" in html
        assert tracer.metrics()["incremental.html_short_circuits"] == 0
