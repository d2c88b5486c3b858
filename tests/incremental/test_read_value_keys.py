"""Memo entries keyed by read-set values (repro.incremental.store).

A render call is a pure function of ``(digest, argument, read-set
values)``, so the store keeps one *variant* per read-values tuple under
each ``(digest, argument)`` call.  These tests drive real sessions over
one shared store and check that differing state coexists instead of
thrashing, that the key sees declared initial values, that a native
rebind drops every variant of an affected call, and that the per-call
bound holds.
"""

from repro.api import LiveSession, Tracer
from repro.apps.gallery import function_gallery_source
from repro.core import ast
from repro.eval.memo import memo_facts
from repro.incremental import MemoStore
from repro.incremental.store import MAX_VARIANTS_PER_CALL, SessionMemoView
from repro.render.html_backend import render_html
from repro.surface.compile import compile_source
from repro.system.runtime import Runtime

ROWS, COLS = 4, 4

#: The argument value of an ``f(1)`` call (parameters arrive as a tuple).
ONE = ast.Tuple((ast.Num(1),))


def gallery_runtime(**kwargs):
    compiled = compile_source(function_gallery_source(rows=ROWS, cols=COLS))
    return Runtime(compiled.code, natives=compiled.natives, **kwargs).start()


def rerender(runtime):
    system = runtime.system
    system._invalidate()
    system.run_to_stable()
    return system.last_render_stats


def html(runtime):
    return render_html(runtime.display)


class TestSessionsWithDifferentState:
    def test_alternating_sessions_both_stay_cached(self):
        store = MemoStore()
        shared = []
        sessions = {}
        oracles = {}
        for selected in (5, 9):
            runtime = gallery_runtime(
                memo_store=SessionMemoView(
                    store, origin=selected, count=shared.append
                )
            )
            oracle = gallery_runtime(faithful=True)
            for each in (runtime, oracle):
                each.tap_text("[{}]".format(selected))
            sessions[selected], oracles[selected] = runtime, oracle
        # The second session's initial render rode the first's.
        assert shared
        # Warm-up round: each session renders once under its own value.
        for selected, runtime in sessions.items():
            rerender(runtime)
        for _round in range(3):
            for selected, runtime in sessions.items():
                stats = rerender(runtime)
                assert stats["misses"] == 0
                assert stats["hits"] == ROWS
                assert html(runtime) == html(oracles[selected])
        # Every row and cell call holds a variant per value of
        # ``selected``: -1 (initial), 5 and 9.
        calls = ROWS + ROWS * COLS
        assert store.stats()["calls"] == calls
        assert store.stats()["entries"] == 3 * calls

    def test_miss_causes_are_counted(self):
        tracer = Tracer()
        runtime = gallery_runtime(memo_store=MemoStore(), tracer=tracer)
        # A row miss executes the row, whose cells probe (and miss) too.
        calls = ROWS + ROWS * COLS
        assert runtime.system.render_memo.stats()["misses_cold"] == calls
        runtime.tap_text("[5]")
        stats = runtime.system.render_memo.stats()
        # ``selected`` changed: every call is cached under -1 only.
        assert stats["misses_read_values"] == calls
        assert stats["misses"] == 2 * calls
        metrics = tracer.metrics()
        assert metrics["incremental.memo_miss.cold"] == calls
        assert metrics["incremental.memo_miss.read_values"] == calls


class TestKeyReuse:
    def test_unchanged_versions_reuse_one_key_object(self):
        # A repeat probe must not rebuild (and re-hash) the read values:
        # the view hands back the same key while ``selected`` is
        # unwritten, and a new one once a tap writes it.
        runtime = gallery_runtime()
        memo = runtime.system.render_memo
        store = runtime.system.state.store
        first = memo._read_key("row", store)
        assert memo._read_key("cell", store) is first  # same read set
        runtime.tap_text("[5]")
        memo = runtime.system.render_memo
        store = runtime.system.state.store
        tapped = memo._read_key("row", store)
        assert tapped is not first
        assert tapped.values == (ast.Num(5),)
        assert memo._read_key("row", store) is tapped


class TestDeclaredInit:
    def test_init_edit_keeping_the_digest_misses(self):
        # ``selected`` is never assigned, so every row reads its declared
        # init.  Editing the init keeps every helper's digest but changes
        # the value the rows read: the old variants must not replay.
        session = LiveSession(function_gallery_source(rows=ROWS, cols=COLS))
        digests = memo_facts(session.runtime.system.code).digests
        result = session.replace_text(
            "global selected : number = -1", "global selected : number = 8"
        )
        assert result.applied
        assert memo_facts(session.runtime.system.code).digests == digests
        calls = ROWS + ROWS * COLS
        assert result.memo_hits == 0
        assert result.memo_misses == calls
        stats = session.runtime.system.render_memo.stats()
        assert stats["misses_read_values"] == calls
        oracle = LiveSession(
            function_gallery_source(rows=ROWS, cols=COLS).replace(
                "= -1", "= 8"
            ),
            faithful=True,
        )
        assert render_html(session.display) == render_html(oracle.display)


NATIVE_SOURCE = '''\
extern fun shout(s : string) : string is pure
global g : number = 0

fun loud(n : number)
  boxed
    post shout("n") || g || n

fun quiet(n : number)
  boxed
    post "quiet " || g || n

page start()
  render
    loud(1)
    quiet(1)
    boxed
      post "bump"
      on tap do
        g := g + 1
'''


class TestNativeRebind:
    def test_rebind_drops_every_variant_of_an_affected_call(self):
        compiled = compile_source(
            NATIVE_SOURCE, {"shout": lambda services, s: s.upper()}
        )
        runtime = Runtime(compiled.code, natives=compiled.natives).start()
        for _ in range(2):
            runtime.tap_text("bump")
        store = runtime.system._memo_store
        digests = memo_facts(compiled.code).digests
        loud = (digests["loud"], ONE)
        quiet = (digests["quiet"], ONE)
        assert store.variants(loud) == 3
        assert store.variants(quiet) == 3
        rebound = compile_source(
            NATIVE_SOURCE, {"shout": lambda services, s: s.lower()}
        )
        runtime.update_code(rebound.code, natives=rebound.natives)
        # The render after the update re-executed ``loud`` (its g = 2
        # variant was dropped with the others) and replayed ``quiet``.
        stats = runtime.system.last_render_stats
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert store.variants(loud) == 1
        assert store.variants(quiet) == 3
        assert runtime.contains_text("n21")


COUNTER_SOURCE = '''\
global ticks : number = 0

fun counter(n : number)
  boxed
    post "ticks " || ticks || n

fun steady(n : number)
  boxed
    post "steady " || n

page start()
  render
    counter(1)
    steady(1)
    boxed
      post "tick"
      on tap do
        ticks := ticks + 1
'''


class TestPerCallBound:
    def test_a_never_repeating_read_is_bounded_per_call(self):
        compiled = compile_source(COUNTER_SOURCE)
        runtime = Runtime(compiled.code, natives=compiled.natives).start()
        taps = MAX_VARIANTS_PER_CALL + 8
        for _ in range(taps):
            runtime.tap_text("tick")
        store = runtime.system._memo_store
        digests = memo_facts(compiled.code).digests
        assert store.variants((digests["counter"], ONE)) == (
            MAX_VARIANTS_PER_CALL
        )
        assert store.variants((digests["steady"], ONE)) == 1
        assert store.evictions == taps + 1 - MAX_VARIANTS_PER_CALL
        # ``steady`` kept hitting through every tap.
        stats = runtime.system.render_memo.stats()
        assert stats["hits"] == taps
        assert runtime.contains_text("ticks {}1".format(taps))
