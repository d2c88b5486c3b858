"""RENDER's own call, memoized (repro.eval.memo).

A page's render is a pure function of its code, its argument, the
values of the globals it can read and the natives it can reach — the
same key a render *function* call has.  So RENDER probes the memo store
before running the page, and a hit hands back the very frozen display
an earlier render (of this session or of another sharing the store)
produced.  These tests check that a hit is unobservable against the
faithful oracle, that it respects the fuel budget, native bindings and
provenance logging, that the host serves the same bytes through
eviction and recovery, and that page probes are counted apart from the
function counters.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Journal, Tracer
from repro.apps.gallery import function_gallery_source
from repro.core import ast
from repro.core.defs import Code, FunDef, PageDef
from repro.core.effects import RENDER, STATE
from repro.core.errors import FuelExhausted
from repro.core.prims import PrimSig
from repro.core.types import STRING, UNIT, FunType
from repro.eval.memo import memo_facts
from repro.eval.natives import NativeTable
from repro.incremental import CallKey, MemoStore, page_digests
from repro.incremental.digest import page_canon
from repro.incremental.store import SessionMemoView
from repro.metatheory.generators import live_programs, values_of
from repro.render.html_backend import render_html
from repro.resilience import Budget, recover
from repro.serve.host import SessionHost
from repro.surface.compile import compile_source
from repro.system.transitions import System

ROWS, COLS = 3, 3
GALLERY = function_gallery_source(rows=ROWS, cols=COLS)


def gallery_system(**kwargs):
    return System(compile_source(GALLERY).code, **kwargs)


def rerender(system):
    system._invalidate()
    system.run_to_stable()


def page_call(system, name="start"):
    digest = memo_facts(system.code).digests[("page", name)]
    return CallKey(digest, ast.UNIT_VALUE)


def numbering(display):
    """Every box's path, ``box_id`` and occurrence, in document order."""
    return [
        (path, box.box_id, box.occurrence) for path, box in display.walk()
    ]


class TestPageHit:
    def test_a_repeated_state_returns_the_identical_root(self):
        system = gallery_system()
        system.run_to_stable()
        first = system.display
        rerender(system)
        assert system.display is first
        assert system.last_render_stats["page_hits"] == 1
        assert system.last_render_stats["hits"] == 0

    def test_a_changed_read_misses_and_a_revisited_state_hits(self):
        system = gallery_system()
        system.run_to_stable()
        start = system.display
        system.state.store.assign("selected", ast.Num(4.0))
        rerender(system)
        assert system.display is not start
        assert system.render_memo.page_misses == 2
        system.state.store.assign("selected", ast.Num(-1.0))
        rerender(system)
        assert system.display is start

    def test_a_second_session_reuses_the_firsts_display(self):
        store = MemoStore()
        shared = []
        first = gallery_system(
            memo_store=SessionMemoView(store, origin=1, count=shared.append)
        )
        second = gallery_system(
            memo_store=SessionMemoView(store, origin=2, count=shared.append)
        )
        first.run_to_stable()
        second.run_to_stable()
        assert second.display is first.display
        assert second.render_memo.stats()["page_hits"] == 1
        # A hit on another session's entry is a cross-session warm hit.
        assert shared == ["cluster.memo.shared_hits"]

    def test_page_probes_count_apart_from_function_probes(self):
        tracer = Tracer()
        system = gallery_system(tracer=tracer)
        system.run_to_stable()
        rerender(system)
        stats = system.render_memo.stats()
        calls = ROWS + ROWS * COLS
        assert (stats["page_hits"], stats["page_misses"]) == (1, 1)
        assert (stats["hits"], stats["misses"]) == (0, calls)
        metrics = tracer.metrics()
        assert metrics["memo_page_hits"] == 1
        assert metrics["memo_page_misses"] == 1
        assert metrics["memo_hits"] == 0
        assert metrics["memo_misses"] == calls

    def test_page_entries_live_in_the_one_store(self):
        system = gallery_system()
        system.run_to_stable()
        store = system._memo_store
        assert page_call(system) in store
        assert len(store) == ROWS + ROWS * COLS + 1
        assert store.stats()["max_entries"] == 4096

    def test_faithful_and_chaos_systems_store_no_page(self):
        from repro.resilience.chaos import FaultInjector, FaultPlan

        faithful = gallery_system(faithful=True)
        faithful.run_to_stable()
        assert faithful.render_memo is None
        chaotic = gallery_system(chaos=FaultInjector(FaultPlan()))
        chaotic.run_to_stable()
        first = chaotic.display
        rerender(chaotic)
        assert chaotic.render_memo.page_hits == 0
        assert chaotic.display is not first
        assert page_call(chaotic) not in chaotic._memo_store


class TestPageDigest:
    def test_an_edit_the_page_cannot_reach_keeps_its_digest(self):
        code = compile_source(GALLERY).code
        edited = compile_source(
            GALLERY + "\nfun unused(n : number)\n  boxed\n    post n\n"
        ).code
        assert page_digests(code) == page_digests(edited)

    def test_an_edit_to_a_reached_function_changes_it(self):
        code = compile_source(GALLERY).code
        edited = compile_source(
            GALLERY.replace("box.padding := 0", "box.padding := 1")
        ).code
        assert page_digests(code) != page_digests(edited)

    def test_the_canon_inlines_the_pages_loop_function(self):
        code = compile_source(GALLERY).code
        canon = page_canon("start", code)
        assert canon.startswith("page[")
        assert "$" not in canon
        assert "F:row" in canon


@st.composite
def shared_sessions(draw, max_sessions=4):
    """A program plus, per session, values for its globals drawn from
    two candidate states, so sessions often share a state exactly (a
    page hit on another session's display) and sometimes differ."""
    code = draw(live_programs())
    states = [
        {
            definition.name: draw(values_of(definition.type))
            for definition in code.globals()
        }
        for _ in range(2)
    ]
    picks = draw(st.lists(
        st.integers(0, 1), min_size=2, max_size=max_sessions
    ))
    return code, [states[pick] for pick in picks]


class TestUnobservable:
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=shared_sessions())
    def test_sessions_sharing_a_store_match_the_faithful_oracle(self, case):
        code, states = case
        store = MemoStore()
        for origin, values in enumerate(states):
            memoized = System(
                code, memo_store=SessionMemoView(store, origin=origin)
            )
            oracle = System(code, faithful=True)
            for system in (memoized, oracle):
                system.run_to_stable()
                for name, value in values.items():
                    system.state.store.assign(name, value)
            # Twice: the second render of a state is a page hit.
            for _round in range(2):
                rerender(memoized)
                rerender(oracle)
                assert memoized.display == oracle.display
                assert numbering(memoized.display) == numbering(
                    oracle.display
                )
                assert render_html(memoized.display) == render_html(
                    oracle.display
                )
            assert memoized.render_memo.page_hits >= 1


class TestFuel:
    def test_an_entry_records_the_steps_its_render_charged(self):
        system = gallery_system()
        system.run_to_stable()
        steps = system._evaluator.last_steps
        assert steps > 1
        entry = system._memo_store.get(
            page_call(system),
            system.render_memo._read_key(("page", "start"), system.state.store),
        )
        assert entry.items is system.display
        assert entry.steps == steps

    def budgeted(self, store, fuel):
        return gallery_system(
            memo_store=SessionMemoView(store, origin=fuel),
            budget=Budget(fuel=fuel),
        )

    def test_a_hit_needs_a_budget_covering_the_recorded_steps(self):
        store = MemoStore()
        producer = gallery_system(memo_store=SessionMemoView(store, 0))
        producer.run_to_stable()
        steps = producer._evaluator.last_steps
        covered = self.budgeted(store, steps)
        covered.run_to_stable()
        assert covered.display is producer.display
        # One step short: the page executes instead (its rows replay,
        # which charges fewer steps), and shows the same page.
        short = self.budgeted(store, steps - 1)
        short.run_to_stable()
        assert short.render_memo.page_misses == 1
        assert short.display is not producer.display
        assert render_html(short.display) == render_html(producer.display)

    def test_a_budget_that_would_trip_still_raises(self):
        store = MemoStore()
        gallery_system(memo_store=SessionMemoView(store, 0)).run_to_stable()
        starved = self.budgeted(store, 2)
        with pytest.raises(FuelExhausted):
            starved.run_to_stable()


class TestNatives:
    SIG = PrimSig("shout", (STRING,), STRING, RENDER, "uppercase")

    def code(self):
        """A page whose ``view`` helper calls the native ``shout``."""
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
        page = PageDef(
            "start", UNIT,
            ast.Lam("a", UNIT, ast.UNIT_VALUE, STATE),
            ast.Lam(
                "a", UNIT, ast.App(ast.FunRef("view"), ast.UNIT_VALUE),
                RENDER,
            ),
        )
        return Code([view, page])

    def system(self, store, origin, impl):
        natives = NativeTable()
        natives.register(self.SIG, impl)
        system = System(
            self.code(), natives=natives,
            memo_store=SessionMemoView(store, origin=origin),
        )
        system.run_to_stable()
        return system

    def test_a_page_hit_obeys_the_binding_check(self):
        store = MemoStore()

        def upper(services, text):
            return text.upper()

        loud = self.system(store, 1, upper)
        quiet = self.system(store, 2, lambda services, text: text.lower())
        assert "HELLO" in render_html(loud.display)
        assert "hello" in render_html(quiet.display)
        assert quiet.render_memo.page_hits == 0
        # Both bindings keep a variant; a third session binding the
        # first's implementation reuses its display.
        assert store.variants(page_call(loud)) == 2
        again = self.system(store, 3, upper)
        assert again.display is loud.display

    def test_invalidate_natives_drops_the_page_entries(self):
        store = MemoStore()
        system = self.system(store, 1, lambda services, text: text.upper())
        assert page_call(system) in store
        assert store.invalidate_natives({"shout"}) == 2  # view and page
        assert page_call(system) not in store
        assert len(store) == 0


class TestProvenance:
    def test_a_render_under_a_read_log_records_what_execution_reads(self):
        # Two systems in one state; only ``logged`` holds a page entry
        # the next render could hit.  Under a read log both execute, so
        # both record the same reads — the page's own included.
        logged = gallery_system()
        plain = gallery_system()
        for system in (logged, plain):
            system.run_to_stable()
        plain._memo_store.discard(page_call(plain))
        reads = []
        for system in (logged, plain):
            store = system.state.store
            store.begin_read_log()
            rerender(system)
            reads.append(store.end_read_log())
        assert reads[0] == reads[1]
        assert "title" in reads[0]
        assert logged.render_memo.page_hits == 0
        assert render_html(logged.display) == render_html(plain.display)


class TestServing:
    def make_host(self, journal=None):
        return SessionHost(
            pool_size=1, default_source=GALLERY, journal=journal,
        )

    def test_evicted_rehydrated_and_recovered_sessions_serve_the_same_bytes(
        self, tmp_path
    ):
        directory = str(tmp_path / "journal")
        host = self.make_host(Journal(directory, checkpoint_every=2))
        tokens = [host.create() for _ in range(3)]
        for token in tokens[:2]:
            host.tap(token, text="[5]")
        served = {}
        for token in tokens:
            served[token] = host.render(token)[0]
        # Two sessions in one state show one display object, and pool
        # size 1 evicted all but the last one touched.
        with host.session(tokens[0]) as entry:
            first = entry.session.display
        with host.session(tokens[1]) as entry:
            assert entry.session.display is first
        for token in tokens:
            host.evict(token)
            assert host.render(token)[0] == served[token]
        oracle = SessionHost(
            pool_size=4, default_source=GALLERY,
            session_kwargs={"faithful": True},
        )
        for token in tokens:
            oracle.create(token=token)
        for token in tokens[:2]:
            oracle.tap(token, text="[5]")
        for token in tokens:
            assert oracle.render(token)[0] == served[token]
        rebuilt = self.make_host()
        recover(rebuilt, Journal(directory))
        for token in tokens:
            assert rebuilt.render(token)[0] == served[token]

    def test_the_kept_document_is_reused_for_the_same_display(
        self, monkeypatch
    ):
        import repro.serve.host as host_module

        builds = []

        def counting(display, title="repro page"):
            builds.append(display)
            return render_html(display, title=title)

        monkeypatch.setattr(host_module, "render_html", counting)
        tracer = Tracer()
        host = SessionHost(pool_size=2, default_source=GALLERY, tracer=tracer)
        token = host.create()
        host.render(token)
        host.tap(token, text="[5]")
        html, generation, modified = host.render(token)
        assert modified and len(builds) == 2
        # Tapping the selected cell again writes the same value: the page
        # memo returns the display just served, so its document is
        # served again without a build.
        host.tap(token, text="[5]")
        assert host.render(token) == (html, generation, True)
        assert len(builds) == 2
        assert tracer.metrics()["incremental.html_short_circuits"] == 1
