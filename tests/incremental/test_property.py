"""Memoization is unobservable — a hypothesis property over live edits.

For random well-formed programs (helpers carrying the render effect, so
the memo actually engages) and random well-typed edit sequences, a
memoized system and the ``faithful=True`` oracle (no memo, no box reuse)
must produce **byte-identical HTML** after every update.

The historical caveat: box *occurrence numbers* (the k-th on-screen
occurrence of source box ``box_id``, emitted as ``data-occurrence`` and
used by Fig. 2 UI→code navigation) are assigned in document order by
each render pass, so naively splicing a cached subtree replays the
occurrence numbers of the *original* render position.  The incremental
engine closes this by re-stamping occurrences during replay
(:func:`repro.eval.memo.replay_items`), and this property is the
regression net: any divergence — occurrence numbers included — fails
the byte comparison.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ast
from repro.core.defs import Code, FunDef, PageDef
from repro.core.effects import RENDER
from repro.core.types import NUMBER, UNIT, FunType
from repro.incremental import MemoStore
from repro.incremental.store import SessionMemoView
from repro.metatheory.generators import (
    edited_codes,
    live_programs,
    values_of,
)
from repro.render.html_backend import render_html
from repro.system.transitions import System

_SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def editing_sessions(draw, max_edits=3):
    """A start program plus a sequence of well-typed successor programs."""
    code = draw(live_programs())
    current = code
    edits = []
    for _ in range(draw(st.integers(1, max_edits))):
        current = draw(edited_codes(current))
        edits.append(current)
    return code, edits


def with_global_view(code):
    """``code`` plus a render helper ``view`` that posts every global,
    called by the page's render body after its own output — so every
    program has memoized calls whose keys carry read values."""
    param = ast.fresh_name("p")
    posts = ast.Post(ast.Var(param))
    for definition in code.globals():
        posts = _seq(ast.Post(ast.GlobalRead(definition.name)), posts)
    view = FunDef(
        "view",
        FunType(NUMBER, UNIT, RENDER),
        ast.Lam(param, NUMBER, ast.Boxed(posts, box_id=99), RENDER),
    )
    page = code.page("start")
    render = page.render
    calls = _seq(
        ast.App(ast.FunRef("view"), ast.Num(1)),
        ast.App(ast.FunRef("view"), ast.Num(2)),
    )
    page = PageDef(
        page.name, page.arg_type, page.init,
        ast.Lam(render.param, render.param_type,
                _seq(render.body, calls), RENDER),
    )
    return Code(
        list(code.globals()) + list(code.functions()) + [view, page]
    )


def _seq(first, second):
    return ast.App(
        ast.Lam(ast.fresh_name("seq"), UNIT, second, RENDER), first
    )


@st.composite
def shared_store_sessions(draw, max_sessions=3):
    """A program plus, per session, a value for each of its globals —
    drawn independently, so sessions agree on some and differ on
    others."""
    code = with_global_view(draw(live_programs()))
    states = [
        {
            definition.name: draw(values_of(definition.type))
            for definition in code.globals()
        }
        for _ in range(draw(st.integers(2, max_sessions)))
    ]
    return code, states


def html_of(system):
    return render_html(system.display)


def rerender(system):
    system._invalidate()
    system.run_to_stable()


class TestMemoizationIsUnobservable:
    @_SETTINGS
    @given(session=editing_sessions())
    def test_byte_identical_html_through_edit_sequences(self, session):
        code, edits = session
        memoized = System(code)
        plain = System(code, faithful=True)
        memoized.run_to_stable()
        plain.run_to_stable()
        assert html_of(memoized) == html_of(plain)
        for new_code in edits:
            memoized.update(new_code)
            plain.update(new_code)
            memoized.run_to_stable()
            plain.run_to_stable()
            assert html_of(memoized) == html_of(plain)

    @_SETTINGS
    @given(code=live_programs())
    def test_byte_identical_html_on_pure_rerender(self, code):
        # Same program, second render: everything that can hit, hits —
        # and the document must not move a byte (occurrence numbers
        # included).
        memoized = System(code)
        memoized.run_to_stable()
        first = html_of(memoized)
        memoized._invalidate()
        memoized.run_to_stable()
        assert html_of(memoized) == first

    @_SETTINGS
    @given(case=shared_store_sessions())
    def test_byte_identical_html_across_sessions_sharing_a_store(self, case):
        # Several sessions write different values into the globals their
        # render functions read and render in turn over one store: each
        # must replay only variants of its own read values.
        code, states = case
        store = MemoStore()
        pairs = []
        for origin, values in enumerate(states):
            memoized = System(
                code, memo_store=SessionMemoView(store, origin=origin)
            )
            plain = System(code, faithful=True)
            for system in (memoized, plain):
                system.run_to_stable()
                for name, value in values.items():
                    system.state.store.assign(name, value)
            pairs.append((memoized, plain))
        for _round in range(2):
            for memoized, plain in pairs:
                rerender(memoized)
                rerender(plain)
                assert html_of(memoized) == html_of(plain)
