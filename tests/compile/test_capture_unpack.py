"""Capture and tuple unpacking in the compiled machine, at their edges.

The compiled machine builds a value that captures locals without
substituting into the AST: a tuple of locals comes straight from the env
slots, and a lambda is rebuilt in one pass over all its captured names.
The lowering unpacks loop state and parameters with chains
``let a = t.i in let b = t.j in …``.  Each test pins one edge against
the faithful small-step oracle, which substitutes one name at a time and
reduces one projection at a time.
"""

import pytest

from repro.apps.mortgage import BASE_SOURCE, host_impls
from repro.compile.machine import Compiled
from repro.core import ast
from repro.core.defs import Code, GlobalDef, PageDef
from repro.core.effects import PURE, RENDER, STATE
from repro.core.errors import StuckExpression
from repro.core.names import ATTR_ONTAP
from repro.core.types import NUMBER, UNIT, TupleType
from repro.eval.machine import SmallStep
from repro.live.session import LiveSession
from repro.obs.trace import Tracer
from repro.render.html_backend import render_html
from repro.stdlib.web import make_services
from repro.system.runtime import Runtime
from repro.system.state import Store

BACKENDS = ({"backend": "compiled"}, {"backend": "tree"}, {"faithful": True})


def let(name, type_, bound, body, effect):
    return ast.App(ast.Lam(name, type_, body, effect), bound)


def seq(first, then, effect):
    return let("_", UNIT, first, then, effect)


def num(value):
    return ast.Num(value)


def page(render_body):
    return PageDef(
        "start", UNIT,
        ast.Lam("a", UNIT, ast.UNIT_VALUE, STATE),
        ast.Lam("a", UNIT, render_body, RENDER),
    )


class TestCapture:
    def shadowing_code(self):
        """A handler capturing ``a``, ``b`` and ``c``, where an inner
        lambda's parameter shadows ``b``: the tap applies it to
        ``b + 5`` and must write ``a * 100 + 7 * 10 + c`` (173), never
        the outer ``b``'s 123."""
        total = ast.Prim("add", (
            ast.Prim("add", (
                ast.Prim("mul", (ast.Var("a"), num(100))),
                ast.Prim("mul", (ast.Var("b"), num(10))),
            )),
            ast.Var("c"),
        ))
        inner = ast.Lam("b", NUMBER, ast.GlobalWrite("g", total), STATE)
        handler = ast.Lam("u", UNIT, ast.App(
            inner, ast.Prim("add", (ast.Var("b"), num(5)))
        ), STATE)
        box = ast.Boxed(
            seq(
                ast.Post(ast.Str("tap")),
                ast.SetAttr(ATTR_ONTAP, handler),
                RENDER,
            ),
            box_id=1,
        )
        body = let("a", NUMBER, num(1), let("b", NUMBER, num(2), let(
            "c", NUMBER, num(3),
            seq(ast.Post(ast.GlobalRead("g")), box, RENDER), RENDER,
        ), RENDER), RENDER)
        return Code([GlobalDef("g", NUMBER, num(0)), page(body)])

    def test_one_handler_capturing_several_locals_one_shadowed(self):
        code = self.shadowing_code()
        runtimes = [Runtime(code, **kwargs).start() for kwargs in BACKENDS]
        compiled = runtimes[0]
        for other in runtimes[1:]:
            # Equal trees compare the handler Lam ASTs themselves.
            assert compiled.display == other.display
        handler = compiled.display.items[-1].get_attr(ATTR_ONTAP)
        assert handler == ast.Lam("u", UNIT, ast.App(
            ast.Lam("b", NUMBER, ast.GlobalWrite("g", ast.Prim("add", (
                ast.Prim("add", (
                    ast.Prim("mul", (num(1), num(100))),
                    ast.Prim("mul", (ast.Var("b"), num(10))),
                )),
                num(3),
            ))), STATE),
            ast.Prim("add", (num(2), num(5))),
        ), STATE)
        for runtime in runtimes:
            runtime.tap_text("tap")
            assert runtime.system.state.store.lookup("g") == num(173)
        assert render_html(compiled.display) == render_html(
            runtimes[-1].display
        )


# -- unpacking chains ------------------------------------------------------

PAIR = TupleType((NUMBER, NUMBER))
NESTED = TupleType((PAIR, NUMBER))


def evaluate(expr, machine):
    code = Code([])
    evaluator = SmallStep(code) if machine == "faithful" else Compiled(code)
    return evaluator.run_pure(Store(), expr)


def outcome(expr, machine):
    try:
        return "value", evaluate(expr, machine)
    except StuckExpression as error:
        return "stuck", str(error)


def chain(source, binders, body):
    """``let b1 = source.i1 in … in body`` over ``binders`` = [(name, i)]."""
    for name, index in reversed(binders):
        body = let(name, NUMBER, ast.Proj(ast.Var(source), index), body, PURE)
    return body


def bound_to(value, type_, body):
    """``body`` with ``t`` bound to ``value`` by a syntactic let."""
    return let("t", type_, value, body, PURE)


class TestUnpack:
    """The edges a one-step unpacking of such a chain would have to keep
    (EXPERIMENTS.md E15 measured one and left it out): a binder that
    shadows the tuple, binders in any order, and the projections' own
    faults, first to last."""

    def test_a_binder_shadowing_the_tuple_rebinds_it(self):
        # let t = t.1 in let u = t.2 in u — the second projection reads
        # the *new* t, (10, 20), so u is 20, not the old t.2 (30).
        body = let(
            "t", PAIR, ast.Proj(ast.Var("t"), 1),
            let("u", NUMBER, ast.Proj(ast.Var("t"), 2), ast.Var("u"), PURE),
            PURE,
        )
        value = ast.Tuple((ast.Tuple((num(10), num(20))), num(30)))
        expr = bound_to(value, NESTED, body)
        assert evaluate(expr, "compiled") == num(20)
        assert evaluate(expr, "faithful") == num(20)

    def test_a_chain_binds_in_order(self):
        body = chain("t", [("a", 3), ("b", 1), ("a", 2)], ast.Tuple(
            (ast.Var("a"), ast.Var("b"))
        ))
        value = ast.Tuple((num(1), num(2), num(3)))
        expr = bound_to(value, TupleType((NUMBER,) * 3), body)
        expected = ast.Tuple((num(2), num(1)))
        assert evaluate(expr, "compiled") == expected
        assert evaluate(expr, "faithful") == expected

    @pytest.mark.parametrize("binders", [[("a", 1)], [("a", 1), ("b", 2)]])
    def test_projecting_a_non_tuple_is_stuck(self, binders):
        expr = bound_to(num(5), NUMBER, chain("t", binders, ast.Var("a")))
        expected = ("stuck", "projection from a non-tuple")
        assert outcome(expr, "faithful") == expected
        assert outcome(expr, "compiled") == expected

    @pytest.mark.parametrize("binders", [
        [("a", 3)],
        [("a", 1), ("b", 4), ("c", 3)],
        [("a", 2), ("b", 1), ("c", 5), ("d", 4)],
    ])
    def test_an_out_of_range_index_is_stuck_at_the_first_one(self, binders):
        value = ast.Tuple((num(1), num(2)))
        expr = bound_to(value, PAIR, chain("t", binders, ast.Var("a")))
        first = next(index for _, index in binders if index > 2)
        expected = ("stuck", "projection index {} out of range".format(first))
        assert outcome(expr, "faithful") == expected
        assert outcome(expr, "compiled") == expected


# -- the mortgage detail page ----------------------------------------------


@pytest.fixture(scope="module")
def detail_render():
    """A memo-free compiled machine and the detail page's render call."""
    session = LiveSession(
        BASE_SOURCE, host_impls=host_impls(),
        services=make_services(latency=0.05),
    )
    runtime = session.runtime
    tappable = runtime.find_boxes(
        lambda box: box.get_attr(ATTR_ONTAP) is not None
    )
    runtime.tap(tappable[0][0])
    system = runtime.system
    page_name, arg = system.state.stack.top()
    assert page_name == "detail"
    tracer = Tracer()
    machine = Compiled(
        system.code, natives=system.natives, services=system.services,
        tracer=tracer,
    )
    render = ast.App(system.code.page(page_name).render, arg)
    return machine, tracer, system, render


class TestDetailPage:
    def test_fuel_accounting_is_unchanged(self, detail_render):
        # Lets, projections and captures charge no fuel: only the
        # function applications do, 35 of them on this page.
        machine, tracer, system, render = detail_render
        before = tracer.metrics().get("eval_steps", 0)
        tree = machine.run_render(system.state.store, render)
        assert tracer.metrics()["eval_steps"] - before == 35
        assert tree == system.state.display

    def test_a_render_builds_tuples_without_substitution(
        self, detail_render, monkeypatch
    ):
        machine, _tracer, system, render = detail_render
        calls = []
        real = ast.subst

        def counting(expr, name, value):
            calls.append(type(expr))
            return real(expr, name, value)

        monkeypatch.setattr(ast, "subst", counting)
        tree = machine.run_render(system.state.store, render)
        assert tree.count_boxes() > 50
        assert [kind for kind in calls if kind is ast.Tuple] == []
