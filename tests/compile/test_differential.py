"""Differential testing: the compiled backend against the tree oracle.

``repro.compile`` is only correct if it is *unobservable*: for any
well-typed program and any interaction, the compiled machine must
produce byte-identical HTML, identical store contents, identical faults
and identical provenance to the tree-walking machine.  These properties
drive random live programs and edit sequences (the same generators the
metatheory suite uses) plus the real example apps through both backends
and compare everything a user — or a journal — could observe.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.counter import SOURCE as COUNTER
from repro.apps.mortgage import (
    BASE_SOURCE,
    apply_i1,
    apply_i2,
    apply_i3,
    host_impls,
)
from repro.core.errors import EvalError, FuelExhausted
from repro.live.session import LiveSession
from repro.metatheory.generators import (
    edited_codes,
    live_programs,
    recursive_programs,
)
from repro.render.html_backend import render_html
from repro.resilience import Budget
from repro.stdlib.web import make_services
from repro.system.runtime import Runtime
from repro.system.transitions import System

_SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def editing_sessions(draw, max_edits=3):
    code = draw(live_programs())
    current = code
    edits = []
    for _ in range(draw(st.integers(1, max_edits))):
        current = draw(edited_codes(current))
        edits.append(current)
    return code, edits


def pair(code, **kwargs):
    tree = System(code, backend="tree", **kwargs)
    compiled = System(code, backend="compiled", **kwargs)
    tree.run_to_stable()
    compiled.run_to_stable()
    return tree, compiled


def assert_same_observables(tree, compiled):
    # Box equality compares attribute values, handler closures (Lam
    # ASTs) included: a capture that builds a different closure fails
    # here even when the HTML matches.
    assert tree.display == compiled.display
    assert render_html(tree.display) == render_html(compiled.display)
    assert dict(tree.state.store.items()) == dict(
        compiled.state.store.items()
    )
    assert tree.state.stack.entries() == compiled.state.stack.entries()


class TestRenderParity:
    @_SETTINGS
    @given(session=editing_sessions())
    def test_byte_identical_html_through_edit_sequences(self, session):
        code, edits = session
        tree, compiled = pair(code)
        assert_same_observables(tree, compiled)
        for new_code in edits:
            tree.update(new_code)
            compiled.update(new_code)
            tree.run_to_stable()
            compiled.run_to_stable()
            assert_same_observables(tree, compiled)

    @_SETTINGS
    @given(session=editing_sessions())
    def test_compiled_with_memo_matches_plain_tree(self, session):
        # Memoization and compilation compose: the compiled machine's
        # memo interception must stay unobservable against the faithful
        # tree oracle, which neither memoizes nor reuses boxes.
        code, edits = session
        tree = System(code, faithful=True)
        compiled = System(code, backend="compiled")
        tree.run_to_stable()
        compiled.run_to_stable()
        assert_same_observables(tree, compiled)
        for new_code in edits:
            tree.update(new_code)
            compiled.update(new_code)
            tree.run_to_stable()
            compiled.run_to_stable()
            assert_same_observables(tree, compiled)


def recorded_run(code, **kwargs):
    """Boot ``code`` under the record policy: (html, store, faults)."""
    runtime = Runtime(code, fault_policy="record", **kwargs).start()
    return (
        render_html(runtime.display),
        dict(runtime.system.state.store.items()),
        [(type(f.error), str(f.error), f.during) for f in runtime.faults],
    )


class TestRecursionParity:
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(code=recursive_programs())
    def test_non_tail_recursion_matches_the_faithful_oracle(self, code):
        # Self and mutual recursion in operand, let, boxed and tail
        # positions (the compiled machine's explicit-stack path), pure
        # and render-effect (memoized), some faulting at the base.
        oracle = recorded_run(code, faithful=True)
        assert recorded_run(code, backend="compiled") == oracle
        assert recorded_run(code, backend="tree") == oracle


def session_pair(source, **kwargs):
    tree = LiveSession(source, backend="tree", **kwargs)
    compiled = LiveSession(source, backend="compiled", **kwargs)
    return tree, compiled


def tap_everything(session, rounds=3):
    from repro.core.names import ATTR_ONTAP

    for _ in range(rounds):
        tappable = session.runtime.find_boxes(
            lambda box: box.get_attr(ATTR_ONTAP) is not None
        )
        if not tappable:
            break
        session.runtime.tap(tappable[0][0])


class TestInteractionParity:
    def test_counter_taps_and_edit(self):
        tree, compiled = session_pair(COUNTER)
        for session in (tree, compiled):
            tap_everything(session, rounds=4)
        assert render_html(tree.display) == render_html(compiled.display)
        edited = COUNTER.replace('"count: "', '"total: "')
        assert tree.edit_source(edited).applied
        assert compiled.edit_source(edited).applied
        assert render_html(tree.display) == render_html(compiled.display)

    def test_mortgage_listing_flow(self):
        def make(backend):
            return LiveSession(
                BASE_SOURCE, backend=backend,
                host_impls=host_impls(),
                services=make_services(latency=0.05),
            )

        def assert_same_display():
            assert tree.display == compiled.display
            assert render_html(tree.display) == render_html(compiled.display)

        tree, compiled = make("tree"), make("compiled")
        assert_same_display()
        for session in (tree, compiled):
            tap_everything(session, rounds=1)  # push the detail page
        assert_same_display()
        for session in (tree, compiled):
            assert session.edit_source(apply_i2(session.source)).applied
        assert_same_display()
        for session in (tree, compiled):
            source = apply_i3(apply_i1(session.source))
            assert session.edit_source(source).applied
        assert_same_display()
        for session in (tree, compiled):
            session.back()
        assert_same_display()


class TestProvenanceParity:
    def test_identical_read_and_write_logs(self):
        from repro.surface.compile import compile_source

        code = compile_source(COUNTER).code
        tree = Runtime(code, backend="tree")
        compiled = Runtime(code, backend="compiled")
        for runtime in (tree, compiled):
            runtime.system.capture_provenance = True
            runtime.start()
            runtime.tap(runtime.require_text("count: 0"))
            runtime.tap(runtime.require_text("count: 1"))
            runtime.tap(runtime.require_text("reset"))
        # Store write *versions* are a process-global counter, so two
        # systems in one process never see the same absolute numbers;
        # everything else — rules, read names *and order*, written
        # names — must match exactly.
        def normalized(log):
            return [
                {
                    "rule": entry["rule"],
                    "detail": entry["detail"],
                    "reads": entry["reads"],
                    "writes": sorted(entry["writes"]),
                }
                for entry in log
            ]

        assert normalized(tree.system.provenance_log) == normalized(
            compiled.system.provenance_log
        )
        assert len(tree.system.provenance_log) >= 3


FAULTY = '''\
global denom : number = 0

page start()
  render
    post 100 / denom
'''


class TestFaultParity:
    def test_identical_eval_fault(self):
        tree, compiled = session_pair(FAULTY, fault_policy="record")
        faults = [
            session.runtime.faults for session in (tree, compiled)
        ]
        assert faults[0] and faults[1]
        assert str(faults[0][0].error) == str(faults[1][0].error)
        assert str(faults[0][0].error) == "div: division by zero"
        assert faults[0][0].during == faults[1][0].during
        # Both backends degrade to the same fault screen.
        assert render_html(tree.display) == render_html(compiled.display)

    @staticmethod
    def looping_code():
        """A tail-recursive burner: ``burn(n) = burn(n - 1)`` forever."""
        from repro.core import ast
        from repro.core.defs import Code, FunDef, PageDef
        from repro.core.effects import PURE, RENDER, STATE
        from repro.core.types import FunType, NUMBER, UNIT

        burn = FunDef(
            "burn",
            FunType(NUMBER, NUMBER, PURE),
            ast.Lam(
                "n", NUMBER,
                ast.If(
                    ast.Prim("le", (ast.Var("n"), ast.Num(0.0))),
                    ast.Num(0.0),
                    ast.App(
                        ast.FunRef("burn"),
                        ast.Prim("sub", (ast.Var("n"), ast.Num(1.0))),
                    ),
                ),
                PURE,
            ),
        )
        page = PageDef(
            "start", UNIT,
            ast.Lam("a", UNIT, ast.UNIT_VALUE, STATE),
            ast.Lam(
                "a", UNIT,
                ast.Post(
                    ast.App(ast.FunRef("burn"), ast.Num(1_000_000.0))
                ),
                RENDER,
            ),
        )
        return Code([burn, page])

    def test_fuel_exhaustion_is_the_same_fault_type(self):
        # Step accounting differs between the machines (the compiled
        # machine charges per application, the tree machines per AST
        # step), so the exact count that trips and the message's machine
        # name may differ — but the *fault type* and the transition it
        # fired during must not: a million tail calls exhaust a
        # 10000-step budget on every backend.
        code = self.looping_code()
        faults = []
        for backend in ("tree", "compiled"):
            runtime = Runtime(
                code, backend=backend, fault_policy="record",
                budget=Budget(fuel=10_000),
            )
            runtime.start()
            faults.append(runtime.faults)
        assert faults[0] and faults[1]
        for recorded in faults:
            assert isinstance(recorded[0].error, FuelExhausted)
            assert isinstance(recorded[0].error, EvalError)
        assert faults[0][0].during == faults[1][0].during == "RENDER"
