"""The UPDATE transition (Fig. 9) — the heart of live programming."""

import pytest

from helpers import counter_core_code, page_code, seq
from repro.boxes.tree import STALE
from repro.core import ast
from repro.core.defs import Code, GlobalDef, PageDef
from repro.core.effects import RENDER, STATE
from repro.core.errors import SystemError_, UpdateRejected
from repro.core.types import NUMBER, STRING, UNIT
from repro.metatheory.wellformed import no_stale_code
from repro.system.transitions import System


def labelled_counter(label):
    """counter_core_code but with a configurable label (a 'code edit')."""
    from helpers import counter_core_code as make

    return make(label)


class TestPremises:
    def test_update_requires_empty_queue(self):
        system = System(counter_core_code())
        system.run_to_stable()
        system.tap((0,))  # enqueues, but we don't run it
        with pytest.raises(SystemError_):
            system.update(counter_core_code())

    def test_ill_typed_code_rejected(self):
        """C' ⊢ C' is a premise: broken programs never replace running
        ones, so the live view survives mid-edit states."""
        system = System(counter_core_code())
        system.run_to_stable()
        bad = Code([])  # no start page
        with pytest.raises(UpdateRejected) as caught:
            system.update(bad)
        assert caught.value.problems
        # The old program is untouched and still runs.
        system.tap((0,))
        system.run_to_stable()
        assert system.state.store.lookup("count") == ast.Num(1)

    def test_arbitrary_code_changes_allowed(self):
        """'There is no requirement that C' is related in any way to C.'"""
        system = System(counter_core_code())
        system.run_to_stable()
        unrelated = page_code(
            seq(RENDER, ast.Post(ast.Str("totally different"))),
            globals_=[GlobalDef("other", STRING, ast.Str(""))],
        )
        system.update(unrelated)
        system.run_to_stable()
        leaves = [
            leaf for _p, box in system.display.walk()
            for leaf in box.leaves()
        ]
        assert ast.Str("totally different") in leaves


class TestSemantics:
    def test_model_survives_code_change(self):
        """THE paper behaviour: new code renders against old state."""
        system = System(counter_core_code("count: "))
        system.run_to_stable()
        system.tap((0,))
        system.run_to_stable()  # TAP needs a valid display each time
        system.tap((0,))
        system.run_to_stable()
        system.update(labelled_counter("n = "))
        system.run_to_stable()
        leaves = [
            leaf for _p, box in system.display.walk()
            for leaf in box.leaves()
        ]
        assert ast.Str("n = 2") in leaves

    def test_display_invalidated_and_queue_empty(self):
        system = System(counter_core_code())
        system.run_to_stable()
        system.update(counter_core_code())
        assert system.display is STALE
        assert system.state.queue.is_empty()

    def test_fixup_report_surfaces_drops(self):
        system = System(counter_core_code())
        system.run_to_stable()
        system.tap((0,))
        system.run_to_stable()
        # New code declares count as a string: the entry must be dropped.
        new_code = page_code(
            ast.UNIT_VALUE,
            globals_=[GlobalDef("count", STRING, ast.Str("fresh"))],
        )
        report = system.update(new_code)
        assert report.dropped_globals == ["count"]
        assert "count" not in system.state.store

    def test_dropped_global_reverts_to_new_initial_value(self):
        system = System(counter_core_code())
        system.run_to_stable()
        system.tap((0,))
        system.run_to_stable()
        new_code = page_code(
            seq(RENDER, ast.Post(ast.GlobalRead("count"))),
            globals_=[GlobalDef("count", STRING, ast.Str("fresh"))],
        )
        system.update(new_code)
        system.run_to_stable()
        leaves = [
            leaf for _p, box in system.display.walk()
            for leaf in box.leaves()
        ]
        assert ast.Str("fresh") in leaves

    def test_page_stack_fixed_up(self):
        detail = PageDef(
            "detail",
            NUMBER,
            ast.Lam("a", NUMBER, ast.UNIT_VALUE, STATE),
            ast.Lam("a", NUMBER, ast.UNIT_VALUE, RENDER),
        )
        push = ast.Lam("u", UNIT, ast.Push("detail", ast.Num(1)), STATE)
        code = page_code(
            seq(
                RENDER,
                ast.Boxed(ast.SetAttr("ontap", push), box_id=1),
            ),
            extra_defs=[detail],
        )
        system = System(code)
        system.run_to_stable()
        system.tap((0,))
        system.run_to_stable()
        assert system.state.stack.top()[0] == "detail"
        # Remove the detail page: the stack entry must vanish and the
        # start page becomes current again.
        report = system.update(page_code(ast.UNIT_VALUE))
        assert report.dropped_pages == ["detail"]
        system.run_to_stable()
        assert system.state.stack.top()[0] == "start"

    def test_no_stale_code_after_update(self):
        """'After a code update, the system contains no stale code.'"""
        system = System(counter_core_code())
        system.run_to_stable()
        system.tap((0,))
        system.run_to_stable()
        system.update(labelled_counter("x"))
        assert no_stale_code(system)
        assert system.display is STALE

    def test_init_not_rerun_on_update(self):
        """Init bodies run once per page push, never on updates —
        'initialization ... is not automatically re-executed'."""
        code = page_code(
            ast.UNIT_VALUE,
            init_body=ast.GlobalWrite(
                "boots",
                ast.Prim("add", (ast.GlobalRead("boots"), ast.Num(1))),
            ),
            globals_=[GlobalDef("boots", NUMBER, ast.Num(0))],
        )
        system = System(code)
        system.run_to_stable()
        assert system.state.store.lookup("boots") == ast.Num(1)
        system.update(code)
        system.run_to_stable()
        assert system.state.store.lookup("boots") == ast.Num(1)
