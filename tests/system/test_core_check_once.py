"""One Fig. 10/11 core check per code version.

``compile_source`` checks the program it lowers; the system running it
reuses that verdict at construction and at UPDATE instead of checking
again.  Code that no check has seen under the current native signatures
(hand-built code, rebound natives) is still checked.
"""

import pytest

import repro.surface.compile as surface_compile
import repro.system.transitions as transitions
from repro.apps.counter import SOURCE as COUNTER
from repro.core import ast
from repro.core.defs import Code, GlobalDef
from repro.core.effects import PURE
from repro.core.errors import UpdateRejected
from repro.core.prims import PrimSig
from repro.core.types import NUMBER, STRING
from repro.eval.natives import NativeTable
from repro.live.session import LiveSession
from repro.surface.compile import compile_source
from repro.system.runtime import Runtime
from repro.typing.program import code_problems, known_problems

DOUBLER = '''\
extern fun double(x : number) : number is pure
global n : number = 1
page start()
  render
    post "n = " || double(n)
'''


@pytest.fixture
def core_checks(monkeypatch):
    """Every core check either layer runs, as ``(caller, code)`` pairs."""
    calls = []
    for module in (surface_compile, transitions):
        def counting(code, natives=None, _module=module):
            calls.append((_module.__name__, code))
            return code_problems(code, natives)

        monkeypatch.setattr(module, "code_problems", counting)
    return calls


def doubler_impls():
    return {"double": lambda services, x: 2 * x}


def test_an_applied_edit_checks_the_core_once(core_checks):
    session = LiveSession(COUNTER)
    assert len(core_checks) == 1  # the initial compile; System reused it
    del core_checks[:]
    result = session.replace_text("count + 1", "count + 2")
    assert result.applied
    assert [caller for caller, _ in core_checks] == [
        "repro.surface.compile"
    ]
    assert core_checks[0][1] is session.runtime.system.code


def test_a_rollback_reuses_the_last_good_verdict(core_checks):
    session = LiveSession(COUNTER, supervised=True, fault_policy="record")
    del core_checks[:]
    result = session.replace_text(
        'post "count: " || count', 'post "count: " || count / 0'
    )
    assert result.status == "rolled_back"
    # Only the new version was compiled and checked; restoring the
    # last-good code reused the verdict reached when it was compiled.
    assert [caller for caller, _ in core_checks] == [
        "repro.surface.compile"
    ]


def test_hand_built_ill_typed_code_is_still_rejected(core_checks):
    compiled = compile_source(COUNTER)
    runtime = Runtime(compiled.code, natives=compiled.natives).start()
    bad = compiled.code.with_def(GlobalDef("count", NUMBER, ast.Str("x")))
    with pytest.raises(UpdateRejected) as rejected:
        runtime.update_code(bad, natives=compiled.natives)
    assert rejected.value.problems
    assert core_checks[-1] == ("repro.system.transitions", bad)
    assert runtime.system.code is compiled.code


def test_hand_built_well_typed_code_is_checked_by_the_system(core_checks):
    compiled = compile_source(COUNTER)
    runtime = Runtime(compiled.code, natives=compiled.natives).start()
    copy = Code(compiled.code)  # equal, but no check has seen this value
    del core_checks[:]
    runtime.update_code(copy, natives=compiled.natives)
    assert core_checks == [("repro.system.transitions", copy)]


def test_rebound_native_signatures_are_checked_again(core_checks):
    compiled = compile_source(DOUBLER, doubler_impls())
    runtime = Runtime(compiled.code, natives=compiled.natives).start()
    assert runtime.contains_text("n = 2")
    rebound = NativeTable()
    rebound.register(
        PrimSig("double", (STRING,), STRING, PURE), lambda services, x: x
    )
    del core_checks[:]
    with pytest.raises(UpdateRejected):
        runtime.update_code(compiled.code, natives=rebound)
    assert core_checks == [("repro.system.transitions", compiled.code)]


def test_a_rebound_implementation_keeps_the_verdict(core_checks):
    compiled = compile_source(DOUBLER, doubler_impls())
    runtime = Runtime(compiled.code, natives=compiled.natives).start()
    tripler = compile_source(
        DOUBLER, {"double": lambda services, x: 3 * x}
    ).natives
    del core_checks[:]
    runtime.update_code(compiled.code, natives=tripler)
    assert core_checks == []
    assert runtime.contains_text("n = 3")


class TestKnownProblems:
    def test_unknown_until_checked(self):
        code = compile_source(COUNTER).code
        assert known_problems(Code(code)) is None

    def test_remembers_problems_under_the_same_signatures(self):
        code = Code([GlobalDef("g", NUMBER, ast.Num(0))])  # no start page
        problems = code_problems(code)
        assert problems
        assert [str(p) for p in known_problems(code)] == [
            str(p) for p in problems
        ]
        assert known_problems(code, NativeTable()) is not None

    def test_forgets_under_other_signatures(self):
        compiled = compile_source(DOUBLER, doubler_impls())
        assert known_problems(compiled.code, compiled.natives) == []
        assert known_problems(compiled.code) is None
