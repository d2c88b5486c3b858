"""Kept diagnostics must not keep the compiler's frames alive.

A session keeps every rejected edit's problems (``EditResult.problems``,
``LiveSession.problems``), every recorded fault (``Runtime.faults``) and
every rollback (the supervisor's records).  A kept exception's traceback
would pin the frames it was raised through — the parser's whole token
list among them — so a long editing session would grow without bound.
"""

import gc
import types

import pytest

from repro.apps.counter import SOURCE as COUNTER
from repro.live.session import LiveSession
from repro.surface.tokens import Token

SYNTAX_ERROR = COUNTER.replace("count := count + 1", "count := count +")
TYPE_ERROR = COUNTER.replace("count := count + 1", 'count := "one"')
RENDER_FAULT = COUNTER.replace(
    'post "count: " || count', 'post "count: " || count / 0'
)

#: Objects whose referents are the interpreter, not the session.
_OPAQUE = (
    type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
    types.MethodType, types.CodeType,
)


def reachable_tokens(root):
    """How many :class:`Token` objects ``root`` keeps reachable."""
    seen = set()
    pending = [root]
    found = 0
    while pending:
        obj = pending.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Token):
            found += 1
        elif not isinstance(obj, _OPAQUE):
            pending.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("fault_policy", ["record", "raise"])
def test_rejected_and_rolled_back_edits_keep_no_tokens(fault_policy):
    session = LiveSession(
        COUNTER, supervised=True, fault_policy=fault_policy
    )
    statuses = []
    for _ in range(5):
        for source in (SYNTAX_ERROR, TYPE_ERROR, RENDER_FAULT, COUNTER):
            statuses.append(session.edit_source(source).status)
    assert statuses.count("rejected") == 10
    assert statuses.count("rolled_back") == 5
    assert len(session.supervisor.rollbacks) == 5
    kept = [
        problem for result in session.edit_log for problem in result.problems
    ]
    assert len(kept) == 15
    assert all(problem.__traceback__ is None for problem in kept)
    assert reachable_tokens(session) == 0


def test_recorded_faults_drop_their_tracebacks():
    session = LiveSession(
        COUNTER.replace("count := count + 1", "count := count / 0"),
        fault_policy="record",
    )
    session.tap_text("count: 0")
    faults = session.runtime.faults
    assert len(faults) == 1
    assert faults[0].error.__traceback__ is None
