"""Deep non-tail recursion on the compiled machine.

Functions in a recursive component of the call graph run their non-tail
calls on an explicit continuation stack, so the compiled default renders
recursion as deep as the tree machine does.  A real fuel
budget still ends a run in a typed
:class:`~repro.core.errors.FuelExhausted` — recorded under
``fault_policy="record"`` like any other exhausted budget — and never in
a bare :class:`RecursionError` at an API boundary.
"""

import pytest

from repro.core.errors import FuelExhausted
from repro.eval.backends import resolve_backend
from repro.live.session import LiveSession
from repro.render.html_backend import render_html
from repro.resilience.supervisor import Budget
from repro.serve.host import SessionHost

DEPTH = 5000
DEEP = 50_000
#: Enough steps for ``sum(3)``, far too few for ``sum(DEPTH)``.
SMALL = Budget(fuel=1000)

SOURCE_TEMPLATE = '''\
global n : number = {n}

fun sum(k : number) : number
  var r := 0
  if k > 0 then
    r := k + sum(k - 1)
  return r

page start()
  render
    boxed
      post "total: " || sum(n)
    boxed
      post "deeper"
      on tap do
        n := {depth}
'''

MUTUAL = '''\
fun down(k : number) : number
  var r := 0
  if k > 0 then
    r := 1 + up(k - 1)
  return r

fun up(k : number) : number
  var r := 0
  if k > 0 then
    r := 2 + down(k - 1)
  return r

page start()
  render
    post "steps: " || down({n})
'''

NESTED_BOXES = '''\
global clicks : number = 0

fun rows(k : number)
  if k > 0 then
    boxed
      post k
    rows(k - 1)
    post "after " || k

page start()
  render
    boxed
      post "clicks " || clicks
      on tap do
        clicks := clicks + 1
    rows({n})
'''


def source(n, depth=DEPTH):
    return SOURCE_TEMPLATE.format(n=n, depth=depth)


def compiled(src, **kwargs):
    return LiveSession(src, backend="compiled", **kwargs)


def fault_types(session):
    return [type(fault.error) for fault in session.runtime.faults]


def test_tree_backend_renders_the_deep_sum():
    session = LiveSession(source(DEPTH), backend="tree")
    assert "total: 12502500" in session.screenshot()


def test_compiled_default_renders_depth_fifty_thousand():
    assert resolve_backend(None).name == "compiled"
    session = LiveSession(source(DEEP))
    assert session.runtime.system.backend_name == "compiled"
    assert "total: 1250025000" in session.screenshot()


def test_mutual_recursion_runs_on_the_explicit_stack():
    session = LiveSession(MUTUAL.format(n=DEEP))
    assert "steps: 75000" in session.screenshot()


def test_recursive_render_function_matches_the_tree_machine():
    # A memoized recursive render function: every level captures the
    # boxes its callee appended, so the memo sees the same items.
    src = NESTED_BOXES.format(n=300)
    fast = LiveSession(src)
    oracle = LiveSession(src, backend="tree")
    assert render_html(fast.display) == render_html(oracle.display)
    # A tap on a global only the page reads: the page re-executes and
    # the recursive call replays whole.
    fast.tap_text("clicks 0")
    oracle.tap_text("clicks 0")
    assert fast.runtime.system.last_render_stats["hits"] == 1
    assert render_html(fast.display) == render_html(oracle.display)


def test_construction_raises_a_typed_fault():
    with pytest.raises(FuelExhausted) as caught:
        compiled(source(DEPTH), budget=SMALL)
    assert "compiled budget of 1000 exhausted" in str(caught.value)


def test_construction_records_the_fault():
    session = compiled(source(DEPTH), fault_policy="record", budget=SMALL)
    assert fault_types(session) == [FuelExhausted]


def test_the_render_a_tap_triggers_records_the_fault():
    session = compiled(source(3), fault_policy="record", budget=SMALL)
    assert "total: 6" in session.screenshot()
    session.tap_text("deeper")
    assert fault_types(session) == [FuelExhausted]
    assert "total:" not in session.screenshot()


def test_tap_under_the_raise_policy_is_typed():
    session = compiled(source(3), budget=SMALL)
    with pytest.raises(FuelExhausted):
        session.tap_text("deeper")


def test_edit_source_never_leaks_recursion_error():
    session = compiled(source(3), fault_policy="record")
    try:
        result = session.edit_source(
            source(3).replace("sum(n)", "sum(n * 10000)")
        )
    except RecursionError:  # pragma: no cover - the regression
        pytest.fail("RecursionError escaped edit_source")
    assert result.applied
    assert "total: 450015000" in session.screenshot()
    assert fault_types(session) == []


def test_session_host_ops_stay_typed():
    host = SessionHost(
        pool_size=2,
        session_kwargs={"backend": "compiled", "fault_policy": "record"},
    )
    token = host.create(source=source(3))
    host.tap(token, text="deeper")
    response = host.render(token)
    assert response is not None
    deep = host.create(source=source(DEPTH))
    assert host.render(deep) is not None


NESTING = '''\
global depth : number = 3

fun nest(k : number)
  boxed
    post "level " || k
    if k > 0 then
      nest(k - 1)

page start()
  render
    nest(depth)
    boxed
      post "deeper"
      on tap do
        depth := {depth}
'''


def test_a_display_nested_past_the_stack_is_a_typed_fault():
    # The machine builds any nesting on its explicit stack, but every
    # reader of a display recurses once per level: RENDER refuses a tree
    # its readers could not walk, with the typed resource fault.
    session = compiled(NESTING.format(depth=1500), fault_policy="record")
    assert "level 3" in session.screenshot()
    session.tap_text("deeper")
    assert fault_types(session) == [FuelExhausted]
    assert "boxes deep" in render_html(session.display)
    raising = compiled(NESTING.format(depth=1500))
    with pytest.raises(FuelExhausted):
        raising.tap_text("deeper")
    host = SessionHost(
        pool_size=2, session_kwargs={"fault_policy": "record"}
    )
    token = host.create(source=NESTING.format(depth=1500))
    host.tap(token, text="deeper")
    html, _generation, _modified = host.render(token)
    assert "boxes deep" in html


def test_the_faithful_machine_turns_deep_nesting_into_a_typed_fault():
    # The small-step oracle nests Python frames per ``boxed`` level; a
    # page nested past the interpreter's stack must still end in the
    # typed resource fault, from the constructor and from a tap alike.
    deep = NESTING.format(depth=1200).replace(
        "depth : number = 3", "depth : number = 1200"
    )
    recorded = LiveSession(deep, faithful=True, fault_policy="record")
    assert fault_types(recorded) == [FuelExhausted]
    with pytest.raises(FuelExhausted):
        LiveSession(deep, faithful=True)
    shallow = LiveSession(
        NESTING.format(depth=1200), faithful=True, fault_policy="record"
    )
    assert "level 3" in shallow.screenshot()
    shallow.tap_text("deeper")
    assert fault_types(shallow) == [FuelExhausted]
