"""Deep non-tail recursion on the compiled backend ends in a typed fault.

The compiled machine nests Python frames for non-tail calls, so a deep
enough recursion overflows the interpreter stack.  That must surface as
:class:`~repro.core.errors.FuelExhausted` — recorded under
``fault_policy="record"`` like any other exhausted budget — and never
as a bare :class:`RecursionError` at an API boundary.
"""

import pytest

from repro.core.errors import FuelExhausted, ReproError
from repro.live.session import LiveSession
from repro.serve.host import SessionHost

DEPTH = 5000

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


def source(n, depth=DEPTH):
    return SOURCE_TEMPLATE.format(n=n, depth=depth)


def compiled(src, **kwargs):
    return LiveSession(src, backend="compiled", **kwargs)


def fault_types(session):
    return [type(fault.error) for fault in session.runtime.faults]


def test_tree_backend_renders_the_deep_sum():
    session = LiveSession(source(DEPTH))
    assert "total: 12502500" in session.screenshot()


def test_construction_raises_a_typed_fault():
    with pytest.raises(FuelExhausted) as caught:
        compiled(source(DEPTH))
    assert "stack depth" in str(caught.value)


def test_construction_records_the_fault():
    session = compiled(source(DEPTH), fault_policy="record")
    assert fault_types(session) == [FuelExhausted]


def test_the_render_a_tap_triggers_records_the_fault():
    session = compiled(source(3), fault_policy="record")
    assert "total: 6" in session.screenshot()
    session.tap_text("deeper")
    assert fault_types(session) == [FuelExhausted]
    assert "total:" not in session.screenshot()


def test_tap_under_the_raise_policy_is_typed():
    session = compiled(source(3))
    with pytest.raises(FuelExhausted):
        session.tap_text("deeper")


def test_edit_source_never_leaks_recursion_error():
    session = compiled(source(3), fault_policy="record")
    try:
        session.edit_source(source(3).replace("sum(n)", "sum(n * 2000)"))
    except RecursionError:  # pragma: no cover - the regression
        pytest.fail("RecursionError escaped edit_source")
    except ReproError:
        pass
    assert FuelExhausted in fault_types(session)


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
