"""One code version, shared by every session that runs it.

Code is immutable and separate from the store, so sessions running the
same source share its compiled program, ``Code``, memo facts and one
compiled unit; everything per session (natives, services, memo view,
chaos, store) lives in the session and each run's context.
"""

import sys
import threading

import pytest

from repro.apps.counter import SOURCE as COUNTER
from repro.apps.gallery import function_gallery_source
from repro.compile.machine import compiled_unit
from repro.eval.memo import memo_facts
from repro.live.session import LiveSession
from repro.render.html_backend import render_html
from repro.resilience.chaos import FaultInjector, FaultPlan
from repro.serve.host import SessionHost
from repro.surface import compile as surface_compile
from repro.surface.compile import INTERN_BOUND, compile_source
from repro.system.services import Services

DOUBLER = '''\
extern fun double(x : number) : number is pure
global n : number = 1
page start()
  render
    boxed
      post "n = " || double(n)
      on tap do
        n := n + 1
'''


def double(services, x):
    return 2 * x


def triple(services, x):
    return 3 * x


def evaluator(session):
    return session.runtime.system._evaluator


def observables(session):
    system = session.runtime.system
    return (
        render_html(session.display),
        dict(system.state.store.items()),
        [str(fault.error) for fault in session.runtime.faults],
    )


def test_two_sessions_on_one_host_share_code_and_unit():
    host = SessionHost(pool_size=4, default_source=COUNTER)
    first, second = host.create(), host.create()
    a = host._entries[first].session
    b = host._entries[second].session
    assert a.compiled is b.compiled
    assert a.runtime.system.code is b.runtime.system.code
    assert evaluator(a) is not evaluator(b)
    assert evaluator(a).unit is evaluator(b).unit
    assert a.runtime.system.render_memo is not b.runtime.system.render_memo
    assert memo_facts(a.runtime.system.code) is memo_facts(
        b.runtime.system.code
    )


def test_rehydration_rejoins_the_shared_unit():
    host = SessionHost(pool_size=1, default_source=COUNTER)
    first = host.create()
    unit = evaluator(host._entries[first].session).unit
    host.create()  # evicts ``first``
    assert host.evicted(first)
    host.render(first)  # rehydrates
    assert evaluator(host._entries[first].session).unit is unit


def test_an_edit_back_to_a_known_version_reuses_it():
    session = LiveSession(COUNTER)
    unit = evaluator(session).unit
    session.replace_text("count + 1", "count + 2")
    assert evaluator(session).unit is not unit
    session.undo()
    assert evaluator(session).unit is unit


def test_another_native_implementation_gets_another_unit():
    doubled = LiveSession(DOUBLER, host_impls={"double": double})
    tripled = LiveSession(DOUBLER, host_impls={"double": triple})
    again = LiveSession(DOUBLER, host_impls={"double": double})
    assert evaluator(doubled).unit is not evaluator(tripled).unit
    assert evaluator(doubled).unit is evaluator(again).unit
    assert "n = 2" in render_html(doubled.display)
    assert "n = 3" in render_html(tripled.display)
    code = doubled.runtime.system.code
    assert compiled_unit(code, doubled.compiled.natives) is evaluator(
        doubled
    ).unit


def test_per_session_configuration_stays_in_its_session():
    reference = LiveSession(DOUBLER, host_impls={"double": double},
                            fault_policy="record")
    expected = observables(reference)
    neighbour = LiveSession(DOUBLER, host_impls={"double": double},
                            fault_policy="record")
    # Chaos on every evaluator run, private services, and the native
    # rebound by an edit: none of it may leak into the neighbour.
    chaotic = LiveSession(
        DOUBLER, host_impls={"double": double}, fault_policy="record",
        services=Services(),
        chaos=FaultInjector(FaultPlan(seed=3, rates={"eval": 1.0})),
    )
    rebound = LiveSession(DOUBLER, host_impls={"double": triple},
                          fault_policy="record")
    assert evaluator(neighbour).unit is evaluator(reference).unit
    assert chaotic.runtime.faults  # its first render already faulted
    rebound.tap_text("n = 3")
    neighbour.runtime.system._invalidate()
    neighbour.runtime.system.run_to_stable()
    assert observables(neighbour) == expected
    assert "n = 6" in render_html(rebound.display)


def test_threads_on_one_code_version_match_the_sequential_run():
    source = function_gallery_source(rows=3, cols=2)

    def drive(session):
        for _ in range(3):
            session.runtime.tap(session.runtime.find_boxes(
                lambda box: box.get_attr("ontap") is not None
            )[0][0])
            session.runtime.system._invalidate()
            session.runtime.system.run_to_stable()
        return render_html(session.display)

    expected = drive(LiveSession(source))
    sessions = [LiveSession(source) for _ in range(8)]
    assert len({id(evaluator(s).unit) for s in sessions}) == 1
    results = [None] * len(sessions)

    def worker(index):
        results[index] = drive(sessions[index])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(len(sessions))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * len(sessions)


def test_the_intern_table_stays_at_its_bound():
    table = surface_compile._INTERNED
    for index in range(INTERN_BOUND + 10):
        compile_source(COUNTER.replace("count: ", "c{}: ".format(index)))
        assert len(table) <= INTERN_BOUND
    assert len(table) == INTERN_BOUND
    # The oldest entries went first; the newest is still interned.
    newest = COUNTER.replace("count: ", "c{}: ".format(INTERN_BOUND + 9))
    assert compile_source(newest) is compile_source(newest)


@pytest.mark.parametrize("backend", ["tree", "compiled"])
def test_faithful_oracle_agrees_with_shared_sessions(backend):
    shared = [LiveSession(COUNTER, backend=backend) for _ in range(2)]
    oracle = LiveSession(COUNTER, faithful=True)
    for session in shared + [oracle]:
        session.tap_text("count: 0")
    for session in shared:
        assert observables(session) == observables(oracle)
