"""E8 — render memoization (§5's self-adjusting-computation sketch).

The model's cost center is re-running the whole render body on every
model change (E1/E5).  Memoizing render *functions* elides the calls
whose inputs didn't change; we measure a list page whose rows are drawn
by a helper function, after a model change that affects one global the
rows do not read.

Expected shape: memoized re-render cost approaches the per-row splice
cost (hit rate 100% on unaffected rows), with the win growing in row
count; a change to a global the rows DO read invalidates everything and
costs one cache rebuild.  The "cold" rows clear the memo store before
each timed tap, which is what every re-render cost without memoization.
"""

import pytest

from repro.surface.compile import compile_source
from repro.system.runtime import Runtime

APP_TEMPLATE = """\
global clicks : number = 0
global theme : string = "plain"

fun row(i : number)
  boxed
    box.border := true
    post theme || " row " || i || " of {rows}"

page start()
  render
    for i = 1 to {rows} do
      row(i)
    boxed
      post "clicks " || clicks
      on tap do
        clicks := clicks + 1
    boxed
      post "retheme"
      on tap do
        theme := theme || "!"
"""


def _runtime(rows):
    compiled = compile_source(APP_TEMPLATE.format(rows=rows))
    return Runtime(
        compiled.code, natives=compiled.natives, backend="tree"
    ).start()


def _bench(benchmark, runtime, tap, warm):
    """Time 50 taps; a cold run clears the memo store before each one."""
    setup = None if warm else runtime.system.render_memo.memo_store.clear
    benchmark.pedantic(tap, setup=setup, rounds=50)


@pytest.mark.parametrize("rows", (16, 64), ids=lambda r: "rows={}".format(r))
@pytest.mark.parametrize("warm", (False, True), ids=("cold", "warm"))
def test_rerender_after_unrelated_change(benchmark, rows, warm):
    """Tap 'clicks': the rows' inputs are unchanged."""
    runtime = _runtime(rows)
    state = {"clicks": 0}

    def tap():
        runtime.tap_text("clicks {}".format(state["clicks"]))
        state["clicks"] += 1

    _bench(benchmark, runtime, tap, warm)
    if warm:
        stats = runtime.system.render_memo.stats()
        assert stats["hits"] > stats["misses"]


@pytest.mark.parametrize("warm", (False, True), ids=("cold", "warm"))
def test_rerender_after_invalidating_change(benchmark, warm):
    """Tap 'retheme': every row reads ``theme`` — full invalidation."""
    runtime = _runtime(32)

    def tap():
        runtime.tap_text("retheme")

    _bench(benchmark, runtime, tap, warm)
