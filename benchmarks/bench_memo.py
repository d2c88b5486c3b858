"""E8 — render memoization (§5's self-adjusting-computation sketch).

The model's cost center is re-running the whole render body on every
model change (E1/E5).  Memoizing render *functions* elides the calls
whose inputs didn't change; a call's key is its code digest, its
argument and the values of the globals it reads.  Four cases, each
timed warm (the memo store kept) and cold (the store cleared before
every timed step, which is what every re-render cost without
memoization):

* ``rows`` — a list page whose rows are drawn by a helper function,
  after a tap on a global the rows do not read.  Expected shape: warm
  re-render cost approaches the per-row splice cost, the win growing
  with the row count.
* ``invalidating`` — the same page after a tap on a global every row
  *does* read: no variant matches, so warm costs one cache rebuild.
* ``large_list`` — rows that read a 1 000-item list global, after an
  unrelated tap.  The row keys hold the whole list; a view reuses a
  key object (hash computed once) while the list's write version stands
  still, so a warm probe never re-hashes the list.  ``small_list`` is
  the same page over an 8-item list: with the key cache working, the
  two warm re-renders cost the same; a warm probe that re-hashed would
  pay a 1 000-element hash per row (about 0.2 ms each).
* ``shared_store`` — two runtimes of the function gallery over one
  store, one with cell 5 selected and one with cell 9, tapping their
  own selected cell in turn.  Every row reads ``selected``; the store
  keeps a variant per value, so both stay warm instead of evicting each
  other's entries.

Runs three ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_memo.py     # suite
    PYTHONPATH=src python benchmarks/bench_memo.py --quick       # history
    PYTHONPATH=src python benchmarks/bench_memo.py --check       # CI gate

``--check`` fails (exit 1) unless the warm p50 is at least
``MIN_SPEEDUP`` times faster than the cold p50 on ``large_list`` and on
``shared_store``, and unless the warm ``large_list`` p50 stays within
``MAX_LIST_SIZE_RATIO`` of the warm ``small_list`` one — ratios within
one run, so they hold on any hardware.  Full and quick runs append
their numbers to ``BENCH_memo.json``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from conftest import (  # noqa: E402
    append_bench_record,
    bench_path,
    gate_arguments,
    run_label,
)

from repro.apps.gallery import function_gallery_source
from repro.incremental.store import MemoStore
from repro.obs.histo import percentile
from repro.surface.compile import compile_source
from repro.system.runtime import Runtime

#: --check fails when cold p50 / warm p50 falls below this on a gated case.
MIN_SPEEDUP = 2.0

#: --check fails when warm large_list p50 / warm small_list p50 exceeds this.
MAX_LIST_SIZE_RATIO = 1.5

GATED_CASES = ("large_list", "shared_store")

ROWS_TEMPLATE = """\
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

LARGE_LIST_TEMPLATE = """\
global clicks : number = 0
global items : list number = [{items}]

fun row(i : number)
  boxed
    box.border := true
    post "row " || i || " of " || length(items)
    for k = 0 to 3 do
      boxed
        post "item " || i || ": " || get(items, k)

page start()
  render
    for i = 1 to {rows} do
      row(i)
    boxed
      post "clicks " || clicks
      on tap do
        clicks := clicks + 1
"""

LIST_ITEMS = 1000
GALLERY_ROWS, GALLERY_COLS = 10, 4


def _runtime(source, store=None):
    compiled = compile_source(source)
    return Runtime(
        compiled.code, natives=compiled.natives, memo_store=store
    ).start()


def rows_case(rows=64):
    """``(steps, stores)``: tap ``clicks``, which no row reads."""
    runtime = _runtime(ROWS_TEMPLATE.format(rows=rows))
    state = {"clicks": 0}

    def tap():
        runtime.tap_text("clicks {}".format(state["clicks"]))
        state["clicks"] += 1

    return [tap], [runtime.system.render_memo.memo_store]


def invalidating_case(rows=32):
    """Tap 'retheme': every row reads ``theme`` — full invalidation."""
    runtime = _runtime(ROWS_TEMPLATE.format(rows=rows))
    return (
        [lambda: runtime.tap_text("retheme")],
        [runtime.system.render_memo.memo_store],
    )


def large_list_case(rows=64, items=LIST_ITEMS):
    """Rows reading a 1 000-item list global, then an unrelated tap."""
    source = LARGE_LIST_TEMPLATE.format(
        rows=rows, items=", ".join(str(n) for n in range(items))
    )
    runtime = _runtime(source)
    state = {"clicks": 0}

    def tap():
        runtime.tap_text("clicks {}".format(state["clicks"]))
        state["clicks"] += 1

    return [tap], [runtime.system.render_memo.memo_store]


def shared_store_case():
    """Two gallery runtimes over one store, selecting cells 5 and 9."""
    store = MemoStore()
    source = function_gallery_source(rows=GALLERY_ROWS, cols=GALLERY_COLS)
    steps = []
    for cell in ("[5]", "[9]"):
        runtime = _runtime(source, store=store)
        runtime.tap_text(cell)
        steps.append(lambda runtime=runtime, cell=cell: runtime.tap_text(cell))
    return steps, [store]


def small_list_case():
    """``large_list`` over an 8-item list."""
    return large_list_case(items=8)


CASES = {
    "rows": rows_case,
    "invalidating": invalidating_case,
    "large_list": large_list_case,
    "small_list": small_list_case,
    "shared_store": shared_store_case,
}


def _p50s(sides, rounds):
    """p50 seconds of one step per side; ``sides`` maps a label to
    ``(case, cleared)``, a cleared side emptying its stores before each
    step.  The sides take turns step by step, so a machine slowing down
    during the run moves them alike.  A round runs every step of a case
    once (the shared-store case alternates its two runtimes)."""
    instances = {
        label: (CASES[case](), cleared)
        for label, (case, cleared) in sides.items()
    }
    timings = {label: [] for label in sides}
    for _round in range(rounds):
        for label, ((steps, stores), cleared) in instances.items():
            for step in steps:
                if cleared:
                    for store in stores:
                        store.clear()
                started = time.perf_counter()
                step()
                timings[label].append(time.perf_counter() - started)
    return {
        label: percentile(sorted(times), 0.50)
        for label, times in timings.items()
    }


def measure(name, rounds):
    """Cold (cleared-store) and warm p50 of one step of case ``name``."""
    p50 = _p50s({"cold": (name, True), "warm": (name, False)}, rounds)
    return {
        "case": name,
        "rounds": rounds,
        "cold_p50_seconds": p50["cold"],
        "warm_p50_seconds": p50["warm"],
        "speedup": p50["cold"] / p50["warm"],
    }


def measure_list_size(rounds):
    """Warm p50 of ``large_list`` against ``small_list``."""
    p50 = _p50s(
        {"large": ("large_list", False), "small": ("small_list", False)},
        rounds,
    )
    return {
        "case": "list_size",
        "rounds": rounds,
        "large_warm_p50_seconds": p50["large"],
        "small_warm_p50_seconds": p50["small"],
        "ratio": p50["large"] / p50["small"],
    }


def check(results, list_size):
    """(ok, messages): the warm-vs-cold floor on every gated case and
    the list-size ceiling."""
    verdicts = [
        (
            result["speedup"] >= MIN_SPEEDUP,
            "{}: cold/warm p50 {:.2f}x (floor {:.1f}x)".format(
                result["case"], result["speedup"], MIN_SPEEDUP
            ),
        )
        for result in results if result["case"] in GATED_CASES
    ]
    verdicts.append((
        list_size["ratio"] <= MAX_LIST_SIZE_RATIO,
        "list_size: warm large/small p50 {:.2f}x (ceiling {:.1f}x)".format(
            list_size["ratio"], MAX_LIST_SIZE_RATIO
        ),
    ))
    messages = [
        "{} — {}".format(text, "ok" if passed else "REGRESSED")
        for passed, text in verdicts
    ]
    return all(passed for passed, _text in verdicts), messages


# -- suite entry points ------------------------------------------------------


def _bench(benchmark, name, warm):
    """Time 50 rounds of case ``name``; cold clears the store first."""
    steps, stores = CASES[name]()

    def clear():
        for store in stores:
            store.clear()

    def run():
        for step in steps:
            step()

    benchmark.pedantic(run, setup=None if warm else clear, rounds=50)
    return stores


@pytest.mark.parametrize("warm", (False, True), ids=("cold", "warm"))
@pytest.mark.parametrize("name", sorted(CASES))
def test_rerender(benchmark, name, warm):
    stores = _bench(benchmark, name, warm)
    assert all(len(store) > 0 for store in stores)


@pytest.mark.parametrize("name", GATED_CASES)
def test_warm_rerender_beats_cleared_store(name):
    result = measure(name, rounds=15)
    assert result["speedup"] >= MIN_SPEEDUP, result


def test_warm_rerender_cost_ignores_list_size():
    result = measure_list_size(rounds=15)
    assert result["ratio"] <= MAX_LIST_SIZE_RATIO, result


def main(argv=None):
    args = gate_arguments(
        argv, __doc__,
        quick="small CI-sized run (fewer rounds)",
        check="exit 1 unless a warm re-render is at least {:.0f}x faster "
              "than a cleared-store one on {}, and a warm large_list "
              "re-render within {:.1f}x of a small_list one".format(
                  MIN_SPEEDUP, " and ".join(GATED_CASES),
                  MAX_LIST_SIZE_RATIO,
              ),
    )
    rounds = 20 if (args.quick or args.check) else 60
    names = GATED_CASES if args.check else tuple(CASES)
    results = [measure(name, rounds) for name in names]
    for result in results:
        print(
            "{case}: cold p50 {cold:.3f}ms → warm p50 {warm:.3f}ms "
            "({speedup:.2f}x)".format(
                case=result["case"],
                cold=result["cold_p50_seconds"] * 1e3,
                warm=result["warm_p50_seconds"] * 1e3,
                speedup=result["speedup"],
            )
        )
    list_size = measure_list_size(rounds)
    print(
        "list_size: warm p50 {large:.3f}ms ({items} items) vs "
        "{small:.3f}ms (8 items), {ratio:.2f}x".format(
            large=list_size["large_warm_p50_seconds"] * 1e3,
            small=list_size["small_warm_p50_seconds"] * 1e3,
            items=LIST_ITEMS, ratio=list_size["ratio"],
        )
    )
    if args.check:
        ok, messages = check(results, list_size)
        for message in messages:
            print("check:", message)
        return 0 if ok else 1
    label = run_label(args)
    for result in results + [list_size]:
        append_bench_record(bench_path("memo"), "memo_rerender", label,
                            **result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
