"""E5 — event-handling throughput (the Fig. 9 loop).

One user tap costs TAP (enqueue) + THUNK (handler in standard mode) +
RENDER (full page rebuild) — the model's interactive unit of work.  We
measure it on the counter (trivial render) and on the mortgage detail
page (a 30-row render), and the faithful small-step machine on the
counter for the faithfulness tax.

Expected shape: tap cost is dominated by the re-render, so it tracks page
complexity (counter ≪ mortgage detail); the small-step machine is one to
two orders of magnitude slower than the CEK machine, which is why it is
the test oracle and not the production evaluator.
"""

import pytest

from repro.apps.counter import compile_counter
from repro.apps.mortgage import compile_mortgage
from repro.stdlib.listings import generate_listings
from repro.stdlib.web import make_services
from repro.system.runtime import Runtime


def _counter(faithful=False):
    compiled = compile_counter()
    return Runtime(
        compiled.code, natives=compiled.natives, faithful=faithful,
        backend="tree",
    ).start()


def test_tap_counter_cek(benchmark):
    runtime = _counter()
    paths = [runtime.find_text("reset")]

    def tap():
        runtime.tap(paths[0])

    benchmark(tap)


def test_tap_counter_small_step(benchmark):
    """The faithfulness tax: same interaction, literal Fig. 8 machine."""
    runtime = _counter(faithful=True)
    paths = [runtime.find_text("reset")]

    def tap():
        runtime.tap(paths[0])

    benchmark(tap)


def test_tap_mortgage_detail(benchmark):
    """Tap on a 30-row page: re-render dominates."""
    compiled = compile_mortgage()
    runtime = Runtime(
        compiled.code, natives=compiled.natives, services=make_services(),
        backend="tree",
    ).start()
    address, city, _price = generate_listings(8)[0]
    runtime.tap_text("{}, {}".format(address, city))
    # Editing the term re-runs the whole amortization render.
    term_box = runtime.find_text("30")

    state = {"term": 30}

    def edit_term():
        # Flip between 30 and 31 years so the box text stays findable.
        new_term = 61 - state["term"]
        runtime.edit(runtime.find_text(str(state["term"])), str(new_term))
        state["term"] = new_term

    benchmark(edit_term)


def test_back_and_forth_navigation(benchmark):
    compiled = compile_mortgage()
    runtime = Runtime(
        compiled.code, natives=compiled.natives, services=make_services(),
        backend="tree",
    ).start()
    address, city, _price = generate_listings(8)[0]
    label = "{}, {}".format(address, city)

    def round_trip():
        runtime.tap_text(label)
        runtime.back()

    benchmark(round_trip)
