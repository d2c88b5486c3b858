"""E10 — closure compilation vs tree walking (repro.compile).

Measures the live-loop latency of one **edit→render** step — UPDATE
(typecheck + Fig. 12 fix-up) followed by the first RENDER of the new
code — on the tree-walking CEK machine versus the closure-compilation
backend.  Both backends are observationally identical (the differential
suite in ``tests/compile/`` pins byte-identical HTML, faults and
provenance), so this is a pure like-for-like speed comparison of the
``backend=`` switch.

Two workloads:

* ``listings`` — the paper's mortgage/house-hunting app: realistic mix
  of helper calls, globals and service posts (the ISSUE's acceptance
  workload);
* ``gallery`` — the function-drawn box gallery (30×6 cells, each drawn
  through a helper call): call-dense render bodies, where resolving
  variables to environment indices at compile time pays the most.

Each measurement alternates between two precompiled program variants so
every step is a real code update — the compiled backend therefore
*recompiles its units every round* (compilation is inside the timed
region; the ≥2x still holds because one compile per code version is
amortized over the whole render).  Results append to
``BENCH_compile.json`` (one JSON object per line).

Runs three ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_compile.py   # suite
    PYTHONPATH=src python benchmarks/bench_compile.py --quick     # CI
    PYTHONPATH=src python benchmarks/bench_compile.py --check     # CI gate

Two more cases time compiling the mortgage app through
``compile_source`` — which reuses every declaration compiled before
(:mod:`repro.surface.decls`) — against ``compile_fresh``, the whole
pipeline.  ``one_decl_edit`` is a one-declaration edit (the paper's I2,
toggled on and off), history only.  ``broken_edit`` is a
one-declaration *broken* edit (the detail page's parameter list left
unclosed) with every other declaration cached: its diagnostic is
decided from the one declaration parsed now, where a whole-program
compile parses all of them again.

``--check`` is the gate: the ``listings`` tree/compiled p50 speedup
must stay at or above :data:`SPEEDUP_FLOOR` (2.0 — the ISSUE's
acceptance criterion), no workload's speedup may regress more than
20% against its most recent committed ``baseline`` record, and the
``broken_edit`` fresh/incremental p50 ratio must stay at or above
:data:`BROKEN_EDIT_FLOOR`.  Comparing *ratios* keeps the gate
machine-independent.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from conftest import (  # noqa: E402
    append_bench_record,
    gate_arguments,
    latest_baselines,
    run_label,
)

from repro.obs.histo import percentile
from repro.apps.gallery import function_gallery_source
from repro.apps.mortgage import (
    BASE_SOURCE,
    apply_i2,
    compile_mortgage,
    host_impls,
)
from repro.core.errors import ReproError
from repro.incremental.store import MemoStore
from repro.stdlib.web import make_services
from repro.surface import compile as surface_compile
from repro.surface.compile import compile_fresh, compile_source
from repro.system.transitions import System

BENCH_PATH = Path(__file__).parent.parent / "BENCH_compile.json"

#: The acceptance criterion: compiled must be at least this many times
#: faster than tree-walk (p50) on the ``listings`` edit→render loop.
SPEEDUP_FLOOR = 2.0

#: --check also fails when a workload's speedup regresses past this
#: factor of its committed baseline.
REGRESSION_TOLERANCE = 1.20

#: --check fails when ``compile_fresh`` is less than this many times
#: slower (p50) than ``compile_source`` on the one-declaration broken
#: edit: a broken edit must cost about what the declaration it broke
#: costs, not the whole program.
BROKEN_EDIT_FLOOR = 1.5

#: The ``broken_edit`` case's edit: the detail page's parameter list
#: left unclosed, so the parser rejects that one declaration.
BROKEN_SOURCE = BASE_SOURCE.replace("page detail(l : listing)",
                                    "page detail(l : listing")

GALLERY_ROWS, GALLERY_COLS = 30, 6


def _listings_variants():
    base = compile_mortgage()
    edited = compile_mortgage(BASE_SOURCE.replace('"House"', '"Homes"'))
    return [
        (base.code, base.natives, make_services()),
        (edited.code, edited.natives, make_services()),
    ]


def _gallery_variants():
    compiled = [
        compile_source(
            function_gallery_source(
                rows=GALLERY_ROWS, cols=GALLERY_COLS, title=title
            )
        )
        for title in ("gallery", "edited")
    ]
    return [(c.code, c.natives, None) for c in compiled]


def _measure(make_variants, rounds):
    """p50/p95 wall seconds of edit→render per backend.

    Each backend edits its own system, alternating the variants; the
    backends take turns round by round, so a machine slowing down or
    speeding up during the run moves both alike.  The memo store is
    cleared before each timed edit, so every round runs the whole
    render body on the backend under test.
    """
    sides = {}
    for backend in ("tree", "compiled"):
        variants = make_variants()
        code, natives, services = variants[0]
        store = MemoStore()
        system = System(
            code, natives=natives, services=services, backend=backend,
            memo_store=store,
        )
        system.run_to_stable()
        sides[backend] = (variants, store, system, [])
    for step in range(rounds):
        for variants, store, system, timings in sides.values():
            next_code, next_natives, _services = variants[(step + 1) % 2]
            store.clear()
            started = time.perf_counter()
            system.update(next_code, natives=next_natives)
            system.run_to_stable()
            timings.append(time.perf_counter() - started)
    results = {}
    for backend, (_variants, _store, _system, timings) in sides.items():
        timings.sort()
        results[backend] = {
            "p50_seconds": percentile(timings, 0.50),
            "p95_seconds": percentile(timings, 0.95),
        }
    return results["tree"], results["compiled"]


def run_workload(name, rounds=40):
    """Tree-vs-compiled comparison for one workload; the record body."""
    if name == "listings":
        make_variants = _listings_variants
    elif name == "gallery":
        make_variants = _gallery_variants
    else:
        raise ValueError("unknown workload {!r}".format(name))
    tree, compiled = _measure(make_variants, rounds)
    speedup = (
        tree["p50_seconds"] / compiled["p50_seconds"]
        if compiled["p50_seconds"] else 0.0
    )
    return {
        "workload": name,
        "rounds": rounds,
        "tree_p50_seconds": tree["p50_seconds"],
        "tree_p95_seconds": tree["p95_seconds"],
        "compiled_p50_seconds": compiled["p50_seconds"],
        "compiled_p95_seconds": compiled["p95_seconds"],
        "speedup_p50": speedup,
    }


def _compile_pair(workload, warm, sources, rounds):
    """p50/p95 seconds of ``compile_source`` and ``compile_fresh`` over
    ``sources`` in turn, and the fresh/incremental p50 ratio.

    ``warm`` is compiled first, so the declaration cache holds its
    declarations.  The two paths take turns each round.  The intern
    table is emptied before each incremental compile, so it compiles
    (reusing the declarations it holds) instead of returning a program
    interned earlier.  A source that does not compile is timed until
    its error is raised.
    """
    impls = host_impls()
    for source in warm:
        compile_source(source, impls)
    timings = {"incremental": [], "fresh": []}
    for step in range(rounds):
        source = sources[step % len(sources)]
        surface_compile._INTERNED.clear()
        for path, compile_ in (("incremental", compile_source),
                               ("fresh", compile_fresh)):
            started = time.perf_counter()
            try:
                compile_(source, impls)
            except ReproError:
                pass
            timings[path].append(time.perf_counter() - started)
    result = {"workload": workload, "rounds": rounds}
    for path, values in timings.items():
        values.sort()
        result[path + "_p50_seconds"] = percentile(values, 0.50)
        result[path + "_p95_seconds"] = percentile(values, 0.95)
    result["speedup_p50"] = (
        result["fresh_p50_seconds"] / result["incremental_p50_seconds"]
    )
    return result


def run_one_decl_edit(rounds=40):
    """Incremental vs whole-pipeline compile of a one-declaration edit:
    rounds alternate the base app and its I2 edit."""
    variants = (BASE_SOURCE, apply_i2(BASE_SOURCE))
    return _compile_pair("one_decl_edit", variants, variants, rounds)


def run_broken_edit(rounds=40):
    """Incremental vs whole-pipeline compile of :data:`BROKEN_SOURCE`,
    every declaration of the base app cached."""
    return _compile_pair("broken_edit", (BASE_SOURCE,), (BROKEN_SOURCE,),
                         rounds)


def record(result, label):
    """Append one JSONL measurement to BENCH_compile.json."""
    append_bench_record(
        BENCH_PATH, "compile_edit_render", label, **result
    )


def load_baselines(path=BENCH_PATH):
    """workload → most recent committed ``baseline`` record."""
    return latest_baselines(path, "compile_edit_render")


#: Workload → what its ratio is, and the floor ``--check`` holds it to.
FLOORS = {
    "listings": ("compiled speedup", SPEEDUP_FLOOR),
    "broken_edit": ("compile_fresh/compile_source", BROKEN_EDIT_FLOOR),
}


def check_results(results, baselines):
    """(ok, messages): the ratio floors plus the ratio-vs-baseline
    regression gate."""
    ok = True
    messages = []
    for result in results:
        workload = result["workload"]
        speedup = result["speedup_p50"]
        floor = FLOORS.get(workload)
        if floor is not None:
            what, required = floor
            verdict = "ok" if speedup >= required else "BELOW FLOOR"
            if speedup < required:
                ok = False
            messages.append(
                "{}: {} {:.2f}x vs required {:.1f}x — {}".format(
                    workload, what, speedup, required, verdict
                )
            )
        baseline = baselines.get(workload)
        if baseline is None:
            if floor is None:
                messages.append(
                    "{}: no committed baseline — skipping".format(workload)
                )
            continue
        committed = baseline["speedup_p50"]
        limit = committed / REGRESSION_TOLERANCE
        verdict = "ok" if speedup >= limit else "REGRESSED"
        if speedup < limit:
            ok = False
        messages.append(
            "{}: speedup {:.2f}x vs baseline {:.2f}x "
            "(limit {:.2f}x) — {}".format(
                workload, speedup, committed, limit, verdict
            )
        )
    return ok, messages


# -- suite entry points ------------------------------------------------------


def test_listings_compiled_is_at_least_2x():
    result = run_workload("listings", rounds=14)
    assert result["speedup_p50"] >= SPEEDUP_FLOOR, result
    record(result, "suite")


def test_gallery_compiled_is_faster():
    result = run_workload("gallery", rounds=8)
    assert result["speedup_p50"] > 1.0, result
    record(result, "suite")


def test_one_decl_edit_is_recorded():
    result = run_one_decl_edit(rounds=8)
    assert result["incremental_p50_seconds"] > 0.0, result
    append_bench_record(BENCH_PATH, "compile_one_decl_edit", "suite",
                        **result)


def test_a_broken_edit_compiles_faster_than_the_whole_program():
    result = run_broken_edit(rounds=12)
    assert result["speedup_p50"] > 1.0, result
    append_bench_record(BENCH_PATH, "compile_broken_edit", "suite",
                        **result)


def _print_compile_pair(result):
    print(
        "{workload}: compile_fresh p50 {fresh:.2f}ms → incremental p50 "
        "{incremental:.2f}ms (speedup {speedup:.2f}x)".format(
            workload=result["workload"],
            fresh=result["fresh_p50_seconds"] * 1e3,
            incremental=result["incremental_p50_seconds"] * 1e3,
            speedup=result["speedup_p50"],
        )
    )


def main(argv=None):
    args = gate_arguments(
        argv, __doc__,
        quick="small CI-sized run (fewer rounds)",
        check="enforce the 2x listings and 1.5x broken_edit floors and "
              "compare against the committed baselines; exit 1 on failure",
    )
    rounds = 12 if (args.quick or args.check) else 40

    results = [
        run_workload("listings", rounds=rounds),
        run_workload("gallery", rounds=rounds),
    ]
    for result in results:
        print(
            "{workload}: tree p50 {tree:.2f}ms → compiled p50 "
            "{compiled:.2f}ms (speedup {speedup:.2f}x)".format(
                workload=result["workload"],
                tree=result["tree_p50_seconds"] * 1e3,
                compiled=result["compiled_p50_seconds"] * 1e3,
                speedup=result["speedup_p50"],
            )
        )
    # Compiles are short: more rounds keep the ratio's p50 steady.
    broken = run_broken_edit(rounds=5 * rounds)
    _print_compile_pair(broken)

    if args.check:
        ok, messages = check_results(results + [broken], load_baselines())
        for message in messages:
            print("check:", message)
        return 0 if ok else 1

    label = run_label(args)
    for result in results:
        record(result, label)
    edit = run_one_decl_edit(rounds=rounds)
    _print_compile_pair(edit)
    append_bench_record(BENCH_PATH, "compile_one_decl_edit", label, **edit)
    append_bench_record(BENCH_PATH, "compile_broken_edit", label, **broken)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
