"""E9 — update-surviving incremental rendering (repro.incremental).

Measures the *live-loop latency*: the wall time of one edit→render step
(UPDATE with the Fig. 12 fix-up, then the first RENDER of the new code),
cold versus warm:

* **cold** — the session's memo store is cleared before each timed
  edit, so the edit re-executes the whole render body, the paper's
  baseline full rebuild;
* **warm** — the store survives the edit: render-function calls whose
  code digest and read-set values the edit left unchanged replay their
  cached box subtrees (docs/PERF.md).

Two workloads, both editing a string only the page's *inline* body
reads, so every helper function's digest survives the edit:

* ``gallery`` — the function-drawn box gallery (rows×cols cells, each a
  memoizable call);
* ``listings`` — the paper's mortgage/house-hunting app, whose list page
  draws each listing through ``display_listentry``.

Each measurement alternates between two precompiled program variants so
every step is a real code update, never a no-op.  Results append to
``BENCH_incremental.json`` (one JSON object per line).

Runs three ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_incremental.py  # suite
    PYTHONPATH=src python benchmarks/bench_incremental.py --quick    # CI
    PYTHONPATH=src python benchmarks/bench_incremental.py --check    # CI gate

``--check`` is the regression gate: it compares the measured
warm/cold p50 ratio against the most recent committed ``baseline``
record per workload and fails (exit 1) if the ratio regressed by more
than 20%.  Comparing the *ratio* — not absolute seconds — keeps the
gate machine-independent: CI runners and laptops disagree wildly on
milliseconds but agree on how much of the render the memo elides.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from conftest import append_bench_record, latest_baselines  # noqa: E402

from repro.obs.histo import percentile
from repro.apps.gallery import function_gallery_source
from repro.apps.mortgage import compile_mortgage
from repro.incremental.store import MemoStore
from repro.stdlib.web import make_services
from repro.surface.compile import compile_source
from repro.system.transitions import System

BENCH_PATH = Path(__file__).parent.parent / "BENCH_incremental.json"

#: --check fails when warm/cold p50 regresses past this factor.
REGRESSION_TOLERANCE = 1.20

GALLERY_ROWS, GALLERY_COLS = 30, 6


# The one shared nearest-rank implementation (repro.obs.histo) —
# identical math to the former local copy, so committed baselines in
# the BENCH_*.json trajectories stay comparable.
_percentile = percentile


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


def _listings_variants():
    from repro.apps.mortgage import BASE_SOURCE

    base = compile_mortgage()
    edited = compile_mortgage(BASE_SOURCE.replace('"House"', '"Homes"'))
    return [
        (base.code, base.natives, make_services()),
        (edited.code, edited.natives, make_services()),
    ]


def _measure(make_variants, rounds):
    """p50/p95 wall seconds of edit→render, cold and warm.

    Each side edits its own system, alternating the variants; the two
    sides take turns round by round, so a machine slowing down or
    speeding up during the run moves both alike.
    """
    sides = {}
    for side in ("cold", "warm"):
        variants = make_variants()
        code, natives, services = variants[0]
        store = MemoStore()
        system = System(
            code, natives=natives, services=services, memo_store=store,
            backend="tree",
        )
        system.run_to_stable()
        sides[side] = (variants, store, system, [])
    for step in range(rounds):
        for side, (variants, store, system, timings) in sides.items():
            next_code, next_natives, _services = variants[(step + 1) % 2]
            if side == "cold":
                store.clear()
            started = time.perf_counter()
            system.update(next_code, natives=next_natives)
            system.run_to_stable()
            timings.append(time.perf_counter() - started)
    results = {}
    for side, (_variants, _store, system, timings) in sides.items():
        timings.sort()
        results[side] = {
            "p50_seconds": _percentile(timings, 0.50),
            "p95_seconds": _percentile(timings, 0.95),
            "reuse": dict(system.last_update_render_stats),
        }
    return results["cold"], results["warm"]


def run_workload(name, rounds=40):
    """Cold-vs-warm comparison for one workload; returns the record body."""
    if name == "gallery":
        make_variants = _gallery_variants
    elif name == "listings":
        make_variants = _listings_variants
    else:
        raise ValueError("unknown workload {!r}".format(name))
    cold, warm = _measure(make_variants, rounds)
    ratio = (
        warm["p50_seconds"] / cold["p50_seconds"]
        if cold["p50_seconds"] else 1.0
    )
    return {
        "workload": name,
        "rounds": rounds,
        "cold_p50_seconds": cold["p50_seconds"],
        "cold_p95_seconds": cold["p95_seconds"],
        "warm_p50_seconds": warm["p50_seconds"],
        "warm_p95_seconds": warm["p95_seconds"],
        "warm_cold_ratio": ratio,
        "warm_update_hits": warm["reuse"].get("hits", 0),
        "warm_update_misses": warm["reuse"].get("misses", 0),
        "warm_replayed_boxes": warm["reuse"].get("replayed_boxes", 0),
    }


def record(result, label):
    """Append one JSONL measurement to BENCH_incremental.json."""
    append_bench_record(
        BENCH_PATH, "incremental_edit_render", label, **result
    )


def load_baselines(path=BENCH_PATH):
    """workload → most recent committed ``baseline`` record."""
    return latest_baselines(path, "incremental_edit_render")


def check_regression(results, baselines):
    """(ok, messages): ratio-vs-baseline gate for every workload."""
    ok = True
    messages = []
    for result in results:
        baseline = baselines.get(result["workload"])
        if baseline is None:
            messages.append(
                "{}: no committed baseline — skipping".format(
                    result["workload"]
                )
            )
            continue
        current = result["warm_cold_ratio"]
        committed = baseline["warm_cold_ratio"]
        limit = committed * REGRESSION_TOLERANCE
        verdict = "ok" if current <= limit else "REGRESSED"
        if current > limit:
            ok = False
        messages.append(
            "{}: warm/cold p50 ratio {:.3f} vs baseline {:.3f} "
            "(limit {:.3f}) — {}".format(
                result["workload"], current, committed, limit, verdict
            )
        )
    return ok, messages


# -- suite entry points ------------------------------------------------------


def test_gallery_warm_edit_is_30_percent_faster():
    result = run_workload("gallery", rounds=14)
    # The acceptance bar: an edit that leaves every helper digest
    # unchanged must make the warm edit→render at least 30% faster.
    assert result["warm_cold_ratio"] <= 0.70, result
    assert result["warm_update_hits"] == GALLERY_ROWS
    assert result["warm_update_misses"] == 0
    record(result, "suite")


def test_listings_warm_edit_reuses_every_entry():
    result = run_workload("listings", rounds=10)
    assert result["warm_update_misses"] == 0
    assert result["warm_update_hits"] > 0
    assert result["warm_cold_ratio"] < 1.0, result
    record(result, "suite")


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small CI-sized run (fewer rounds)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed baseline records; "
             "exit 1 on a >20% warm/cold ratio regression",
    )
    parser.add_argument(
        "--baseline", action="store_true",
        help="record the results as the committed baseline",
    )
    args = parser.parse_args(argv)
    rounds = 12 if (args.quick or args.check) else 40

    results = [
        run_workload("gallery", rounds=rounds),
        run_workload("listings", rounds=rounds),
    ]
    for result in results:
        print(
            "{workload}: cold p50 {cold:.2f}ms → warm p50 {warm:.2f}ms "
            "(ratio {ratio:.3f}, {hits} hits / {misses} misses, "
            "{boxes} boxes replayed)".format(
                workload=result["workload"],
                cold=result["cold_p50_seconds"] * 1e3,
                warm=result["warm_p50_seconds"] * 1e3,
                ratio=result["warm_cold_ratio"],
                hits=result["warm_update_hits"],
                misses=result["warm_update_misses"],
                boxes=result["warm_replayed_boxes"],
            )
        )

    if args.check:
        ok, messages = check_regression(results, load_baselines())
        for message in messages:
            print("check:", message)
        return 0 if ok else 1

    label = (
        "baseline" if args.baseline else "quick" if args.quick else "full"
    )
    for result in results:
        record(result, label)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
