"""E12 — live repair: budgeted search over candidate fixes.

Measures the repair searcher (:mod:`repro.repair`) on the two triggers
it serves, over a batch of seeded trials:

* ``rollback`` — a journaled counter session takes seeded traffic, then
  an UPDATE whose render divides by zero is rolled back; the search
  runs over the faulting buffer with the last-good program and the
  decl-diff localization, exactly as the host launches it;
* ``breaker`` — the running program's tap handler divides by zero and
  live taps open the circuit breaker; the search runs over the running
  source with the ``why()``-join localization.

Per workload: the **found rate** (trials where at least one candidate
validated — the machine-independent acceptance number), the p50 wall
time of the whole search, and the p50 time-to-first-valid (how long a
degraded session waits before an actionable fix exists).

Results append to ``BENCH_repair.json`` (one JSON object per line).

Runs three ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_repair.py   # suite
    PYTHONPATH=src python benchmarks/bench_repair.py --quick     # CI
    PYTHONPATH=src python benchmarks/bench_repair.py --check     # CI gate

``--check`` is the regression gate and is deliberately
machine-independent: it fails (exit 1) when a workload's found rate
drops below ``MIN_FOUND_RATE`` or below the most recent committed
``baseline`` record's found rate.  Wall times are recorded for the
trajectory but never gated — runners disagree on milliseconds, they
must not disagree on whether the searcher finds repairs.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from conftest import (  # noqa: E402
    append_bench_record,
    gate_arguments,
    latest_baselines,
    run_label,
)

from repro.apps.counter import SOURCE as COUNTER
from repro.obs.histo import percentile
from repro.repair import RepairBudget, search_repairs
from repro.resilience.journal import Journal
from repro.serve.host import SessionHost

BENCH_PATH = Path(__file__).parent.parent / "BENCH_repair.json"

#: --check fails when a workload's found rate drops below this.
MIN_FOUND_RATE = 0.9

RENDER_BROKEN = COUNTER.replace(
    'post "count: " || count',
    'post "count: " || count / (count - count)',
)
TAP_BROKEN = COUNTER.replace(
    "count := count + 1",
    "count := count / (count - count)",
)

SESSION_KWARGS = {
    "fault_policy": "record", "supervised": True, "backend": "tree",
}

BUDGET = RepairBudget(max_candidates=12, window=20, parallelism=4)


def _journaled_host(directory, source):
    return SessionHost(
        default_source=source,
        session_kwargs=dict(SESSION_KWARGS),
        journal=Journal(directory),
        quarantine_after=2,
    )


def _drive_traffic(host, token, seed, taps=8):
    """Seeded tap mix: replay material for the validation window."""
    for step in range(taps):
        host.tap(token, path=[1] if (seed + step) % 3 == 0 else [0])


def _rollback_trial(directory, seed):
    host = _journaled_host(directory, COUNTER)
    token = host.create()
    _drive_traffic(host, token, seed)
    result = host.edit_source(token, RENDER_BROKEN)
    assert result.status == "rolled_back"
    return host, token, {
        "faulting_source": RENDER_BROKEN,
        "last_good_source": COUNTER,
        "suspects": ("start",),
        "trigger": "rollback",
    }


def _breaker_trial(directory, seed):
    host = _journaled_host(directory, TAP_BROKEN)
    token = host.create()
    for _ in range(2):
        host.tap(token, path=[0])  # the handler faults; breaker opens
    assert host.is_quarantined(token)
    return host, token, {
        "faulting_source": TAP_BROKEN,
        "last_good_source": None,
        "suspects": ("start",),
        "trigger": "breaker",
    }


WORKLOADS = {
    "rollback": _rollback_trial,
    "breaker": _breaker_trial,
}


def run_workload(name, trials=10):
    """``trials`` seeded end-to-end searches; the record body."""
    build = WORKLOADS[name]
    found = 0
    walls = []
    first_valids = []
    searched = 0
    for seed in range(trials):
        directory = tempfile.mkdtemp(prefix="bench_repair_")
        try:
            host, token, search_kwargs = build(directory, seed)
            observed = {}

            def observe(metric, value):
                observed.setdefault(metric, value)

            started = time.perf_counter()
            report = search_repairs(
                host.journal, token,
                budget=BUDGET,
                observe=observe,
                **search_kwargs
            )
            walls.append(time.perf_counter() - started)
            searched += report.searched
            if report.found:
                found += 1
                first_valids.append(observed.get(
                    "repair.first_valid", report.wall_seconds
                ))
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return {
        "workload": name,
        "trials": trials,
        "found": found,
        "found_rate": found / trials,
        "candidates_searched": searched,
        "search_p50_seconds": percentile(sorted(walls), 0.50),
        "search_p95_seconds": percentile(sorted(walls), 0.95),
        "first_valid_p50_seconds": (
            percentile(sorted(first_valids), 0.50) if first_valids else None
        ),
    }


def record(result, label):
    append_bench_record(BENCH_PATH, "live_repair", label, **result)


def load_baselines(path=BENCH_PATH):
    """workload → most recent committed ``baseline`` record."""
    return latest_baselines(path, "live_repair")


def check_regression(results, baselines):
    """(ok, messages): the machine-independent found-rate gate."""
    ok = True
    messages = []
    for result in results:
        name = result["workload"]
        rate = result["found_rate"]
        floor = MIN_FOUND_RATE
        baseline = baselines.get(name)
        if baseline is not None:
            floor = max(floor, baseline["found_rate"])
            context = "baseline {:.2f}".format(baseline["found_rate"])
        else:
            context = "no committed baseline"
        verdict = "ok" if rate >= floor else "REGRESSED"
        if rate < floor:
            ok = False
        messages.append(
            "{}: found rate {:.2f} vs floor {:.2f} ({}) — {}".format(
                name, rate, floor, context, verdict
            )
        )
    return ok, messages


# -- suite entry points ------------------------------------------------------


def test_rollback_search_always_finds_a_repair():
    result = run_workload("rollback", trials=3)
    assert result["found_rate"] == 1.0, result
    record(result, "suite")


def test_breaker_search_always_finds_a_repair():
    result = run_workload("breaker", trials=3)
    assert result["found_rate"] == 1.0, result
    record(result, "suite")


def main(argv=None):
    args = gate_arguments(
        argv, __doc__,
        quick="small CI-sized run (fewer trials)",
        check="compare found rates against the committed baselines; "
              "exit 1 below {:.0%} or below the baseline rate".format(
                  MIN_FOUND_RATE
              ),
    )
    trials = 5 if (args.quick or args.check) else 15

    results = [run_workload(name, trials=trials) for name in WORKLOADS]
    for result in results:
        first = result["first_valid_p50_seconds"]
        print(
            "{workload}: found {found}/{trials} (rate {rate:.2f}), "
            "search p50 {p50:.1f}ms, first valid p50 {first}".format(
                workload=result["workload"],
                found=result["found"],
                trials=result["trials"],
                rate=result["found_rate"],
                p50=result["search_p50_seconds"] * 1e3,
                first=(
                    "{:.1f}ms".format(first * 1e3)
                    if first is not None else "n/a"
                ),
            )
        )

    if args.check:
        ok, messages = check_regression(results, load_baselines())
        for message in messages:
            print("check:", message)
        return 0 if ok else 1

    label = run_label(args)
    for result in results:
        record(result, label)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
