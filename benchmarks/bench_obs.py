"""E10 — the price of watching: instrumentation overhead.

Observability is only "always on" if it is nearly free.  This bench
measures the overhead of a live :class:`~repro.obs.trace.Tracer`
(spans + counters + latency histograms) against the
:class:`~repro.obs.trace.NullTracer` default on the paper's hot path —
the tap→event→render live loop — plus the microcosts of the histogram
primitive itself:

* ``tap_loop`` — the counter app driven through ``rounds`` taps, once
  untraced and once with a full ``Tracer()`` attached.  The headline
  number is the instrumented/null p50 **ratio**: machine-independent
  (both runs share the machine and the run), which is what makes it
  gateable in CI.
* per-call ``Histogram.observe`` / ``NullHistogram.observe`` costs —
  recorded for the trajectory, not gated (nanosecond ratios on a noisy
  runner are not a stable signal).

Appends to ``BENCH_obs.json`` (the shared obs trajectory file).

Runs three ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs.py  # suite
    PYTHONPATH=src python benchmarks/bench_obs.py --quick    # CI
    PYTHONPATH=src python benchmarks/bench_obs.py --check    # CI gate

``--check`` fails (exit 1) when the instrumented/null ratio exceeds the
absolute ceiling, or regresses more than 25% past the most recent
committed ``baseline`` record.  The gate takes the best of a few
attempts so one scheduling hiccup on a loaded runner cannot fail CI
while a real regression still fails every attempt.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from conftest import (  # noqa: E402
    OBS_PATH, append_bench_record, latest_baselines,
)

from repro.api import Tracer
from repro.obs.histo import Histogram, NullHistogram, percentile
from repro.surface.compile import compile_source
from repro.system.runtime import Runtime

BENCH_PATH = OBS_PATH

#: The absolute bar: full instrumentation must never double the live
#: loop.  (In practice it costs a few percent; 2.0 is the "something is
#: badly wrong" line, the baseline comparison catches creep below it.)
OVERHEAD_CEILING = 2.0

#: --check also fails when the ratio regresses past baseline * this.
REGRESSION_TOLERANCE = 1.25

COUNTER = """\
global count : number = 0
page start()
  render
    boxed
      post "count " || count
      on tap do
        count := count + 1
"""


def _tap_loop(tracer, rounds, warmup=5):
    """p50/p95 wall seconds of one tap→event→render round trip."""
    compiled = compile_source(COUNTER)
    runtime = Runtime(
        compiled.code, natives=compiled.natives, tracer=tracer,
        backend="tree",
    ).start()
    taps = 0
    for _ in range(warmup):
        runtime.tap_text("count {}".format(taps))
        taps += 1
    timings = []
    for _ in range(rounds):
        started = time.perf_counter()
        runtime.tap_text("count {}".format(taps))
        timings.append(time.perf_counter() - started)
        taps += 1
    timings.sort()
    return {
        "p50_seconds": percentile(timings, 0.50),
        "p95_seconds": percentile(timings, 0.95),
    }


def _observe_cost(histogram, observations=20000):
    """Mean seconds per ``observe`` call on a deterministic sample mix."""
    samples = [((n * 37) % 997 + 1) * 1e-5 for n in range(observations)]
    started = time.perf_counter()
    for value in samples:
        histogram.observe(value)
    return (time.perf_counter() - started) / observations


def run_workload(rounds=300):
    """One instrumented-vs-null comparison; returns the record body."""
    null = _tap_loop(tracer=None, rounds=rounds)
    tracer = Tracer()
    instrumented = _tap_loop(tracer=tracer, rounds=rounds)
    ratio = (
        instrumented["p50_seconds"] / null["p50_seconds"]
        if null["p50_seconds"] else 1.0
    )
    return {
        "workload": "tap_loop",
        "rounds": rounds,
        "null_p50_seconds": null["p50_seconds"],
        "null_p95_seconds": null["p95_seconds"],
        "instrumented_p50_seconds": instrumented["p50_seconds"],
        "instrumented_p95_seconds": instrumented["p95_seconds"],
        "overhead_ratio": ratio,
        "spans_recorded": len(tracer.spans()),
        "histogram_observe_seconds": _observe_cost(Histogram()),
        "null_observe_seconds": _observe_cost(NullHistogram()),
    }


def record(result, label):
    """Append one JSONL measurement to BENCH_obs.json."""
    append_bench_record(BENCH_PATH, "obs_overhead", label, **result)


def load_baselines(path=BENCH_PATH):
    """workload → most recent committed ``baseline`` record."""
    return latest_baselines(path, "obs_overhead")


def run_gate(label, rounds, attempts=3):
    """Best-of-``attempts`` runs (every run is recorded)."""
    best = None
    for _ in range(attempts):
        result = run_workload(rounds=rounds)
        record(result, label)
        if best is None or result["overhead_ratio"] < best["overhead_ratio"]:
            best = result
        if best["overhead_ratio"] <= OVERHEAD_CEILING:
            break
    return best


def check_regression(result, baselines):
    """(ok, messages): ceiling + ratio-vs-baseline gate."""
    messages = []
    ratio = result["overhead_ratio"]
    ok = ratio <= OVERHEAD_CEILING
    messages.append(
        "tap_loop: instrumented/null p50 ratio {:.3f} "
        "(ceiling {:.1f}) — {}".format(
            ratio, OVERHEAD_CEILING, "ok" if ok else "REGRESSED"
        )
    )
    baseline = baselines.get("tap_loop")
    if baseline is None:
        messages.append("tap_loop: no committed baseline — ceiling only")
    else:
        limit = baseline["overhead_ratio"] * REGRESSION_TOLERANCE
        verdict = "ok" if ratio <= limit else "REGRESSED"
        if ratio > limit:
            ok = False
        messages.append(
            "tap_loop: ratio {:.3f} vs baseline {:.3f} "
            "(limit {:.3f}) — {}".format(
                ratio, baseline["overhead_ratio"], limit, verdict
            )
        )
    return ok, messages


def describe(result):
    return (
        "tap_loop: null p50 {:.3f}ms → instrumented p50 {:.3f}ms "
        "(ratio {:.3f}, {} spans); observe {:.0f}ns vs null {:.0f}ns".format(
            result["null_p50_seconds"] * 1e3,
            result["instrumented_p50_seconds"] * 1e3,
            result["overhead_ratio"],
            result["spans_recorded"],
            result["histogram_observe_seconds"] * 1e9,
            result["null_observe_seconds"] * 1e9,
        )
    )


# -- suite entry points ------------------------------------------------------


def test_instrumentation_never_doubles_the_live_loop():
    result = run_gate("suite", rounds=120)
    assert result["overhead_ratio"] <= OVERHEAD_CEILING, result
    # The instrumented run must actually have instrumented something.
    assert result["spans_recorded"] > 0


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small CI-sized run (fewer taps)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="CI gate: fail if instrumentation overhead exceeds the "
             "{:.1f}x ceiling or regresses >25%% past the committed "
             "baseline".format(OVERHEAD_CEILING),
    )
    parser.add_argument(
        "--baseline", action="store_true",
        help="record this run as the committed baseline",
    )
    args = parser.parse_args(argv)
    rounds = 120 if (args.quick or args.check) else 300

    if args.check:
        result = run_gate("quick", rounds=rounds)
        print(describe(result))
        ok, messages = check_regression(result, load_baselines())
        for message in messages:
            print("check:", message)
        return 0 if ok else 1

    result = run_workload(rounds=rounds)
    print(describe(result))
    label = (
        "baseline" if args.baseline else "quick" if args.quick else "full"
    )
    record(result, label)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
