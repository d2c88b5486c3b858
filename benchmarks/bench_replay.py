"""E10 — checkpoint-assisted deterministic replay (repro.provenance).

Measures the *time-travel latency*: the wall time of materializing a
live session as of the end of a recorded journal, cold versus
checkpoint-assisted:

* **cold** — ``use_checkpoint=False``: replay starts from the create
  record and re-applies every journaled event, the trace-replay
  baseline of the paper's §2;
* **assisted** — ``use_checkpoint=True``: replay loads the newest image
  checkpoint at or before the target seq and re-applies only the tail,
  bounding work by ``checkpoint_every`` instead of by session age.

Two workloads over the counter app, differing only in journal length:

* ``short`` — 20 events with a checkpoint every 10 (shallow tail; the
  assisted path must at least not lose);
* ``long`` — 150 events with a checkpoint every 25 (the case
  checkpoints exist for: the tail stays ≤ 25 events while the cold
  replay grows with the whole session).

Results append to ``BENCH_replay.json`` (one JSON object per line).

Runs three ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_replay.py   # suite
    PYTHONPATH=src python benchmarks/bench_replay.py --quick     # CI
    PYTHONPATH=src python benchmarks/bench_replay.py --check     # CI gate

``--check`` is the regression gate: it compares the measured
assisted/cold p50 ratio against the most recent committed ``baseline``
record per workload and fails (exit 1) if the ratio regressed by more
than 25%, or if the assisted replay stops beating the cold one on the
``long`` workload at all.  Comparing the *ratio* — not absolute
seconds — keeps the gate machine-independent: runners disagree on
milliseconds but agree on how much of the replay the checkpoint elides.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from conftest import append_bench_record, latest_baselines  # noqa: E402

from repro.obs.histo import percentile
from repro.apps.counter import SOURCE
from repro.provenance import replay_to
from repro.resilience.journal import Journal
from repro.serve.host import SessionHost
from repro.stdlib.web import make_services, web_host_impls

BENCH_PATH = Path(__file__).parent.parent / "BENCH_replay.json"

#: --check fails when assisted/cold p50 regresses past this factor.
REGRESSION_TOLERANCE = 1.25

WORKLOADS = {
    # Event counts are deliberately not multiples of checkpoint_every,
    # so the assisted path always replays a real (non-empty) tail.
    # Only ``long`` is gated: on the short journal both replays finish
    # in single-digit milliseconds and the ratio is runner noise.
    "short": {"events": 23, "checkpoint_every": 10, "gate": False},
    "long": {"events": 157, "checkpoint_every": 25, "gate": True},
}

# The one shared nearest-rank implementation (repro.obs.histo) —
# identical math to the former local copy, so committed baselines in
# the BENCH_*.json trajectories stay comparable.
_percentile = percentile


def _record_journal(directory, events, checkpoint_every):
    """Drive a journaled counter session with ``events`` taps."""
    journal = Journal(directory, checkpoint_every=checkpoint_every)
    host = SessionHost(
        default_source=SOURCE,
        make_host_impls=web_host_impls,
        make_services=make_services,
        journal=journal,
        session_kwargs={"backend": "tree"},
    )
    token = host.create()
    for step in range(events):
        # Alternate in a reset now and then so replay exercises more
        # than one handler; the counter still ends deterministic.
        host.tap(token, path=[1] if step % 17 == 16 else [0])
    return token


def _measure(directory, token, use_checkpoint, rounds):
    """p50/p95 wall seconds of one full ``replay_to`` materialization."""
    timings = []
    events = checkpoint_seq = None
    for _ in range(rounds):
        journal = Journal(directory)
        started = time.perf_counter()
        result = replay_to(
            journal, token,
            use_checkpoint=use_checkpoint,
            make_host_impls=web_host_impls,
            make_services=make_services,
            session_kwargs={"backend": "tree"},
        )
        timings.append(time.perf_counter() - started)
        events = result.events_replayed
        checkpoint_seq = result.checkpoint_seq
    timings.sort()
    return {
        "p50_seconds": _percentile(timings, 0.50),
        "p95_seconds": _percentile(timings, 0.95),
        "events_replayed": events,
        "checkpoint_seq": checkpoint_seq,
    }


def run_workload(name, rounds=10):
    """Cold-vs-assisted comparison for one workload; the record body."""
    config = WORKLOADS[name]
    directory = tempfile.mkdtemp(prefix="bench_replay_")
    try:
        token = _record_journal(
            directory, config["events"], config["checkpoint_every"]
        )
        cold = _measure(directory, token, use_checkpoint=False, rounds=rounds)
        assisted = _measure(
            directory, token, use_checkpoint=True, rounds=rounds
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    ratio = (
        assisted["p50_seconds"] / cold["p50_seconds"]
        if cold["p50_seconds"] else 1.0
    )
    return {
        "workload": name,
        "rounds": rounds,
        "journal_events": config["events"],
        "checkpoint_every": config["checkpoint_every"],
        "cold_p50_seconds": cold["p50_seconds"],
        "cold_p95_seconds": cold["p95_seconds"],
        "cold_events_replayed": cold["events_replayed"],
        "assisted_p50_seconds": assisted["p50_seconds"],
        "assisted_p95_seconds": assisted["p95_seconds"],
        "assisted_events_replayed": assisted["events_replayed"],
        "checkpoint_seq": assisted["checkpoint_seq"],
        "assisted_cold_ratio": ratio,
    }


def record(result, label):
    """Append one JSONL measurement to BENCH_replay.json."""
    append_bench_record(BENCH_PATH, "journal_replay", label, **result)


def load_baselines(path=BENCH_PATH):
    """workload → most recent committed ``baseline`` record."""
    return latest_baselines(path, "journal_replay")


def check_regression(results, baselines):
    """(ok, messages): ratio-vs-baseline gate for every workload."""
    ok = True
    messages = []
    for result in results:
        name = result["workload"]
        if not WORKLOADS[name].get("gate"):
            messages.append(
                "{}: informational only (ratio {:.3f})".format(
                    name, result["assisted_cold_ratio"]
                )
            )
            continue
        if result["assisted_cold_ratio"] >= 1.0:
            ok = False
            messages.append(
                "{}: assisted replay no longer beats cold "
                "(ratio {:.3f}) — REGRESSED".format(
                    name, result["assisted_cold_ratio"]
                )
            )
        baseline = baselines.get(name)
        if baseline is None:
            messages.append(
                "{}: no committed baseline — skipping".format(name)
            )
            continue
        current = result["assisted_cold_ratio"]
        committed = baseline["assisted_cold_ratio"]
        limit = committed * REGRESSION_TOLERANCE
        verdict = "ok" if current <= limit else "REGRESSED"
        if current > limit:
            ok = False
        messages.append(
            "{}: assisted/cold p50 ratio {:.3f} vs baseline {:.3f} "
            "(limit {:.3f}) — {}".format(
                name, current, committed, limit, verdict
            )
        )
    return ok, messages


# -- suite entry points ------------------------------------------------------


def test_long_journal_checkpoint_beats_cold_replay():
    result = run_workload("long", rounds=4)
    # The acceptance bar: on a long journal the checkpoint-assisted
    # replay must replay a bounded, non-empty tail and win on wall time.
    assert 0 < result["assisted_events_replayed"] <= result["checkpoint_every"]
    assert result["cold_events_replayed"] == result["journal_events"]
    assert result["assisted_cold_ratio"] < 1.0, result
    record(result, "suite")


def test_short_journal_assisted_replays_a_tail():
    result = run_workload("short", rounds=3)
    assert result["assisted_events_replayed"] <= result["checkpoint_every"]
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
        help="compare against the committed baseline records; exit 1 "
             "on a >25% assisted/cold ratio regression or if assisted "
             "replay stops beating cold on the long workload",
    )
    parser.add_argument(
        "--baseline", action="store_true",
        help="record the results as the committed baseline",
    )
    args = parser.parse_args(argv)
    rounds = 5 if (args.quick or args.check) else 15

    results = [
        run_workload("short", rounds=rounds),
        run_workload("long", rounds=rounds),
    ]
    for result in results:
        print(
            "{workload}: cold p50 {cold:.2f}ms ({cold_events} events) → "
            "assisted p50 {assisted:.2f}ms ({assisted_events} events, "
            "checkpoint seq {seq}) — ratio {ratio:.3f}".format(
                workload=result["workload"],
                cold=result["cold_p50_seconds"] * 1e3,
                cold_events=result["cold_events_replayed"],
                assisted=result["assisted_p50_seconds"] * 1e3,
                assisted_events=result["assisted_events_replayed"],
                seq=result["checkpoint_seq"],
                ratio=result["assisted_cold_ratio"],
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
