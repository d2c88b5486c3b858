"""E8 — the price of durability (repro.resilience).

The same mixed-traffic soak as E7 runs twice — once on a plain host,
once with the write-ahead journal attached — and the headline number is
the journaling overhead in requests/second (the acceptance bar:
≤ 15 %).  A third phase measures recovery: the journaled host is dropped
on the floor, a fresh host recovers from the journal, and the per-boot
wall time plus the byte-identity of every recovered display are
recorded.

Runs two ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_resilience.py  # suite
    PYTHONPATH=src python benchmarks/bench_resilience.py --quick    # CI

Each measurement appends one JSON line to ``BENCH_resilience.json``.
"""

from __future__ import annotations

import json
import platform
import random
import shutil
import tempfile
import threading
import time
from pathlib import Path

from repro.obs.histo import percentile
from repro.apps.counter import SOURCE as COUNTER
from repro.api import Tracer
from repro.api import Journal
from repro.resilience import recover
from repro.serve.host import SessionHost

RESILIENCE_PATH = Path(__file__).parent.parent / "BENCH_resilience.json"

SESSION_KWARGS = {"fault_policy": "record", "backend": "tree"}


# The one shared nearest-rank implementation (repro.obs.histo) —
# identical math to the former local copy, so committed baselines in
# the BENCH_*.json trajectories stay comparable.
_percentile = percentile


def _drive(host, tokens, rng, ops, latencies):
    """One worker: journalable mixed traffic against random sessions.

    Taps hit the *increment* box by path, so every session's count — and
    therefore its HTML — diverges; byte-identical recovery then proves
    real state survived, not just a freshly booted page.
    """
    for _ in range(ops):
        token = rng.choice(tokens)
        roll = rng.random()
        started = time.perf_counter()
        if roll < 0.55:
            host.tap(token, path=[0])
        elif roll < 0.70:
            host.tap(token, text="reset")
        elif roll < 0.85:
            host.render(token)
        else:
            host.batch(token, [("tap", (0,))] * 3)
        latencies.append(time.perf_counter() - started)


def _soak(journal, sessions, pool, workers, ops_per_worker, seed):
    host = SessionHost(
        pool_size=pool, default_source=COUNTER, tracer=Tracer(),
        session_kwargs=dict(SESSION_KWARGS), journal=journal,
    )
    tokens = [host.create(title="soak") for _ in range(sessions)]
    shards = [[] for _ in range(workers)]
    threads = [
        threading.Thread(
            target=_drive,
            args=(host, tokens, random.Random(seed + n),
                  ops_per_worker, shards[n]),
        )
        for n in range(workers)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    latencies = sorted(lat for shard in shards for lat in shard)
    return host, tokens, {
        "requests": len(latencies),
        "elapsed_seconds": elapsed,
        "requests_per_second": len(latencies) / elapsed if elapsed else 0.0,
        "p50_seconds": _percentile(latencies, 0.50),
        "p95_seconds": _percentile(latencies, 0.95),
    }


def run_durability(sessions=40, pool=16, workers=4, ops_per_worker=100,
                   checkpoint_every=10, seed=20130616, recoveries=3):
    """Soak without and with the journal, then time recovery.

    Returns headline stats: baseline vs journaled req/s, the overhead
    fraction, recovery wall-time percentiles and whether every recovered
    display was byte-identical to the pre-crash one.
    """
    baseline_host, _, baseline = _soak(
        None, sessions, pool, workers, ops_per_worker, seed
    )

    journal_dir = tempfile.mkdtemp(prefix="bench-resilience-")
    try:
        journal = Journal(journal_dir, checkpoint_every=checkpoint_every)
        journaled_host, tokens, journaled = _soak(
            journal, sessions, pool, workers, ops_per_worker, seed
        )
        before = {
            token: journaled_host.render(token)[0] for token in tokens
        }

        # The crash: the journaled host is simply abandoned — nothing is
        # flushed or closed, exactly like a kill -9 — and a fresh host
        # recovers from the directory.
        recovery_seconds = []
        identical = True
        for _ in range(recoveries):
            rebuilt = SessionHost(
                pool_size=pool, default_source=COUNTER, tracer=Tracer(),
                session_kwargs=dict(SESSION_KWARGS),
            )
            started = time.perf_counter()
            report = recover(rebuilt, Journal(journal_dir))
            recovery_seconds.append(time.perf_counter() - started)
            rebuilt.journal = None  # stop appending; next loop recovers
            for token in tokens:
                html, _, _ = rebuilt.render(token)
                if html != before[token]:
                    identical = False
        recovery_seconds.sort()

        records = list(journal.read())
        journal_events = sum(
            1 for record in records if record["kind"] == "event"
        )
        journal_checkpoints = sum(
            1 for record in records if record["kind"] == "checkpoint"
        )
        overhead = 1.0 - (
            journaled["requests_per_second"]
            / baseline["requests_per_second"]
        ) if baseline["requests_per_second"] else 0.0
        return {
            "sessions": sessions,
            "pool_size": pool,
            "workers": workers,
            "requests": baseline["requests"],
            "baseline_rps": baseline["requests_per_second"],
            "journaled_rps": journaled["requests_per_second"],
            "journal_overhead": overhead,
            "baseline_p50_seconds": baseline["p50_seconds"],
            "journaled_p50_seconds": journaled["p50_seconds"],
            "baseline_p95_seconds": baseline["p95_seconds"],
            "journaled_p95_seconds": journaled["p95_seconds"],
            "journal_events": journal_events,
            "journal_checkpoints": journal_checkpoints,
            "recovered_sessions": report.sessions,
            "events_replayed": report.events_replayed,
            "recovery_p50_seconds": _percentile(recovery_seconds, 0.50),
            "recovery_p95_seconds": _percentile(recovery_seconds, 0.95),
            "recovered_byte_identical": identical,
        }
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)


def record(result, label):
    """Append one JSONL measurement to BENCH_resilience.json."""
    record_ = {
        "type": "bench",
        "name": "resilience_durability",
        "label": label,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
    }
    record_.update(result)
    with open(RESILIENCE_PATH, "a") as handle:
        handle.write(json.dumps(record_) + "\n")


def test_durability_overhead_and_recovery():
    result = run_durability(sessions=20, pool=16, workers=4,
                            ops_per_worker=50, recoveries=2)
    assert result["journal_events"] > 0
    assert result["recovered_sessions"] == 20
    assert result["recovered_byte_identical"]
    record(result, "suite")


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small CI-sized run (12 sessions, 2 workers)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        result = run_durability(sessions=12, pool=16, workers=2,
                                ops_per_worker=40, recoveries=2)
    else:
        result = run_durability()
    record(result, "quick" if args.quick else "full")
    print(
        "resilience: {requests} requests over {sessions} sessions — "
        "{baseline_rps:.0f} req/s plain vs {journaled_rps:.0f} req/s "
        "journaled ({journal_overhead:.1%} overhead), "
        "{journal_events} journal events, "
        "{journal_checkpoints} checkpoints; recovery of "
        "{recovered_sessions} sessions p50 "
        "{recovery_p50_ms:.1f}ms / p95 {recovery_p95_ms:.1f}ms, "
        "byte-identical: {recovered_byte_identical}".format(
            recovery_p50_ms=result["recovery_p50_seconds"] * 1e3,
            recovery_p95_ms=result["recovery_p95_seconds"] * 1e3,
            **result
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
