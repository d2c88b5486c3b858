"""E7 — multi-session server soak (repro.serve).

Hundreds of sessions squeeze through a small LRU pool while worker
threads drive mixed traffic — taps, coalesced batches, conditional
renders, live source edits, forced evictions.  Every request latency is
recorded; the headline numbers are throughput (requests/second) and the
p50/p95 latency split, appended to ``BENCH_serve.json`` so the server's
perf trajectory accumulates across PRs.

Expected shape: p50 is a resident-session tap (enqueue + one render);
p95 is dominated by rehydration — save/load is an UPDATE, so the tail
price *is* the edit-cycle price, and it grows with the session count to
pool size ratio, not with total traffic.

Runs two ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py   # suite
    PYTHONPATH=src python benchmarks/bench_serve.py --quick     # CI
"""

from __future__ import annotations

import random
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from conftest import append_bench_record  # noqa: E402

from repro.obs.histo import percentile
from repro.apps.counter import SOURCE as COUNTER
from repro.api import Tracer
from repro.serve.host import SessionHost

SERVE_PATH = Path(__file__).parent.parent / "BENCH_serve.json"

EDITED = COUNTER.replace('"count: "', '"taps: "')


# The one shared nearest-rank implementation (repro.obs.histo) —
# identical math to the former local copy, so committed baselines in
# the BENCH_*.json trajectories stay comparable.
_percentile = percentile


def _drive(host, tokens, rng, ops, latencies):
    """One worker: ``ops`` random requests against random sessions."""
    generations = {}
    for _ in range(ops):
        token = rng.choice(tokens)
        roll = rng.random()
        started = time.perf_counter()
        if roll < 0.45:
            host.tap(token, text="reset")
        elif roll < 0.65:
            _html, generation, _modified = host.render(
                token, if_generation=generations.get(token)
            )
            generations[token] = generation
        elif roll < 0.80:
            path = None
            with host.session(token) as entry:
                path = entry.session.runtime.find_text("reset")
            host.batch(token, [("tap", path)] * 3)
        elif roll < 0.90:
            host.edit_source(
                token, EDITED if rng.random() < 0.5 else COUNTER
            )
        else:
            host.evict(token)
        latencies.append(time.perf_counter() - started)


def run_soak(sessions=200, pool=16, workers=8, ops_per_worker=250,
             seed=20130616):
    """Drive mixed traffic through a pooled host; return headline stats.

    Taps land on ``"reset"`` — a label both the original and the edited
    source render, so requests succeed regardless of which code a
    session currently runs.
    """
    host = SessionHost(
        pool_size=pool, default_source=COUNTER, tracer=Tracer(),
        session_kwargs={"backend": "tree"},
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
    requests = len(latencies)
    metrics = host.metrics()
    return {
        "sessions": sessions,
        "pool_size": pool,
        "workers": workers,
        "requests": requests,
        "elapsed_seconds": elapsed,
        "requests_per_second": requests / elapsed if elapsed else 0.0,
        "p50_seconds": _percentile(latencies, 0.50),
        "p95_seconds": _percentile(latencies, 0.95),
        "max_seconds": latencies[-1] if latencies else 0.0,
        "sessions_evicted": metrics.get("sessions_evicted", 0),
        "sessions_rehydrated": metrics.get("sessions_rehydrated", 0),
        "renders_coalesced": metrics.get("renders_coalesced", 0),
    }


def record(result, label):
    """Append one JSONL measurement to BENCH_serve.json."""
    append_bench_record(SERVE_PATH, "serve_soak", label, **result)


def test_serve_soak_records_throughput():
    result = run_soak(sessions=120, pool=16, workers=8,
                      ops_per_worker=120)
    # The soak must actually have squeezed sessions through the pool.
    assert result["sessions_evicted"] >= 120 - 16
    assert result["sessions_rehydrated"] > 0
    assert result["requests"] == 8 * 120
    record(result, "suite")


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small CI-sized soak (40 sessions, pool 8)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        result = run_soak(sessions=40, pool=8, workers=4,
                          ops_per_worker=40)
    else:
        result = run_soak()
    record(result, "quick" if args.quick else "full")
    print(
        "serve soak: {requests} requests over {sessions} sessions "
        "(pool {pool_size}) in {elapsed_seconds:.2f}s — "
        "{requests_per_second:.0f} req/s, "
        "p50 {p50_seconds_ms:.2f}ms, p95 {p95_seconds_ms:.2f}ms, "
        "{sessions_evicted} evictions, "
        "{sessions_rehydrated} rehydrations".format(
            p50_seconds_ms=result["p50_seconds"] * 1e3,
            p95_seconds_ms=result["p95_seconds"] * 1e3,
            **result
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
