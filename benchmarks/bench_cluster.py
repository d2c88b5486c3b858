"""E8 — sharded cluster serving with one shared memo store per worker.

The workload is a **fleet opening the same app**: ``sessions`` sessions
of the function-gallery (every row and cell a memoizable helper call)
are created over HTTP and rendered, driven by concurrent client
threads.  Three server shapes run the identical workload:

* ``single``     — one ``SessionHost`` behind HTTP, the stock
  ``repro serve`` posture.  Every session pays the full cold render:
  per-session memo stores cannot share.
* ``cluster-1``  — one worker behind the cluster front (routing and
  journaling overhead, one memo store shared by the worker's sessions).
* ``cluster-4``  — four workers, per-worker write-ahead journals, one
  shared memo store in each worker.

The cluster's headline win on this workload is **work avoidance**, not
CPU parallelism: the first session on a worker to render a frame leaves
its memo entries in the worker's store, and every later session on that
worker revalidates them instead of re-evaluating.  That makes the
speedup largely machine-independent (it survives a single-core CI
runner), which is why the ``--check`` gate asserts the within-run
``cluster-4`` / ``single`` throughput ratio rather than any absolute
number.  On multi-core machines CPU parallelism stacks on top.

Appends to ``BENCH_cluster.json``; the committed ``baseline`` records
document the ≥2x aggregate req/s of ``cluster-4`` over ``single`` on
the recording machine.

Runs two ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_cluster.py  # suite
    PYTHONPATH=src python benchmarks/bench_cluster.py --quick    # CI
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import shutil
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from conftest import append_bench_record  # noqa: E402

from repro.obs.histo import percentile
from repro.apps.gallery import function_gallery_source
from repro.api import Tracer
from repro.cluster import ClusterRouter, ClusterSupervisor
from repro.serve.app import make_server
from repro.serve.host import SessionHost
from repro.stdlib.web import make_services, web_host_impls

BENCH_PATH = Path(__file__).parent.parent / "BENCH_cluster.json"

#: --check fails when cluster-4 stops beating single-process by this
#: factor on the shared-app fleet workload (within one run — no
#: machine-dependent absolute numbers).
CHECK_RATIO_FLOOR = 1.5


# The one shared nearest-rank implementation (repro.obs.histo) —
# identical math to the former local copy, so committed baselines in
# the BENCH_*.json trajectories stay comparable.
_percentile = percentile


def _connect(port):
    connection = http.client.HTTPConnection("127.0.0.1", port)
    connection.connect()
    connection.sock.setsockopt(
        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
    )
    return connection


def _post(connection, request):
    body = json.dumps(request).encode("utf-8")
    connection.request(
        "POST", "/", body=body,
        headers={"Content-Type": "application/json"},
    )
    with connection.getresponse() as response:
        return json.loads(response.read())


def _drive(port, session_count, latencies, failures):
    """One client thread: open ``session_count`` sessions of the app.

    Per session: create, render, then a conditional re-render (the
    304 path) — the "user opens the dashboard" trace.
    """
    connection = _connect(port)
    try:
        for _ in range(session_count):
            started = time.perf_counter()
            created = _post(connection, {"op": "create"})
            if not created.get("ok"):
                failures.append(created)
                continue
            token = created["token"]
            rendered = _post(connection, {"op": "render", "token": token})
            again = _post(connection, {
                "op": "render", "token": token,
                "generation": rendered.get("generation"),
            })
            if not (rendered.get("ok") and again.get("ok")
                    and again.get("not_modified")):
                failures.append(rendered)
            latencies.append(time.perf_counter() - started)
    finally:
        connection.close()


def _serve_and_drive(target, sessions, drivers):
    """HTTP-serve ``target``, run the fleet workload, return raw stats."""
    server = make_server(target)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    shards = [[] for _ in range(drivers)]
    failures = []
    per_driver = sessions // drivers
    threads = [
        threading.Thread(
            target=_drive, args=(port, per_driver, shards[n], failures)
        )
        for n in range(drivers)
    ]
    started = time.perf_counter()
    for worker in threads:
        worker.start()
    for worker in threads:
        worker.join()
    elapsed = time.perf_counter() - started
    stats = _post_once(port, {"op": "stats"})
    server.shutdown()
    server.server_close()
    latencies = sorted(lat for shard in shards for lat in shard)
    requests = 3 * len(latencies)
    return {
        "elapsed_seconds": elapsed,
        "requests": requests,
        "requests_per_second": requests / elapsed if elapsed else 0.0,
        "session_p50_seconds": _percentile(latencies, 0.50),
        "session_p95_seconds": _percentile(latencies, 0.95),
        "failures": len(failures),
        "stats": stats.get("stats", {}),
    }


def _post_once(port, request):
    connection = _connect(port)
    try:
        return _post(connection, request)
    finally:
        connection.close()


def run_mode(mode, sessions=32, rows=12, cols=6, drivers=4):
    """One server shape under the fleet workload; returns a result dict.

    ``mode`` is ``"single"`` or ``"cluster-<N>"``.
    """
    source = function_gallery_source(rows=rows, cols=cols)
    if mode == "single":
        host = SessionHost(
            pool_size=max(16, sessions + 1),
            default_source=source,
            make_host_impls=web_host_impls,
            make_services=make_services,
            tracer=Tracer(),
            session_kwargs={"backend": "tree"},
        )
        raw = _serve_and_drive(host, sessions, drivers)
        metrics = raw["stats"].get("metrics", {})
        supervisor = None
    else:
        workers = int(mode.split("-", 1)[1])
        supervisor = ClusterSupervisor(
            source=source, workers=workers, tracer=Tracer(),
            pool_size=max(16, sessions + 1),
            session_kwargs={"backend": "tree"},
        ).start()
        try:
            raw = _serve_and_drive(
                ClusterRouter(supervisor), sessions, drivers
            )
            metrics = raw["stats"].get("metrics", {})
        finally:
            journal_root = supervisor.journal_root
            supervisor.stop()
            shutil.rmtree(journal_root, ignore_errors=True)
    shared_hits = metrics.get("cluster.memo.shared_hits", 0)
    # Lookups into the workers' shared stores (the single host has
    # none): shared_hits / lookups is the fraction satisfied by another
    # session's work.
    memo_lookups = sum(
        (worker.get("shared_memo") or {}).get("lookups", 0)
        for worker in raw["stats"].get("workers", {}).values()
    )
    return {
        "mode": mode,
        "sessions": sessions,
        "rows": rows,
        "cols": cols,
        "drivers": drivers,
        "requests": raw["requests"],
        "failures": raw["failures"],
        "elapsed_seconds": raw["elapsed_seconds"],
        "requests_per_second": raw["requests_per_second"],
        "session_p50_seconds": raw["session_p50_seconds"],
        "session_p95_seconds": raw["session_p95_seconds"],
        "shared_hits": shared_hits,
        "memo_lookups": memo_lookups,
        # The warm-hit-rate gauge.
        "shared_hit_rate": (
            shared_hits / memo_lookups if memo_lookups else 0.0
        ),
    }


def run_suite(sessions=32, rows=12, cols=6, drivers=4):
    """All three shapes on one machine; returns (results, summary)."""
    results = [
        run_mode(mode, sessions=sessions, rows=rows, cols=cols,
                 drivers=drivers)
        for mode in ("single", "cluster-1", "cluster-4")
    ]
    by_mode = {result["mode"]: result for result in results}
    summary = {
        "mode": "summary",
        "sessions": sessions,
        "rows": rows,
        "cols": cols,
        "cpu_count": os.cpu_count() or 1,
        "cluster4_vs_single": (
            by_mode["cluster-4"]["requests_per_second"]
            / by_mode["single"]["requests_per_second"]
        ),
        "cluster4_vs_cluster1": (
            by_mode["cluster-4"]["requests_per_second"]
            / by_mode["cluster-1"]["requests_per_second"]
        ),
    }
    return results, summary


def record(result, label):
    """Append one JSONL measurement to BENCH_cluster.json."""
    append_bench_record(BENCH_PATH, "cluster_soak", label, **result)


def describe(result):
    if result["mode"] == "summary":
        return (
            "summary: cluster-4 is {:.2f}x single-process "
            "({:.2f}x cluster-1) on {} cpu(s)".format(
                result["cluster4_vs_single"],
                result["cluster4_vs_cluster1"],
                result["cpu_count"],
            )
        )
    return (
        "{}: {:.1f} req/s ({} sessions, p50 {:.1f}ms, shared hit rate "
        "{:.2f} of {} memo lookups)".format(
            result["mode"], result["requests_per_second"],
            result["sessions"], result["session_p50_seconds"] * 1e3,
            result["shared_hit_rate"], result["memo_lookups"],
        )
    )


# -- suite entry points ------------------------------------------------------


def run_gate(label, attempts=2):
    """Quick-sized run(s) gated on the within-run throughput ratio.

    Perf ratios on a loaded runner are noisy; the gate takes the best
    of ``attempts`` runs, which keeps a transient scheduling hiccup
    from failing CI while a real regression still fails every attempt.
    """
    best = None
    for _ in range(attempts):
        results, summary = run_suite(
            sessions=24, rows=10, cols=5, drivers=4
        )
        for result in results:
            record(result, label)
        record(summary, label)
        if best is None or (summary["cluster4_vs_single"]
                            > best[1]["cluster4_vs_single"]):
            best = (results, summary)
        if summary["cluster4_vs_single"] >= CHECK_RATIO_FLOOR:
            break
    return best


def test_cluster_beats_single_process_via_shared_memo():
    results, summary = run_gate("suite")
    by_mode = {result["mode"]: result for result in results}
    assert by_mode["cluster-4"]["failures"] == 0
    # The shared store must actually fire: later sessions on a worker
    # ride earlier sessions' renders.
    assert by_mode["cluster-4"]["shared_hits"] > 0
    assert by_mode["single"]["shared_hits"] == 0
    # Work avoidance, not parallelism: the gate holds on one core.
    assert summary["cluster4_vs_single"] >= CHECK_RATIO_FLOOR, summary


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small CI-sized run (24 sessions of a 10x5 gallery)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="CI gate: run quick and fail unless cluster-4 beats "
             "single-process by {:.1f}x within this run".format(
                 CHECK_RATIO_FLOOR
             ),
    )
    parser.add_argument(
        "--baseline", action="store_true",
        help="record this run as the committed baseline",
    )
    args = parser.parse_args(argv)
    if args.check:
        results, summary = run_gate("quick")
        for result in results:
            print(describe(result))
        print(describe(summary))
        ok = summary["cluster4_vs_single"] >= CHECK_RATIO_FLOOR
        shared = next(
            r for r in results if r["mode"] == "cluster-4"
        )["shared_hits"]
        print(
            "check: cluster-4 vs single {:.2f}x (floor {:.1f}x), "
            "{} shared hits — {}".format(
                summary["cluster4_vs_single"], CHECK_RATIO_FLOOR,
                shared, "ok" if ok and shared else "REGRESSED",
            )
        )
        return 0 if ok and shared else 1
    if args.quick:
        results, summary = run_suite(
            sessions=24, rows=10, cols=5, drivers=4
        )
    else:
        results, summary = run_suite(
            sessions=32, rows=12, cols=6, drivers=4
        )
    label = "baseline" if args.baseline else ("quick" if args.quick else "full")
    for result in results:
        print(describe(result))
        record(result, label)
    print(describe(summary))
    record(summary, label)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
