"""The live-loop benchmark: real HTTP traffic into ``python -m repro serve``.

Run from the repository root::

    python3 perfbench/run.py --workload live_edit --seed 1 --seconds 10 --trace 0

One client process drives a server started by the CLI, in its own
process, over one keep-alive connection.  Load is closed-loop: the
client sends its next request when the last reply arrives.

* ``--trace 0`` measures the end-to-end metrics with tracing off.  The
  server is set up ``SETUP_REPEATS`` times (launch, ``/healthz``, the
  workload's initial sessions, an untimed warm-up); ``setup_s`` is the
  median and the last server is measured.  Step latencies and
  throughput are in run time: the processor time the client thread and
  every server thread ran during the step (``server.CpuMeter``).  On an
  idle machine that is the step's wall time (they agree within a few
  percent); on a busy one it leaves out the time the step's threads
  waited for a processor behind other programs or, on a virtual machine
  that accounts steal time, while the host ran other guests.  It still
  moves with the speed at which the host executes, which drifts on a
  shared host.  Wall-time percentiles are printed beside them.
* ``--trace 1`` measures throughput untraced for half the time, then
  restarts the server with ``perfbench/hook`` on its ``PYTHONPATH`` (the
  layer wrappers of ``perfbench/layers.py``) and measures per-layer
  metrics for the other half.  The run fails when the layers do not
  reconcile with the client's end-to-end time.

Every run checks every reply, the expected status of every edit, that
display generations only grow, and, after the timed window, replays a
seeded sample of sessions through the faithful small-step machine and
compares its HTML byte for byte with the last HTML served.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()

SETUP_REPEATS = 3
WARMUP_STEPS = 40          # untimed, inside setup_s
ORACLE_SESSIONS = 3        # replayed after the window, one a programmer's
#: obs.unattributed_share above this fails the traced run.
UNATTRIBUTED_TOLERANCE = 0.10
#: Layers whose spans the front process records.  On a single host every
#: layer runs there; in a cluster the rest run in the workers.
CLUSTER_FRONT_LAYERS = ("serve.http", "cluster.front", "cluster.frame")
TIMED_LAYERS = (
    "serve.http", "serve.protocol", "serve.host", "serve.host_wait",
    "persist.save_image", "persist.load_image", "render.html",
    "render.fingerprint", "surface.compile", "typing.core_check",
    "system.fixup", "system.update", "compile.code_version",
    "eval.handler", "eval.render", "boxes.reuse",
    "resilience.journal_append", "cluster.front", "cluster.frame",
)
LATENCY_KINDS = (("edit", "edit_to_display"), ("interaction", "interaction"),
                 ("open", "open"))


# -- one server, set up and driven -------------------------------------------


class Run:
    """A server plus the one connection (and its sessions) that drives it."""

    def __init__(self, workload, seed, traced=False, tag="server"):
        from client import Client, Sessions, Tally
        from server import WORK_DIR, Server
        from workloads import WORKLOADS

        plan, source, args = WORKLOADS[workload]
        self.workload = workload
        self.source = source
        app_path = os.path.join(ROOT, WORK_DIR, workload + ".live")
        os.makedirs(os.path.dirname(app_path), exist_ok=True)
        with open(app_path, "w") as handle:
            handle.write(source)
        self.setup = Tally()
        self.warmup = Tally()
        started = time.perf_counter()
        self.server = Server(ROOT, app_path, args, traced=traced, tag=tag)
        try:
            self.client = Client(self.server.wait_healthy(), Sessions())
            setup, self.stream = plan(seed)
            for step in setup:
                self.client.run_step(step, self.setup)
            for _ in range(WARMUP_STEPS):
                self.client.run_step(next(self.stream), self.warmup)
            self.setup_seconds = time.perf_counter() - started
        except BaseException:
            self.stop()
            raise

    def measure(self, seconds):
        """Drive the closed loop for ``seconds``; returns a Window."""
        from client import Tally

        client = self.client
        window = Window(Tally())
        client.reset_counts()
        # Every server process exists by now (a cluster's workers and
        # cache server start before /healthz answers).
        client.meter = self.server.cpu_meter()
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            step = next(self.stream)
            window.steps.append((step[0], client.run_step(step, window.total)))
        window.elapsed = time.perf_counter() - started
        client.meter = None
        window.collect(client)
        return window

    def oracle(self, seed):
        """Faithful replays of a seeded sample; returns the mismatches."""
        from oracle import replay_html

        rng = random.Random("oracle:{}:{}".format(self.workload, seed))
        known = self.client.sessions
        names = sorted(name for name in known.html if name in known.log)
        programmers = [name for name in names
                       if name.startswith("programmer")]
        others = [name for name in names if name not in programmers]
        sample = rng.sample(programmers, min(len(programmers), 1))
        sample += rng.sample(others, min(len(others),
                                         ORACLE_SESSIONS - len(sample)))
        mismatches = []
        for name in sample:
            expected = replay_html(known.log[name], self.source,
                                   known.tokens[name])
            if expected != known.html[name]:
                mismatches.append("oracle HTML differs for session " + name)
        return mismatches

    def failures(self):
        return list(self.client.failures) if hasattr(self, "client") else []

    def stop(self):
        if hasattr(self, "client"):
            self.client.close()
        self.server.stop()


class Window:
    """What one measured window saw."""

    def __init__(self, total):
        self.total = total
        self.steps = []
        self.elapsed = 0.0

    def collect(self, client):
        # Wall and run seconds of every step that succeeded, by kind.
        self.samples, self.run_samples = {}, {}
        for kind, timed in self.steps:
            if timed is not None:
                self.samples.setdefault(kind, []).append(timed[0])
                self.run_samples.setdefault(kind, []).append(timed[1])
        self.rtt_seconds = client.rtt_seconds
        self.renders = client.renders
        self.not_modified = client.not_modified
        self.html_bytes = client.html_bytes
        self.html_renders = client.html_renders
        self.statuses = dict(client.statuses)

    @property
    def throughput(self):
        """Requests per second of wall time."""
        return self.total.succeeded / self.elapsed if self.elapsed else 0.0

    @property
    def run_throughput(self):
        """Requests per second of run time (client plus server)."""
        ran = sum(sum(values) for values in self.run_samples.values())
        return self.total.succeeded / ran if ran else 0.0


# -- posture ------------------------------------------------------------------


class _Captured(Exception):
    pass


def _capture(**kwargs):
    raise _Captured(kwargs)


def server_posture(workload):
    """The session posture ``repro serve`` resolves for this workload.

    Runs the CLI's own serve path in-process up to the point where it
    constructs its host (or, for a cluster, a worker's host), and reads
    the arguments it passes: the defaults are resolved by the same code
    the server runs, so a change of default shows up here.
    """
    import repro.cli as cli
    import repro.cluster as cluster
    import repro.cluster.worker as worker
    import repro.serve.host as host
    from repro.eval.backends import resolve_backend
    from server import WORK_DIR
    from workloads import WORKLOADS

    _plan, _source, args = WORKLOADS[workload]
    app = os.path.join(ROOT, WORK_DIR, workload + ".live")
    saved = (host.SessionHost, cluster.ClusterSupervisor)
    host.SessionHost = cluster.ClusterSupervisor = _capture
    try:
        with open(os.devnull, "w") as quiet:
            cli.main(["serve", app, "--port", "0"] + args, out=quiet)
    except _Captured as captured:
        kwargs = captured.args[0]
    finally:
        host.SessionHost, cluster.ClusterSupervisor = saved
    posture = {"workers": kwargs.get("workers", 0)}
    if "workers" in kwargs:
        config = {key: kwargs.get(key) for key in (
            "pool_size", "session_kwargs", "fault_policy", "fuel",
            "deadline", "latency", "source")}
        config["slot"] = 0
        saved_host = worker.SessionHost
        worker.SessionHost = _capture
        try:
            worker.Worker(config)
        except _Captured as captured:
            kwargs = captured.args[0]
        finally:
            worker.SessionHost = saved_host
    session = kwargs.get("session_kwargs") or {}
    posture.update({
        "backend": resolve_backend(session.get("backend")).name,
        "reuse_boxes": bool(session.get("reuse_boxes")),
        "memo_render": bool(session.get("memo_render")),
        "supervised": bool(session.get("supervised")),
        "pool_size": kwargs.get("pool_size"),
    })
    return posture


def stamp(args):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "posture": server_posture(args.workload),
    }


# -- metrics ------------------------------------------------------------------


def end_to_end(window, setup_seconds, rss_mb, report):
    from measure import percentile

    metrics = {}
    for kind, name in LATENCY_KINDS:
        for q in (50, 95):
            value, count, beyond = percentile(
                window.run_samples.get(kind, []), q)
            wall = percentile(window.samples.get(kind, []), q)[0]
            key = "{}_p{}_ms".format(name, q)
            metrics[key] = (None if value is None else value * 1e3, "ms")
            report.append("{} from {} samples ({} beyond); wall {}".format(
                key, count, beyond, "none" if wall is None
                else "{:.3f} ms".format(wall * 1e3)))
    metrics["throughput_rps"] = (window.run_throughput, "1/s")
    report.append("throughput_rps wall {:.3f} 1/s".format(window.throughput))
    metrics["setup_s"] = (setup_seconds, "s")
    metrics["server_rss_mb"] = (rss_mb, "MB")
    return metrics


def _mangle(name):
    return "repro_" + name.replace(".", "_").replace("-", "_")


def per_layer(before, after, window, untraced_rps, cluster):
    """Per-layer metrics from two ``/metrics`` scrapes around a window."""
    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    def histogram(layer):
        base = _mangle("perfbench." + layer) + "_latency_seconds"
        return delta(base + "_sum"), delta(base + "_count")

    def mean_ms(layer):
        total, count = histogram(layer)
        return total / count * 1000.0 if count else 0.0

    def counter(name):
        return delta(_mangle(name) + "_total")

    def ratio(part, whole):
        return part / whole if whole else 0.0

    requests = window.total.succeeded
    root_total, _ = histogram("inclusive.serve.http")
    wire = window.rtt_seconds - root_total
    front = CLUSTER_FRONT_LAYERS if cluster else TIMED_LAYERS
    attributed = sum(histogram(layer)[0] for layer in front) + wire
    client_total = sum(sum(values) for values in window.samples.values())
    edits = sum(window.statuses.values())
    hits, misses = counter("perfbench.memo_hits"), counter(
        "perfbench.memo_misses")
    update_hits = counter("perfbench.update_hits")
    shared = counter("cluster.memo.shared_hits")
    # The workers stop asking the cache tier after a streak of misses,
    # so a window may hold no gets: time them over the server's life.
    cache_sum = after.get("repro_cache_get_latency_seconds_sum", 0.0)
    cache_count = after.get("repro_cache_get_latency_seconds_count", 0.0)
    metrics = {
        "serve.wire_ms": (ratio(wire, requests) * 1000.0, "ms"),
        "serve.http_self_ms": (mean_ms("serve.http"), "ms"),
        "serve.protocol_self_ms": (mean_ms("serve.protocol"), "ms"),
        "serve.host_self_ms": (mean_ms("serve.host"), "ms"),
        "serve.host_wait_ms": (mean_ms("serve.host_wait"), "ms"),
        "serve.not_modified_share": (
            ratio(window.not_modified, window.renders), "ratio"),
        "serve.html_short_circuit_share": (
            ratio(counter("incremental.html_short_circuits"),
                  window.renders), "ratio"),
        "surface.compile_ms": (mean_ms("surface.compile"), "ms"),
        "surface.rejected_share": (
            ratio(window.statuses.get("rejected", 0), edits), "ratio"),
        "typing.core_check_ms": (mean_ms("typing.core_check"), "ms"),
        "typing.core_checks_per_edit": (
            ratio(counter("perfbench.applied_edit_core_checks"),
                  counter("perfbench.applied_edits")), "calls/edit"),
        "system.fixup_ms": (mean_ms("system.fixup"), "ms"),
        "system.update_self_ms": (mean_ms("system.update"), "ms"),
        "eval.handler_ms": (mean_ms("eval.handler"), "ms"),
        "eval.render_ms": (mean_ms("eval.render"), "ms"),
        "compile.code_version_ms": (mean_ms("compile.code_version"), "ms"),
        "incremental.memo_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "incremental.update_reuse_ratio": (
            ratio(update_hits,
                  update_hits + counter("perfbench.update_misses")),
            "ratio"),
        "boxes.reuse_ms": (mean_ms("boxes.reuse"), "ms"),
        "boxes.reused_share": (
            ratio(counter("perfbench.boxes_reused"),
                  counter("perfbench.boxes_total")), "ratio"),
        "render.html_ms": (mean_ms("render.html"), "ms"),
        "render.fingerprint_ms": (mean_ms("render.fingerprint"), "ms"),
        "render.html_kb": (
            ratio(window.html_bytes, window.html_renders) / 1024.0, "KiB"),
        "persist.save_image_ms": (mean_ms("persist.save_image"), "ms"),
        "persist.load_image_ms": (mean_ms("persist.load_image"), "ms"),
        "persist.rehydrate_share": (
            ratio(counter("sessions_rehydrated"), requests), "ratio"),
        "resilience.journal_append_ms": (
            mean_ms("resilience.journal_append"), "ms"),
        "resilience.rollbacks": (counter("perfbench.rollbacks"), "count"),
        "cluster.front_self_ms": (mean_ms("cluster.front"), "ms"),
        "cluster.frame_roundtrip_ms": (mean_ms("cluster.frame"), "ms"),
        "cluster.cache_get_ms": (
            ratio(cache_sum, cache_count) * 1000.0, "ms"),
        "cluster.memo_shared_hit_ratio": (
            ratio(shared, shared + counter("cluster.memo.publishes")),
            "ratio"),
        "cluster.memo_remote_hits": (
            counter("cluster.memo.remote_hits"), "count"),
        "obs.trace_overhead_ratio": (
            ratio(window.run_throughput, untraced_rps), "ratio"),
        "obs.unattributed_share": (
            1.0 - ratio(attributed, client_total), "ratio"),
    }
    return metrics


# -- the two kinds of run -------------------------------------------------------


def run_untraced(args, phases, report, problems):
    setups = []
    for repeat in range(SETUP_REPEATS):
        run = Run(args.workload, args.seed, tag="setup{}".format(repeat))
        setups.append(run.setup_seconds)
        phases["setup"].add(run.setup)
        phases["warmup"].add(run.warmup)
        if repeat < SETUP_REPEATS - 1:
            report.extend(run.failures())
            run.stop()
    try:
        window = run.measure(args.seconds)
        rss = run.server.peak_rss_mb()
    finally:
        run.stop()
    phases["measured"].add(window.total)
    report.extend(run.failures())
    problems.extend(run.oracle(args.seed))
    report.append("setup_s samples: " + ", ".join(
        "{:.3f}".format(value) for value in setups))
    return window, end_to_end(window, statistics.median(setups), rss, report)


def run_traced(args, phases, report, problems):
    from workloads import WORKLOADS

    half = args.seconds / 2.0
    plain = Run(args.workload, args.seed, tag="untraced")
    try:
        plain_window = plain.measure(half)
    finally:
        plain.stop()
    report.extend(plain.failures())
    run = Run(args.workload, args.seed, traced=True, tag="traced")
    try:
        before = run.server.metrics()
        window = run.measure(half)
        after = run.server.metrics()
    finally:
        run.stop()
    for phase, tally in (("setup", plain.setup), ("setup", run.setup),
                         ("warmup", plain.warmup), ("warmup", run.warmup),
                         ("measured", plain_window.total),
                         ("measured", window.total)):
        phases[phase].add(tally)
    report.extend(run.failures())
    problems.extend(run.oracle(args.seed))
    cluster = "--cluster-workers" in WORKLOADS[args.workload][2]
    metrics = per_layer(before, after, window, plain_window.run_throughput,
                        cluster)
    if not after.get("repro_perfbench_hooked_total"):
        problems.append("the layer hook did not load in the server")
    unattributed = metrics["obs.unattributed_share"][0]
    if abs(unattributed) > UNATTRIBUTED_TOLERANCE:
        problems.append("layers do not reconcile: unattributed share "
                        "{:.3f} exceeds {}".format(unattributed,
                                                   UNATTRIBUTED_TOLERANCE))
    # Each edit's status was checked against the generator's expectation.
    faulting = window.statuses.get("rolled_back", 0)
    if metrics["resilience.rollbacks"][0] != faulting:
        problems.append("{} rollbacks for {} faulting edits".format(
            metrics["resilience.rollbacks"][0], faulting))
    return window, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("live_edit", "cluster_fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from client import Tally

    phases = {"setup": Tally(), "warmup": Tally(), "measured": Tally()}
    report, problems = [], []
    measure_run = run_traced if args.trace else run_untraced
    window, metrics = measure_run(args, phases, report, problems)
    sent = sum(tally.sent for tally in phases.values())
    failed = sum(tally.failed for tally in phases.values()) + len(problems)

    print("posture " + json.dumps(stamp(args), sort_keys=True))
    for phase, tally in phases.items():
        print("phase {}: {}".format(phase, json.dumps(tally.as_dict())))
    print("edit statuses: " + json.dumps(window.statuses, sort_keys=True))
    print("error_rate {:.6f} ({} failed of {} attempted)".format(
        failed / sent if sent else 1.0, failed, sent))
    for line in report + ["check failed: " + p for p in problems]:
        print(line)
    for name, (value, unit) in metrics.items():
        print("{} = {} {}".format(name, value, unit))
    missing = [name for name, (value, _unit) in metrics.items()
               if value is None]
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": max(sent, 1),
        "failed": failed,
        "metrics": {name: {"value": value if value is not None else 0.0,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
