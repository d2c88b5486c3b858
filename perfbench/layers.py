"""Layer spans for the traced run, recorded from outside ``src/``.

:func:`install` wraps the public entry point of every layer the
benchmark attributes time to.  It runs inside the server processes
(loaded by ``perfbench/hook/sitecustomize.py``) and changes nothing in
the program but the wrapped names.  Each HTTP request (or, in a cluster
worker, each forwarded protocol request) is one span tree on its thread;
when the root closes, every span's self time (its duration minus the
interval its children cover) is observed into the process's own tracer
as the histogram ``perfbench.<layer>``.  ``GET /metrics`` already
exports and, in a cluster, merges those histograms, so run.py reads
per-layer sums and call counts from there and diffs two scrapes around
the measured window.  Counts (memo hits, reused boxes, rollbacks) go to
counters of the same tracer.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

from measure import self_times

PREFIX = "perfbench."


class SpanRecorder:
    """Per-thread span stacks; a finished root hands its spans to ``sink``.

    Only a layer in ``roots`` may open a request; calls into other
    wrapped layers outside any request pass through untimed, so a
    health probe or a background thread never pollutes the tables.
    """

    def __init__(self, sink, roots, clock=time.perf_counter):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._sink = sink
        self._clock = clock
        self.roots = set(roots)

    def annotate(self, **attrs):
        """Attach attributes to the request open on this thread, if any."""
        if getattr(self._local, "stack", None):
            self._local.attrs.update(attrs)

    def wrap(self, layer, fn):
        recorder = self
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = recorder._local
            stack = getattr(local, "stack", None)
            if not stack:
                if layer not in recorder.roots:
                    return fn(*args, **kwargs)
                stack = local.stack = []
                local.spans = []
                local.attrs = {}
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                local.spans.append((span_id, parent, layer, start, end))
                if not stack:
                    recorder._sink(local.spans, local.attrs)

        return traced


class TracerSink:
    """Publishes finished requests into the process's repro tracer."""

    def __init__(self):
        self.tracer = None
        self._lock = threading.Lock()

    def __call__(self, spans, attrs):
        tracer = self.tracer
        if tracer is None or attrs.get("skip"):
            return
        root = spans[-1]
        with self._lock:
            for layer, seconds in self_times(spans):
                tracer.observe(PREFIX + layer, seconds)
            tracer.observe(PREFIX + "inclusive." + root[2], root[4] - root[3])
            if attrs.get("op") == "edit_source" and \
                    attrs.get("status") == "applied":
                tracer.add(PREFIX + "applied_edits")
                tracer.add(
                    PREFIX + "applied_edit_core_checks",
                    sum(1 for span in spans if span[2] == "typing.core_check"),
                )

    def count(self, name, amount=1):
        tracer = self.tracer
        if tracer is not None and amount:
            with self._lock:
                tracer.add(PREFIX + name, amount)


def _patch(owner, name, wrapper):
    setattr(owner, name, wrapper(getattr(owner, name)))


def install():
    """Wrap every layer boundary the benchmark attributes time to."""
    import repro.boxes.diff as boxes_diff
    import repro.cluster.frontend as frontend
    import repro.cluster.supervisor as cluster_supervisor
    import repro.cluster.transport as transport
    import repro.cluster.worker as worker
    import repro.eval.backends as backends
    import repro.eval.machine as machine
    import repro.compile.machine as compiled_machine
    import repro.live.session as live_session
    import repro.resilience.journal as journal
    import repro.resilience.supervisor as resilience_supervisor
    import repro.serve.app as app
    import repro.serve.host as host
    import repro.serve.protocol as protocol_module
    import repro.surface.compile as surface_compile
    import repro.system.transitions as transitions

    # ``repro.system`` re-exports the function under the module's name.
    system_fixup = sys.modules["repro.system.fixup"]

    sink = TracerSink()
    # A worker has no HTTP layer: each forwarded request is a root.  In
    # any other process the protocol runs outside a POST only for
    # ``stats``, which the sink skips.
    recorder = SpanRecorder(sink, roots=("serve.http", "serve.protocol"))

    def span(layer):
        return lambda fn: recorder.wrap(layer, fn)

    # serve: HTTP handler, protocol decode, host op, host lock.
    def handler_factory(make_handler):
        @functools.wraps(make_handler)
        def wrapped(*args, **kwargs):
            handler = make_handler(*args, **kwargs)
            handler.do_POST = recorder.wrap("serve.http", handler.do_POST)
            return handler
        return wrapped

    _patch(app, "make_handler", handler_factory)

    def protocol(handle_request):
        # Annotates from inside the span: in a worker this is the root,
        # which publishes the moment it closes.
        @functools.wraps(handle_request)
        def annotated(host_, request):
            op = request.get("op") if isinstance(request, dict) else None
            recorder.annotate(op=op, skip=op == "stats")
            response = handle_request(host_, request)
            if isinstance(response, dict):
                recorder.annotate(status=response.get("status"))
            return response
        return recorder.wrap("serve.protocol", annotated)

    # The worker runs as ``__main__`` and imports the protocol module's
    # name after this hook has run; the HTTP face imported it before.
    for module in (protocol_module, app, worker):
        _patch(module, "handle_request", protocol)

    for op in ("create", "tap", "back", "edit_box", "batch", "edit_source",
               "render", "probe", "evict"):
        _patch(host.SessionHost, op, span("serve.host"))
    _patch(host._LockedSession, "__enter__", span("serve.host_wait"))

    # persist: eviction and rehydration.
    _patch(host, "save_image", span("persist.save_image"))
    _patch(host, "load_image", span("persist.load_image"))

    # render: the HTML document and its fingerprint.
    _patch(host, "render_html", span("render.html"))
    _patch(host, "display_fingerprint", span("render.fingerprint"))

    # surface / typing / system / compile: the edit path.
    _patch(live_session, "compile_source", span("surface.compile"))
    _patch(surface_compile, "code_problems", span("typing.core_check"))
    _patch(transitions, "code_problems", span("typing.core_check"))
    _patch(transitions, "fixup", span("system.fixup"))
    _patch(system_fixup, "fixup", span("system.fixup"))
    _patch(transitions.System, "update", span("system.update"))
    for backend in (backends.TreeBackend, backends.CompiledBackend):
        _patch(backend, "compile", span("compile.code_version"))

    # eval: handlers and renders, on either machine.
    for machine_class in (machine.BigStep, compiled_machine.Compiled):
        _patch(machine_class, "run_state", span("eval.handler"))
        _patch(machine_class, "run_render", span("eval.render"))

    # incremental: memo hits of every render, and of the first render
    # after an UPDATE.
    def counting_render(render):
        @functools.wraps(render)
        def wrapped(self):
            after_update = self._render_after_update
            tree = render(self)
            stats = self.last_render_stats
            if self.render_memo is not None and stats:
                sink.count("memo_hits", stats["hits"])
                sink.count("memo_misses", stats["misses"])
                if after_update:
                    sink.count("update_hits", stats["hits"])
                    sink.count("update_misses", stats["misses"])
            return tree
        return wrapped

    _patch(transitions.System, "render", counting_render)

    # boxes: the Section 5 reuse pass and how much it shared.
    def counting_reuse(reuse):
        timed = recorder.wrap("boxes.reuse", reuse)

        @functools.wraps(reuse)
        def wrapped(old, new, stats=None):
            tree = timed(old, new, stats)
            if stats is not None:
                sink.count("boxes_reused", stats.reused_boxes)
                sink.count("boxes_total", stats.total_boxes)
            return tree
        return wrapped

    _patch(boxes_diff, "reuse", counting_reuse)

    # resilience: rollbacks and journal appends.
    def counting_update(apply_update):
        @functools.wraps(apply_update)
        def wrapped(self, *args, **kwargs):
            outcome = apply_update(self, *args, **kwargs)
            if outcome.rolled_back:
                sink.count("rollbacks")
            return outcome
        return wrapped

    _patch(resilience_supervisor.Supervisor, "apply_update", counting_update)
    _patch(journal.Journal, "record_event", span("resilience.journal_append"))

    # cluster: the front's routing and its frame round trips.
    _patch(frontend.ClusterRouter, "dispatch", span("cluster.front"))
    _patch(transport.ClientPool, "request", span("cluster.frame"))

    # Where everything goes: the tracer of the host (single host, worker)
    # or of the cluster supervisor (front) -- the one /metrics exports.
    # Patched last, so ``perfbench.hooked`` proves the rest is in place.
    def capturing(init):
        @functools.wraps(init)
        def wrapped(self, *args, **kwargs):
            init(self, *args, **kwargs)
            sink.tracer = self.tracer
            sink.count("hooked")
        return wrapped

    _patch(host.SessionHost, "__init__", capturing)
    _patch(cluster_supervisor.ClusterSupervisor, "__init__", capturing)
    return recorder
