"""Tracing and metrics for the live runtime (``repro.obs``).

The paper's pitch is *continuous feedback*: an edit should reach the
display in a blink, and the responsiveness claims of Section 6 are only
meaningful if we can see where every edit-to-display cycle spends its
time.  This module is the measurement substrate:

* :class:`Span` — one timed region (``render``, ``update``, ``fixup``…)
  with wall-clock start/end, free-form attributes and a parent link, so
  finished spans form a tree mirroring the dynamic nesting of the
  transitions that produced them;
* :class:`Tracer` — hands out nestable spans
  (``with tracer.span("render", page=p): ...``) and holds monotonic
  **counters** (``tracer.add("boxes_rendered", n)``) and last-write-wins
  **gauges**; finished spans are fanned out to pluggable sinks
  (:mod:`repro.obs.sinks`);
* :class:`NullTracer` — the default everywhere.  Every method is a
  no-op returning shared singletons, so an uninstrumented run pays about
  one attribute lookup and one call per *transition* (never per
  evaluation step) — tracing sits outside the semantics exactly like the
  Section 5 reuse optimization sits outside the formal model;
* :class:`Stopwatch` — the one shared wall-clock helper; every
  ``wall_seconds`` reported anywhere in the repository (live session,
  baselines, benchmarks) comes from this single code path.

Nothing here imports anything outside the standard library.
"""

from __future__ import annotations

import itertools
import time

from .histo import NULL_HISTOGRAM, Histogram

#: The single clock used for every duration in the repository.
clock = time.perf_counter

#: The metric catalog: counters the instrumented layers maintain.  A
#: :class:`Tracer` pre-registers them at zero so metric tables always
#: show the full catalog (a zero is informative: "memo never fired").
CATALOG = (
    "boxes_rendered",
    "memo_hits",
    "memo_misses",
    "store_entries_deleted",
    "stack_frames_fixed",
    "events_queued",
    "eval_steps",
    "faults_recorded",
    # repro.serve — the multi-session server (docs/SERVER.md).
    "sessions_created",
    "sessions_evicted",
    "sessions_rehydrated",
    "renders_coalesced",
    "bytes_served",
    # repro.resilience — supervision, journaling, chaos
    # (docs/RESILIENCE.md).
    "faults_injected",
    "rollbacks",
    "journal_events",
    "journal_checkpoints",
    "journal_replays",
    "journal_fsyncs",
    "sessions_quarantined",
    # repro.incremental — the update-surviving memo store (docs/PERF.md).
    # (The companion "incremental.update_reuse_ratio" is a gauge, set per
    # post-update render, not a catalog counter.)
    "incremental.memo_evictions",
    "incremental.memo_miss.cold",
    "incremental.memo_miss.read_values",
    "incremental.entries_carried",
    "incremental.update_hits",
    "incremental.update_misses",
    "incremental.replayed_boxes",
    "incremental.html_short_circuits",
    # repro.surface — the compile pipeline (docs/PERF.md): programs
    # served whole from the intern table, and the declarations the
    # compiles that miss it reuse or compile.
    "surface.intern_hits",
    "surface.decls_reused",
    "surface.decls_compiled",
    # repro.cluster — sharded workers (docs/SERVER.md).  Routing/
    # liveness counters live on the front and supervisor tracers; the
    # shared-memo counter on every host's (a single host or a worker),
    # named for the cluster where it first counted.
    "cluster.requests_routed",
    "cluster.worker_respawns",
    "cluster.worker_respawn_backoffs",
    "cluster.worker_retries",
    "cluster.tokens_rebalanced",
    "cluster.memo.shared_hits",
    # repro.provenance — replay, time travel & why-queries
    # (docs/OBSERVABILITY.md).
    "replay.sessions",
    "replay.events",
    "replay.checkpoints_used",
    "replay.divergences",
    "provenance.queries",
    "provenance.events_linked",
    # repro.repair — live repair search (docs/RESILIENCE.md).  The
    # companion latency histograms are "repair.search" (whole-search
    # wall clock) and "repair.first_valid" (time to the first validated
    # candidate).
    "repair.searches",
    "repair.candidates_generated",
    "repair.candidates_validated",
    "repair.found",
    "repair.applied",
)

#: The gauge catalog: last-write-wins values the instrumented layers
#: set.  Kept as an explicit set because aggregation must treat the two
#: kinds differently — counters **sum** across processes, gauges never
#: do (summing ``update_reuse_ratio`` over four workers yields a
#: nonsense ratio above 1.0); a cluster front reports gauges as labeled
#: per-worker series instead.
GAUGES = frozenset({
    "incremental.update_reuse_ratio",
    # repro.cluster — per-worker health gauges exposed over /metrics.
    "sessions.open_breakers",
})


class Stopwatch:
    """Wall-clock elapsed-time helper; starts on construction.

    >>> watch = Stopwatch()
    >>> ...                      # doctest: +SKIP
    >>> watch.elapsed()          # doctest: +SKIP
    """

    __slots__ = ("started",)

    def __init__(self):
        self.started = clock()

    def elapsed(self):
        return clock() - self.started

    def restart(self):
        self.started = clock()


class Span:
    """One timed, attributed region; also its own context manager.

    Spans are created by :meth:`Tracer.span` and closed by leaving the
    ``with`` block (or calling :meth:`finish`).  ``duration`` of a live
    span is the time elapsed so far.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "start", "end", "attrs", "_tracer",
    )

    def __init__(self, name, span_id, parent_id, attrs, tracer):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = clock()
        self.end = None
        self.attrs = attrs
        self._tracer = tracer

    @property
    def duration(self):
        """Wall seconds; live spans report the time elapsed so far."""
        return (self.end if self.end is not None else clock()) - self.start

    @property
    def finished(self):
        return self.end is not None

    def annotate(self, **attrs):
        """Attach attributes after the fact (e.g. a result count)."""
        self.attrs.update(attrs)
        return self

    def finish(self):
        if self.end is None:
            self._tracer._finish(self)
        return self

    def to_dict(self):
        """JSON-ready representation (used by the JSONL sink)."""
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "attrs": {key: _jsonable(value)
                      for key, value in self.attrs.items()},
        }

    # -- context-manager protocol ------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, _tb):
        if exc is not None:
            self.attrs["error"] = "{}: {}".format(
                type(exc).__name__, exc
            )
        self.finish()
        return False

    def __repr__(self):
        state = "{:.6f}s".format(self.duration) if self.finished else "live"
        return "Span({}#{} {} {})".format(
            self.name, self.span_id, state,
            self.attrs if self.attrs else "",
        )


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Tracer:
    """The real tracer: spans nest via an explicit stack, metrics are
    plain dicts, finished spans fan out to sinks.

    ``sinks`` defaults to a single fresh
    :class:`~repro.obs.sinks.InMemorySink`, so ``Tracer()`` is
    immediately queryable (:meth:`spans`); pass an explicit list to
    stream to JSONL or elsewhere.
    """

    #: Class-level flag so call sites can branch cheaply
    #: (``if tracer.enabled: ...``) without an isinstance check.
    enabled = True

    def __init__(self, *, sinks=None, id_prefix=None):
        if sinks is None:
            from .sinks import InMemorySink

            sinks = [InMemorySink()]
        self.sinks = list(sinks)
        self.counters = dict.fromkeys(CATALOG, 0)
        self.gauges = {}
        self.histograms = {}
        self._stack = []
        self._ids = itertools.count(1)
        #: Per-process span-id prefix (``"w3.1234"``): when set, span
        #: ids become strings like ``"w3.1234-17"`` — globally unique
        #: across a cluster, so spans from different processes stitch
        #: into one tree without id collisions.  ``None`` (the default)
        #: keeps plain integer ids for single-process use.
        self.id_prefix = id_prefix
        #: Span id of the most recently *finished* span — how a fault
        #: recorded during exception unwind names the span that failed.
        self.last_span_id = None

    # -- spans --------------------------------------------------------------

    def _next_id(self):
        serial = next(self._ids)
        if self.id_prefix is None:
            return serial
        return "{}-{}".format(self.id_prefix, serial)

    def span(self, name, **attrs):
        """Open a nested span; use as ``with tracer.span("render"): ...``."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, self._next_id(), parent, attrs, self)
        self._stack.append(span)
        return span

    def span_under(self, parent_id, name, **attrs):
        """Open a span under an **explicit** (possibly remote) parent id.

        This is the receiving half of cross-process trace propagation:
        a cluster worker opens its per-request span under the front's
        op span id carried in the frame headers, so the worker's whole
        span subtree parents into the front's — one request, one tree,
        three processes.  The span still nests on this tracer's stack,
        so local child spans parent under it as usual.
        """
        span = Span(name, self._next_id(), parent_id, attrs, self)
        self._stack.append(span)
        return span

    def _finish(self, span):
        span.end = clock()
        self.last_span_id = span.span_id
        # Out-of-order finishes (a caller holding on to an outer span)
        # close the abandoned inner spans too, innermost first.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            top.end = span.end
            self._emit(top)
        self._emit(span)

    def _emit(self, span):
        for sink in self.sinks:
            sink.on_span(span)

    @property
    def current_span_id(self):
        return self._stack[-1].span_id if self._stack else None

    def annotate_current(self, **attrs):
        """Attach attributes to the innermost *open* span, if any.

        This is how a layer that did not open the span enriches it —
        e.g. the journal stamps the serving op's span with the
        ``journal_seq`` it assigned, making trace → journal joins
        possible without threading span objects through every call.
        """
        if self._stack:
            self._stack[-1].annotate(**attrs)

    def spans(self):
        """Finished spans from the first in-memory sink (else ``()``)."""
        for sink in self.sinks:
            spans = getattr(sink, "spans", None)
            if spans is not None:
                return tuple(spans)
        return ()

    def children_of(self, span_id):
        """Finished direct children of ``span_id``, in finish order."""
        return tuple(
            span for span in self.spans() if span.parent_id == span_id
        )

    # -- metrics ------------------------------------------------------------

    def add(self, counter, amount=1):
        """Increment a monotonic counter (creating it at zero)."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    inc = add

    def gauge(self, name, value):
        """Set a last-write-wins gauge."""
        self.gauges[name] = value

    def histogram(self, name):
        """The named :class:`~repro.obs.histo.Histogram` (created on
        first use).  All histograms share one fixed bucket layout, so
        any two tracers' same-named histograms merge bucket-wise."""
        histogram = self.histograms.get(name)
        if histogram is None:
            # setdefault keeps a concurrent first-use race harmless:
            # both threads end up observing into the same instance.
            histogram = self.histograms.setdefault(name, Histogram())
        return histogram

    def observe(self, name, seconds):
        """Record one latency observation into the named histogram."""
        self.histogram(name).observe(seconds)

    def metrics(self):
        """All counters and gauges as one flat dict (counters win ties)."""
        merged = dict(self.gauges)
        merged.update(self.counters)
        return merged

    def histogram_snapshots(self):
        """Point-in-time copies of every histogram, by name — safe to
        merge or serialize while traffic keeps observing."""
        return {
            name: histogram.snapshot()
            for name, histogram in sorted(self.histograms.items())
        }


class _NullSpan:
    """The shared do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    name = "null"
    span_id = None
    parent_id = None
    start = 0.0
    end = 0.0
    duration = 0.0
    finished = True
    attrs = {}

    def annotate(self, **_attrs):
        return self

    def finish(self):
        return self

    def __enter__(self):
        return self

    def __exit__(self, _exc_type, _exc, _tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """API-compatible tracer whose every operation is a no-op.

    This is the default wired through :class:`repro.system.transitions.
    System`, so the uninstrumented hot path pays roughly one attribute
    lookup + one no-op call per transition.
    """

    enabled = False
    sinks = ()
    counters = {}
    gauges = {}
    histograms = {}
    current_span_id = None
    last_span_id = None
    id_prefix = None

    __slots__ = ()

    def span(self, _name, **_attrs):
        return _NULL_SPAN

    def span_under(self, _parent_id, _name, **_attrs):
        return _NULL_SPAN

    def annotate_current(self, **_attrs):
        pass

    def add(self, _counter, _amount=1):
        pass

    inc = add

    def gauge(self, _name, _value):
        pass

    def histogram(self, _name):
        return NULL_HISTOGRAM

    def observe(self, _name, _seconds):
        pass

    def metrics(self):
        return {}

    def histogram_snapshots(self):
        return {}

    def spans(self):
        return ()

    def children_of(self, _span_id):
        return ()


#: The process-wide default tracer: disabled, shared, stateless.
NULL_TRACER = NullTracer()
