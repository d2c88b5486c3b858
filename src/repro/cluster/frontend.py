"""The cluster front: one HTTP face, N workers behind it.

:class:`ClusterRouter` is the routing half of the front process.  It
plugs into the same HTTP layer a single host uses
(:func:`repro.serve.app.make_server` accepts either), decodes nothing
the worker wouldn't: a protocol request is forwarded **verbatim** as a
JSON frame to the worker owning its token on the consistent-hash ring,
and the worker's reply frame is the HTTP response body.  Two ops are
handled at the front:

* ``create`` — the front mints the token itself (so it can hash-route
  the create before any worker holds state) and forwards a create
  *under that token*; the worker-side handler is idempotent per token,
  which makes crash-retry of a create safe;
* ``stats`` — aggregated across workers: summed session counts, summed
  *counters* (gauges are reported as per-worker series, never summed),
  per-worker breakdowns and the cluster's own counters; a
  ``trace_id`` field makes it double as the trace fetch — the response
  carries the stitched cross-process span tree.

Every forwarded request is stamped with a fresh ``trace_id`` and the
front's op span id (the ``"_trace"`` frame header); worker spans open
under that id, so one request is one tree across three processes, and
the HTTP response's ``trace_id`` is the client's handle on it.  The
front also satisfies the HTTP layer's ``metrics_text()`` hook: ``GET
/metrics`` is the fleet-wide Prometheus document, per-worker snapshots
pulled over the internal ``__metrics__`` op and merged kind-correctly.

``__``-prefixed ops (``__status__``/``__drain__``/``__adopt__``) are
the supervisor's private vocabulary — the front refuses them with a
typed ``BadRequest``, so the public HTTP surface cannot reach them.

**Failure handling** is revive-and-retry: a transport error on a
forward means the worker died, so the front asks the supervisor to
respawn the slot (journal recovery makes the replacement complete) and
retries the request once.  Delivery is therefore *at-least-once*: an op
executed but unacknowledged at crash time may run twice — the same
contract crash recovery itself has, since the write-ahead journal
replays exactly such ops.  Acknowledged state is never lost either way.
"""

from __future__ import annotations

import os
import secrets

from ..core.errors import ReproError
from ..obs.histo import Histogram
from ..obs.metrics import render_prometheus
from ..obs.sinks import filter_trace
from ..obs.trace import GAUGES, clock
from ..serve.protocol import (
    PROTOCOL_VERSION, BadRequest, error_response, _OPS,
)
from .supervisor import WorkerDied
from .transport import TransportError, decode_json, encode_json


class WorkerUnavailable(ReproError):
    """The owning worker is down and could not be revived in time."""


#: Ops the front answers itself rather than forwarding.
_FRONT_OPS = ("create", "stats")


class ClusterRouter:
    """Routes decoded protocol requests to workers; aggregates stats.

    Satisfies the same face contract :class:`repro.serve.app._HostFace`
    does — ``dispatch`` / ``healthz`` / ``tracer`` — so the HTTP layer
    is identical for one host or a fleet.
    """

    def __init__(self, supervisor):
        self.supervisor = supervisor
        self.tracer = supervisor.tracer
        if self.tracer.enabled and self.tracer.id_prefix is None:
            # Make front span ids self-describing next to the workers'
            # ("f8912-3" beside "w0.8920-17") in a stitched trace.
            self.tracer.id_prefix = "f{}".format(os.getpid())

    def _count(self, name, amount=1):
        self.supervisor._count(name, amount)

    # -- the face contract --------------------------------------------------

    def dispatch(self, request):
        try:
            return self._dispatch(request)
        except ReproError as error:
            op = request.get("op") if isinstance(request, dict) else None
            return error_response(op, error, tracer=self.tracer)

    def healthz(self):
        return self.supervisor.healthz()

    def drain(self):
        """Stop the whole fleet gracefully (the HTTP layer's shutdown)."""
        self.supervisor.stop()

    # -- routing ------------------------------------------------------------

    def _dispatch(self, request):
        if not isinstance(request, dict):
            raise BadRequest("request must be a JSON object")
        op = request.get("op")
        if isinstance(op, str) and op.startswith("__"):
            raise BadRequest(
                "op {!r} is cluster-internal".format(op)
            )
        version = request.get("protocol", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            raise BadRequest(
                "unsupported protocol version {!r} (this server speaks "
                "{})".format(version, PROTOCOL_VERSION)
            )
        if op not in _OPS:
            raise BadRequest(
                "unknown op {!r}; valid ops: {}".format(
                    op, ", ".join(sorted(_OPS))
                )
            )
        if op == "stats":
            return self._stats(request)
        # Every routed request gets a trace identity at the front: the
        # trace_id names the end-to-end request, and the front's op span
        # id rides along as the remote parent for the worker's spans.
        trace_id = "t-" + secrets.token_hex(6)
        span = (self.tracer.span("op.{}".format(op), trace_id=trace_id)
                if self.tracer.enabled else None)
        started = clock()
        try:
            trace = {
                "id": trace_id,
                "parent": span.span_id if span is not None else None,
            }
            if op == "create":
                response = self._create(request, trace)
            else:
                token = request.get("token")
                if not isinstance(token, str) or not token:
                    raise BadRequest(
                        "op {!r} requires field 'token'".format(op)
                    )
                response = self._forward(
                    self.supervisor.slot_for(token), request, trace
                )
        finally:
            if span is not None:
                span.finish()
                # "front.op.*" (client-facing: routing + transport +
                # worker) stays a separate family from the workers'
                # "op.*" (service time only) so merging per-worker
                # snapshots never mixes the two distributions.
                self.tracer.observe(
                    "front.op.{}".format(op), clock() - started
                )
        if isinstance(response, dict):
            # Clients (and the metrics-smoke test) correlate their
            # request with the cluster-wide trace through this id.
            response.setdefault("trace_id", trace_id)
        return response

    def _create(self, request, trace=None):
        token = request.get("token")
        if token is None:
            request = dict(request)
            token = request["token"] = "s-" + secrets.token_hex(8)
        elif not isinstance(token, str) or not token:
            raise BadRequest("create: 'token' must be a string")
        return self._forward(self.supervisor.slot_for(token), request, trace)

    def _forward(self, slot, request, trace=None):
        if trace is not None:
            request = dict(request)
            request["_trace"] = trace
        payload = encode_json(request)
        started = clock()
        try:
            reply = self.supervisor.pool_for(slot).request(payload)
        except TransportError:
            # The worker died under us.  Respawn the slot (recovery
            # replays its journal, so the replacement already holds
            # every acknowledged mutation) and retry exactly once.
            self._count("cluster.worker_retries")
            try:
                self.supervisor.revive(slot)
                reply = self.supervisor.pool_for(slot).request(payload)
            except (TransportError, WorkerDied, ReproError) as error:
                raise WorkerUnavailable(
                    "worker {} is unavailable: {}".format(slot, error)
                ) from error
        finally:
            if self.tracer.enabled:
                self.tracer.observe("frame.roundtrip", clock() - started)
        self._count("cluster.requests_routed")
        return decode_json(reply)

    # -- aggregation --------------------------------------------------------

    def _stats(self, request=None):
        worker_stats = self.supervisor.worker_stats()
        totals = {"sessions": 0, "resident": 0, "evicted": 0,
                  "quarantined": 0}
        metrics = {}
        gauges = {}
        for slot, stats in worker_stats.items():
            if not isinstance(stats, dict):
                continue
            for key in totals:
                value = stats.get(key)
                if isinstance(value, (int, float)):
                    totals[key] += value
            # Counters sum across workers; gauges must not (four
            # workers' update_reuse_ratio added together is a nonsense
            # ratio above 1.0) — they become per-worker series instead.
            worker_gauges = stats.get("gauges") or {}
            for name, value in (stats.get("metrics") or {}).items():
                if not isinstance(value, (int, float)):
                    continue
                if name in worker_gauges or name in GAUGES:
                    gauges.setdefault(name, {})[str(slot)] = value
                else:
                    metrics[name] = metrics.get(name, 0) + value
        # The cluster's own counters (routed/retries/respawns/...) live
        # on the supervisor's tracer, beside the workers' summed ones.
        for name, value in self.supervisor.metrics().items():
            if not isinstance(value, (int, float)):
                continue
            if name in GAUGES:
                gauges.setdefault(name, {})["front"] = value
            else:
                metrics[name] = metrics.get(name, 0) + value
        stats = dict(totals)
        stats["workers"] = {
            str(slot): s for slot, s in sorted(worker_stats.items())
        }
        stats["metrics"] = metrics
        stats["gauges"] = gauges
        response = {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "op": "stats",
            "stats": stats,
        }
        trace_id = (request or {}).get("trace_id")
        if isinstance(trace_id, str) and trace_id:
            # `stats` doubles as the trace-fetch op: hand back the
            # stitched cross-process span tree for one request.
            response["trace"] = self.trace_spans(trace_id)
        return response

    def trace_spans(self, trace_id):
        """One distributed trace, stitched: the front's spans for
        ``trace_id`` plus every worker's, as serialized span dicts.
        Worker spans parent under front span ids, so rebuilding with
        :func:`repro.obs.spans_from_dicts` +
        :func:`repro.obs.format_span_tree` renders one tree."""
        spans = [
            span.to_dict()
            for span in filter_trace(self.tracer.spans(), trace_id)
        ]
        spans.extend(self.supervisor.worker_traces(trace_id))
        return spans

    def metrics_text(self):
        """The cluster-wide Prometheus document for ``GET /metrics``.

        Per-worker snapshots are pulled over the internal
        ``__metrics__`` frame op and merged here: counters by sum,
        histograms bucket-wise (the merged p95 is exactly the p95 of
        the union of observations, to bucket resolution), gauges as
        labeled per-worker series — never summed.
        """
        counters, gauges, histograms = (
            self.supervisor.observability_snapshot()
        )
        gauges = {
            name: {"front": value}
            for name, value in gauges.items()
            if isinstance(value, (int, float))
        }
        for slot, payload in sorted(
            self.supervisor.worker_metrics().items()
        ):
            label = str(slot)
            for name, value in (payload.get("counters") or {}).items():
                if isinstance(value, (int, float)):
                    counters[name] = counters.get(name, 0) + value
            for name, value in (payload.get("gauges") or {}).items():
                if isinstance(value, (int, float)):
                    gauges.setdefault(name, {})[label] = value
            for name, data in (payload.get("histograms") or {}).items():
                try:
                    histogram = Histogram.from_dict(data)
                except (ValueError, TypeError):
                    continue  # foreign schema: refuse, don't mis-merge
                if name in histograms:
                    histograms[name].merge(histogram)
                else:
                    histograms[name] = histogram
        gauges.update(self.supervisor.slot_gauges())
        return render_prometheus(
            counters=counters, gauges=gauges, histograms=histograms
        )
