"""One cluster worker: a :class:`SessionHost` behind a frame socket.

A worker is ``python -m repro.cluster.worker <config.json>`` — its own
process, its own journal directory, its own ephemeral port published
through a **port file** (written atomically once the socket listens; the
supervisor's spawn handshake polls for it).  The front forwards protocol
requests as JSON frames; the worker answers with exactly the responses
:func:`repro.serve.protocol.handle_request` would produce over HTTP —
one codec, two transports.

Three internal ops ride the same socket but never the public HTTP face
(the front refuses ``__``-prefixed ops):

* ``__status__`` — liveness probe: pid, slot, :meth:`SessionHost.healthz`,
  metrics and memo stats;
* ``__drain__``  — graceful shutdown: stop accepting, finish in-flight
  requests, close the journal, exit 0;
* ``__adopt__``  — rebalance: replay one token out of a *retired*
  worker's journal into this host (see :func:`adopt_session`);
* ``__metrics__`` — counters, gauges and latency histograms in
  mergeable form, pulled by the front's ``GET /metrics`` aggregation;
* ``__trace__``  — the worker's finished spans for one ``trace_id``,
  serialized for the front's cross-process trace stitching.

Public (non-``__``) requests arrive stamped with a ``"_trace"`` header
— ``{"id": trace_id, "parent": front_span_id}`` — which the worker pops
and turns into an ``rpc.<op>`` span opened *under the front's span id*
(:meth:`repro.obs.trace.Tracer.span_under`), so every span this worker
records for the request parents into the front's trace tree.

**Crash contract.**  The worker write-ahead journals every state-
changing op (``repro.resilience``), so ``kill -9`` loses nothing
acknowledged: the supervisor respawns the slot over the same journal
directory, :func:`repro.resilience.recover` rebuilds every session, and
the generation floor keeps display generations strictly increasing
across the death — a polling client can never see ``not_modified`` for
changed content.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading

from ..core.errors import EvalError, ReproError
from ..obs.sinks import filter_trace
from ..resilience.journal import (
    Journal, _collate, _replay_event, recover,
)
from ..serve.host import SERVE_POSTURE, SessionHost, server_tracer
from ..serve.protocol import error_response, handle_request
from ..stdlib.web import DEFAULT_LATENCY, make_services, web_host_impls
from .transport import FrameServer, decode_json, encode_json, publish_port


def adopt_session(host, foreign_dir, token):
    """Replay ``token`` from a *retired* worker's journal into ``host``.

    This is rebalance's data path: the supervisor drains (or buries) the
    old worker first, so the foreign journal is quiescent — then the
    adopting worker rebuilds the session exactly like crash recovery
    does (checkpoint, then the event tail), with its own journal
    detached so replayed events are not re-journaled.  Once live, the
    session is re-rooted: a fresh ``create`` + checkpoint in the
    adopter's own journal makes future recoveries local, and the
    generation floor (``foreign.last_seq() + 2``) is strictly past
    anything the old worker could have acknowledged.

    Returns ``True`` when the token is (now) served here; ``False`` when
    the foreign journal holds nothing recoverable for it.
    """
    if host.has_token(token):
        return True
    foreign = Journal(foreign_dir)
    logs = [
        log for log in _collate(foreign.records_for(token,
                                                    include_images=True))
        if log.token == token
    ]
    if not logs:
        return False
    log = logs[0]
    if log.destroyed:
        return False
    own_journal, host.journal = host.journal, None
    try:
        if log.checkpoint is not None:
            host.restore(token, image=log.checkpoint, title=log.title)
        elif log.created and log.source is not None:
            host.restore(token, source=log.source, title=log.title)
        else:
            return False
        for seq, op, args in log.events:
            if seq <= log.checkpoint_seq:
                continue
            try:
                _replay_event(host, token, op, args)
            except EvalError:
                pass  # the fault replays into the session, as live
            except ReproError:
                pass  # failed identically live; the client saw it
    finally:
        host.journal = own_journal
    host.complete_recovery(token, foreign.last_seq() + 2)
    if host.journal is not None:
        with host.session(token) as entry:
            host.journal.record_create(
                token, entry.session.source, entry.title
            )
            host._checkpoint(entry)
    return True


class Worker:
    """The in-process half of a worker: host + frame server + drain."""

    def __init__(self, config):
        self.config = config
        self.slot = config["slot"]
        # The id prefix makes span ids globally unique across the
        # cluster ("w3.1234-17"), so this worker's spans stitch into
        # the front's trace tree without id collisions.
        self.tracer = server_tracer(
            id_prefix="w{}.{}".format(self.slot, os.getpid())
        )
        latency = config.get("latency")
        if latency is None:
            latency = DEFAULT_LATENCY
        # The same session posture ``repro serve`` runs single-process.
        # Budget objects don't cross the JSON config, so the worker
        # rebuilds one from the plain fuel/deadline numbers.
        from ..resilience import Budget

        session_kwargs = dict(
            SERVE_POSTURE,
            fault_policy=config.get(
                "fault_policy", SERVE_POSTURE["fault_policy"]
            ),
        )
        budget_kwargs = {}
        if config.get("fuel") is not None:
            budget_kwargs["fuel"] = config["fuel"]
        session_kwargs["budget"] = Budget(
            deadline=config.get("deadline"), **budget_kwargs
        )
        session_kwargs.update(config.get("session_kwargs") or {})
        # Live repair: True or a RepairBudget-field dict in the config
        # arms automatic candidate search on this worker (searches run
        # on background threads against throwaway replayed systems —
        # never the request path).
        repair = config.get("repair")
        if isinstance(repair, dict):
            from ..repair import RepairBudget

            repair = RepairBudget(**repair)
        self.host = SessionHost(
            pool_size=config.get("pool_size", 16),
            default_source=config.get("source"),
            make_host_impls=web_host_impls,
            make_services=lambda: make_services(latency=latency),
            tracer=self.tracer,
            session_kwargs=session_kwargs,
            quarantine_after=config.get("quarantine_after", 3),
            repair=repair,
        )
        self.recovery = None
        journal_dir = config.get("journal_dir")
        if journal_dir is not None:
            journal = Journal(
                journal_dir,
                checkpoint_every=config.get("checkpoint_every", 25),
                tracer=self.tracer,
                fsync=config.get("journal_fsync", "none") or "none",
            )
            self.recovery = recover(self.host, journal)
        self._drain = threading.Event()
        self.server = FrameServer(self._handle)

    # -- request handling ---------------------------------------------------

    def _handle(self, payload):
        try:
            request = decode_json(payload)
        except (ValueError, UnicodeDecodeError):
            return encode_json({
                "ok": False,
                "error": {"type": "BadRequest",
                          "message": "frame is not valid JSON"},
            })
        op = request.get("op") if isinstance(request, dict) else None
        # The front's trace header rides inside the frame: popped here
        # so the protocol dispatcher never sees it.
        trace = (request.pop("_trace", None)
                 if isinstance(request, dict) else None)
        try:
            if op == "__status__":
                response = self._status()
            elif op == "__drain__":
                self._drain.set()
                response = {"ok": True, "op": "__drain__",
                            "slot": self.slot}
            elif op == "__adopt__":
                response = self._adopt(request)
            elif op == "__metrics__":
                response = self._metrics()
            elif op == "__trace__":
                response = self._trace(request)
            elif isinstance(trace, dict) and self.tracer.enabled:
                # Open this request's span under the front's op span id:
                # the host's own op.* spans nest beneath it, so the
                # whole worker subtree parents into the front's trace.
                with self.tracer.span_under(
                    trace.get("parent"), "rpc.{}".format(op),
                    trace_id=trace.get("id"), slot=self.slot,
                ):
                    response = handle_request(self.host, request)
            else:
                response = handle_request(self.host, request)
        except ReproError as error:
            response = error_response(op, error, tracer=self.tracer)
        except Exception as error:  # a worker bug, never a dead socket
            response = {
                "ok": False,
                "error": {"type": "InternalError",
                          "message": "{}: {}".format(
                              type(error).__name__, error)},
            }
        return encode_json(response)

    def _status(self):
        report = self.recovery
        return {
            "ok": True,
            "op": "__status__",
            "slot": self.slot,
            "pid": os.getpid(),
            "healthz": self.host.healthz(),
            "memo": self.host.memo_store.stats(),
            "recovered": (report.sessions if report is not None else 0),
        }

    def _metrics(self):
        """``__metrics__``: this worker's counters/gauges/histograms in
        mergeable form — what the front aggregates into ``/metrics``."""
        counters, gauges, histograms = self.host.observability_snapshot()
        return {
            "ok": True,
            "op": "__metrics__",
            "slot": self.slot,
            "counters": counters,
            "gauges": gauges,
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in histograms.items()
            },
        }

    def _trace(self, request):
        """``__trace__``: this worker's finished spans for one
        distributed trace, serialized for cross-process stitching."""
        trace_id = request.get("trace_id")
        spans = filter_trace(self.tracer.spans(), trace_id)
        return {
            "ok": True,
            "op": "__trace__",
            "slot": self.slot,
            "spans": [span.to_dict() for span in spans],
        }

    def _adopt(self, request):
        token = request.get("token")
        foreign_dir = request.get("journal_dir")
        if not isinstance(token, str) or not isinstance(foreign_dir, str):
            return {
                "ok": False, "op": "__adopt__",
                "error": {"type": "BadRequest",
                          "message": "__adopt__ needs 'token' and "
                                     "'journal_dir' strings"},
            }
        adopted = adopt_session(self.host, foreign_dir, token)
        if adopted:
            self.host._count("cluster.tokens_rebalanced")
        return {"ok": True, "op": "__adopt__", "slot": self.slot,
                "token": token, "adopted": adopted}

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        self.server.start()
        return self

    @property
    def address(self):
        return self.server.address

    def request_drain(self):
        self._drain.set()

    def wait(self):
        self._drain.wait()

    def shutdown(self, drain_timeout=5.0):
        """The graceful half of the crash contract: drain, then close."""
        drained = self.server.stop(drain_timeout=drain_timeout)
        if self.host.journal is not None:
            self.host.journal.close()
        return drained


def worker_main(config):
    worker = Worker(config).start()

    def _on_signal(_signum, _frame):
        worker.request_drain()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    port_file = config.get("port_file")
    if port_file is not None:
        publish_port(port_file, worker.address[1])
    worker.wait()
    drained = worker.shutdown(
        drain_timeout=config.get("drain_timeout", 5.0)
    )
    return 0 if drained else 1


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m repro.cluster.worker <config.json>",
              file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        config = json.load(handle)
    return worker_main(config)


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
