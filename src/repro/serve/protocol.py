"""The versioned JSON wire protocol.

One request is one JSON object with an ``"op"`` field; one response is
one JSON object with ``"ok"``, ``"protocol"`` and ``"op"`` fields plus
op-specific payload.  The transition system of Fig. 6–9 already is an
event/render protocol — this module only names its messages:

======================  ====================================================
op                      request fields → response payload
======================  ====================================================
``create``              ``source?``, ``title?`` → ``token``, ``page``
``tap``                 ``token``, ``path`` | ``text`` → ``page``
``back``                ``token`` → ``page``
``edit_box``            ``token``, ``path``, ``text`` → ``page``
``batch``               ``token``, ``events`` → ``events``, ``renders``,
                        ``coalesced``
``edit_source``         ``token``, ``source`` → ``status``, ``problems``,
                        ``dropped_globals``, ``dropped_pages``
``probe``               ``token``, ``expression`` → ``result``
``render``              ``token``, ``generation?``, ``width?`` →
                        ``html`` + ``generation``, or ``not_modified``
``snapshot``            ``token`` → ``image`` (a ``repro-image/1`` dict)
``evict``               ``token`` → ``evicted``
``stats``               → ``stats``
``history``             ``token``, ``limit?`` → ``history`` (journal
                        timeline: seq/kind/op/args/span_id, no images)
``why``                 ``token``, ``path`` | ``text`` → ``why`` (code
                        span, store slots, originating journal events —
                        see :mod:`repro.provenance`)
``repair``              ``token``, plus one of ``search`` (+ ``budget?``),
                        ``apply`` (a rank), ``wait?`` (seconds) →
                        ``status`` (``searching``/``ready``/``none``)
                        with ranked ``repairs`` summaries — see
                        :mod:`repro.repair`
======================  ====================================================

``history`` and ``why`` need the host to be journaling (started with
``--journal-dir``); without a journal they answer a typed
``"ReproError"``.

A request may carry ``"protocol": N``; a version other than
:data:`PROTOCOL_VERSION` is rejected up front so clients fail loudly
instead of misparsing.  Errors come back as
``{"ok": false, "error": {"type": ..., "message": ...}}`` — the type is
the raising :class:`~repro.core.errors.ReproError` subclass name, so
clients can dispatch on e.g. ``"UnknownToken"`` or ``"SyntaxProblem"``.

**Runtime faults are typed, never opaque.**  A handler fault surfaces
as ``"EvalFault"`` (subclasses keep their names: ``"FuelExhausted"``,
``"DeadlineExceeded"``, ``"InjectedFault"``, ``"NativeError"``), a
refused code update as ``"UpdateRejected"`` with its ``problems``, and
an open circuit breaker as ``"SessionQuarantined"`` — each carrying a
``span_id`` when tracing is on, so a client error correlates with the
server's span tree.  ``render`` on a quarantined session succeeds with
``"degraded": true`` and the last-good document — plus a ``fault``
object (the quarantining fault's type, message, ``span_id``,
``vtimestamp`` and the breaker's ``fault_streak``) and the session's
``repair`` state, so clients can localize and offer a fix without a
second round trip: a faulting session is served degraded, never dropped
with an untyped 500.  Likewise a ``rolled_back`` ``edit_source``
response carries ``repair`` (usually ``{"status": "searching"}`` — the
background candidate search just launched; poll the ``repair`` op).

``render`` responses carry the display generation; a request whose
``generation`` still matches gets ``{"not_modified": true}`` with no
HTML — the 304 of this protocol.
"""

from __future__ import annotations

import dataclasses

from ..core.errors import EvalError, ReproError, UpdateRejected
from ..obs.trace import clock

PROTOCOL_VERSION = 1


def wire_encode(value):
    """The one dataclass → JSON-value codec for everything on the wire.

    Every result object this protocol serializes — ``EditResult``,
    ``FixupReport``, ``BatchReport``, error payloads — goes through this
    single recursion instead of a hand-rolled per-endpoint encoding, so
    a field added to a result dataclass (``memo_hits``, say) reaches the
    wire without touching any op handler.  Dataclasses and named tuples
    (source spans) become dicts, other tuples become lists, JSON scalars
    pass through, and anything else (diagnostics, exceptions) falls back
    to ``str`` — the wire never carries a Python repr by accident, and
    never raises while encoding.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: wire_encode(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {
            name: wire_encode(item)
            for name, item in zip(value._fields, value)
        }
    if isinstance(value, dict):
        return {str(key): wire_encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [wire_encode(item) for item in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return str(value)


def result_payload(result, flatten=("report",)):
    """``wire_encode`` a result dataclass into a flat op payload.

    Nested one-level reports named in ``flatten`` are merged into the
    top level (the wire shape predates the codec: ``dropped_globals``
    lives beside ``status``, not under ``report``).
    """
    payload = wire_encode(result)
    for name in flatten:
        nested = payload.pop(name, None)
        if isinstance(nested, dict):
            payload.update(nested)
    return payload


def _ok(op, **payload):
    response = {"ok": True, "protocol": PROTOCOL_VERSION, "op": op}
    response.update(payload)
    return response


def _error(op, type_, message, **extra):
    error = {"type": type_, "message": message}
    error.update(wire_encode(extra))
    return {
        "ok": False,
        "protocol": PROTOCOL_VERSION,
        "op": op,
        "error": error,
    }


def describe_error(error, tracer=None):
    """``(type, extra)`` for one :class:`ReproError` — the shared
    fault-to-wire translation (the HTTP layer's last-resort handler
    uses it too, so *no* session fault ever leaves as an untyped 500).

    A bare :class:`~repro.core.errors.EvalError` is named
    ``"EvalFault"`` (the class name would shadow the whole subtree);
    subclasses keep their own names.  ``extra`` carries ``problems``
    for :class:`~repro.core.errors.UpdateRejected` and a ``span_id``
    whenever the tracer saw the failing transition.
    """
    type_ = type(error).__name__
    if type(error) is EvalError:
        type_ = "EvalFault"
    extra = {}
    if isinstance(error, UpdateRejected):
        extra["problems"] = wire_encode(error.problems)
    span_id = getattr(tracer, "last_span_id", None)
    if span_id is not None:
        extra["span_id"] = span_id
    return type_, extra


def error_response(op, error, tracer=None):
    """The full protocol error envelope for one :class:`ReproError` —
    exactly what ``handle_request`` would answer had the error risen
    inside dispatch.  The HTTP layer uses it for faults that surface
    *outside* ``handle_request`` (chaos refusals, faults raised while
    serializing a response), so every wire error carries the same
    ``protocol`` / ``op`` / ``error.type`` shape and clients dispatch
    on one taxonomy."""
    type_, extra = describe_error(error, tracer=tracer)
    return _error(op, type_, str(error), **extra)


class BadRequest(ReproError):
    """The request object itself is malformed (shape, not semantics)."""


def _require(request, field, types):
    value = request.get(field)
    if not isinstance(value, types):
        raise BadRequest(
            "op {!r} requires field {!r}".format(
                request.get("op"), field
            )
        )
    return value


def _batch_events(raw):
    """Decode the wire event list into batching tuples."""
    if not isinstance(raw, list):
        raise BadRequest("batch requires an 'events' list")
    events = []
    for item in raw:
        if not isinstance(item, dict):
            raise BadRequest("batch events must be objects")
        kind = item.get("kind")
        if kind == "tap" and "text" in item:
            events.append(("tap_text", item["text"]))
        elif kind == "tap":
            events.append(("tap", tuple(item.get("path", ()))))
        elif kind == "edit":
            events.append(
                ("edit", tuple(item.get("path", ())), item.get("text", ""))
            )
        elif kind == "back":
            events.append(("back",))
        else:
            raise BadRequest(
                "unknown batch event kind {!r}".format(kind)
            )
    return events


def handle_request(host, request):
    """Dispatch one decoded request against a
    :class:`~repro.serve.host.SessionHost`; always returns a response
    dict (semantic failures are ``ok: false`` responses, never raises
    for anything a remote client can trigger)."""
    if not isinstance(request, dict):
        return _error(None, "BadRequest", "request must be a JSON object")
    op = request.get("op")
    version = request.get("protocol", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        return _error(
            op, "BadRequest",
            "unsupported protocol version {!r} (this server speaks "
            "{})".format(version, PROTOCOL_VERSION),
        )
    handler = _OPS.get(op)
    if handler is None:
        return _error(
            op, "BadRequest",
            "unknown op {!r}; valid ops: {}".format(
                op, ", ".join(sorted(_OPS))
            ),
        )
    tracer = host.tracer
    started = clock() if tracer.enabled else None
    try:
        return handler(host, request)
    except ReproError as error:
        type_, extra = describe_error(error, tracer=tracer)
        return _error(op, type_, str(error), **extra)
    finally:
        if started is not None:
            # Per-op latency distributions ("op.render", "op.edit_box",
            # …) — the histograms /metrics exposes and `repro top`
            # summarizes.  Errors count too: a failing op is latency a
            # client experienced.
            tracer.observe("op." + op, clock() - started)


# -- op handlers ------------------------------------------------------------


def _op_create(host, request):
    source = request.get("source")
    if source is not None and not isinstance(source, str):
        raise BadRequest("create: 'source' must be a string")
    token = request.get("token")
    if token is not None and not isinstance(token, str):
        raise BadRequest("create: 'token' must be a string")
    if token is not None and host.has_token(token):
        # Idempotent create-under-token: the cluster front mints tokens
        # and may retry a create whose worker died after journaling it —
        # the recovered session *is* the one the retry asks for.
        with host.session(token) as entry:
            page = entry.session.runtime.page_name()
        return _ok("create", token=token, page=page, existing=True)
    token = host.create(
        source=source, title=request.get("title"), token=token
    )
    with host.session(token) as entry:
        page = entry.session.runtime.page_name()
    return _ok("create", token=token, page=page)


def _op_tap(host, request):
    token = _require(request, "token", str)
    if "text" in request:
        page = host.tap(token, text=_require(request, "text", str))
    else:
        page = host.tap(token, path=_require(request, "path", list))
    return _ok("tap", token=token, page=page)


def _op_back(host, request):
    token = _require(request, "token", str)
    return _ok("back", token=token, page=host.back(token))


def _op_edit_box(host, request):
    token = _require(request, "token", str)
    page = host.edit_box(
        token,
        _require(request, "path", list),
        _require(request, "text", str),
    )
    return _ok("edit_box", token=token, page=page)


def _op_batch(host, request):
    token = _require(request, "token", str)
    report = host.batch(token, _batch_events(request.get("events")))
    return _ok("batch", token=token, **result_payload(report))


def _op_edit_source(host, request):
    token = _require(request, "token", str)
    result = host.edit_source(token, _require(request, "source", str))
    payload = result_payload(result)
    if result.status == "rolled_back":
        # The update faulted and was rolled back — surface the repair
        # search state so the client can poll (or apply) a fix.
        payload["repair"] = host.repair_info(token)
    return _ok("edit_source", token=token, **payload)


def _op_probe(host, request):
    token = _require(request, "token", str)
    result = host.probe(token, _require(request, "expression", str))
    return _ok("probe", token=token, result=result.describe())


def _op_render(host, request):
    token = _require(request, "token", str)
    if_generation = request.get("generation")
    html, generation, modified = host.render(
        token, if_generation=if_generation
    )
    degraded = {}
    if host.is_quarantined(token):
        # The typed "Degraded" envelope: still a successful render —
        # the last-good document — but flagged (with the quarantining
        # fault's identity and the repair search state) so clients can
        # tell the session needs a code fix, and offer one.
        degraded = {
            "degraded": True,
            "fault": host.degraded_detail(token),
            "repair": host.repair_info(token),
        }
    if not modified:
        return _ok(
            "render", token=token, generation=generation,
            not_modified=True, **degraded
        )
    return _ok(
        "render", token=token, generation=generation, html=html, **degraded
    )


def _op_snapshot(host, request):
    token = _require(request, "token", str)
    return _ok("snapshot", token=token, image=host.snapshot(token))


def _op_evict(host, request):
    token = _require(request, "token", str)
    return _ok("evict", token=token, evicted=host.evict(token))


def _op_stats(host, _request):
    return _ok("stats", stats=host.stats())


def _op_history(host, request):
    token = _require(request, "token", str)
    limit = request.get("limit")
    if limit is not None and (not isinstance(limit, int) or limit < 1):
        raise BadRequest("history: 'limit' must be a positive integer")
    return _ok(
        "history", token=token, history=host.history(token, limit=limit)
    )


def _op_why(host, request):
    token = _require(request, "token", str)
    if "path" in request:
        report = host.why(token, path=_require(request, "path", list))
    else:
        report = host.why(token, text=_require(request, "text", str))
    return _ok("why", token=token, why=wire_encode(report))


def _op_repair(host, request):
    token = _require(request, "token", str)
    if "apply" in request:
        rank = request.get("apply")
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise BadRequest("repair: 'apply' must be a positive rank")
        result, candidate = host.repair_apply(token, rank)
        return _ok(
            "repair", token=token, applied=result.applied,
            candidate=wire_encode(candidate), **result_payload(result)
        )
    if request.get("search"):
        budget = None
        spec = request.get("budget")
        if spec is not None:
            if not isinstance(spec, dict):
                raise BadRequest("repair: 'budget' must be an object")
            from ..repair import RepairBudget

            try:
                budget = RepairBudget(**spec)
            except TypeError:
                raise BadRequest(
                    "repair: unknown budget field; valid fields: "
                    "max_candidates, wall_seconds, window, parallelism, "
                    "fuel, deadline"
                )
        report = host.repair_search(token, budget=budget)
        return _ok("repair", token=token, **host.report_info(report))
    wait = request.get("wait")
    if wait is not None:
        if not isinstance(wait, (int, float)) or isinstance(wait, bool) \
                or wait < 0:
            raise BadRequest("repair: 'wait' must be non-negative seconds")
        return _ok("repair", token=token, **host.repair_wait(token, wait))
    return _ok("repair", token=token, **host.repair_info(token))


_OPS = {
    "create": _op_create,
    "tap": _op_tap,
    "back": _op_back,
    "edit_box": _op_edit_box,
    "batch": _op_batch,
    "edit_source": _op_edit_source,
    "probe": _op_probe,
    "render": _op_render,
    "snapshot": _op_snapshot,
    "evict": _op_evict,
    "stats": _op_stats,
    "history": _op_history,
    "why": _op_why,
    "repair": _op_repair,
}
