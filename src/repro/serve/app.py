"""The HTTP face of the server: stdlib-only JSON over POST.

* ``POST /`` (or ``/api``) — body is one protocol request
  (:mod:`repro.serve.protocol`), response is one protocol response;
* ``GET /stats`` — the ``stats`` op, for dashboards and smoke tests;
* ``GET /metrics`` — Prometheus text exposition
  (:mod:`repro.obs.metrics`): counters, gauges and latency histograms,
  merged across the whole fleet when the face is a cluster front;
* ``GET /healthz`` — liveness: role, session counts, journaling flag
  for a single host; per-worker liveness for a cluster.  Answers 503
  (body still JSON, ``"ok": false``) when any worker is down, so load
  balancers and the CI smoke tests read health without parsing.

**A lean HTTP/1.1 loop.**  A :class:`socketserver.ThreadingTCPServer`
gives each connection a thread; the handler reads request after request
off one buffered reader — the request line and headers with
``readline``, no ``email`` parsing — and writes each response (status
line, headers, body) with one ``sendall``.  It keeps the limits
:mod:`http.server` enforced: a line may hold 64 KiB and a head 100
header lines (431 past either, 414 for the request line),
``Expect: 100-continue`` is answered before the body is read, HTTP/1.1
connections stay open unless ``Connection: close``, HTTP/1.0 ones close
unless ``Connection: keep-alive``.  It refuses what it cannot frame
safely — a folded header line, conflicting ``Content-Length`` values,
``Transfer-Encoding``, a garbage request line — and every refusal, like
every other error, is the protocol's typed JSON envelope; a refusal
closes the connection.  The :class:`~repro.serve.host.SessionHost`
locks make the threads safe.

**One HTTP layer, two backends.**  The handler talks to a *face* — an
object with ``dispatch(request)``, ``healthz()`` and ``tracer`` — not
to a :class:`SessionHost` directly.  A host is wrapped in
:class:`_HostFace`; a :class:`repro.cluster.frontend.ClusterRouter`
satisfies the contract natively.  Everything about body parsing,
typed-error envelopes and graceful drains is therefore written once.

**Graceful shutdown.**  The server counts in-flight requests;
:func:`shutdown_gracefully` stops the accept loop, waits for the count
to reach zero (bounded), closes the journal with a clean-shutdown
marker, then closes the socket — SIGTERM never tears a request midway
(see :func:`repro.cli.cmd_serve` for the signal wiring).  Once shutdown
begins, a response in flight carries ``Connection: close`` and a new
request on a kept-alive connection is refused with a typed 503.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from email.utils import formatdate
from http import HTTPStatus

from ..core.errors import InjectedFault, ReproError
from ..obs.metrics import CONTENT_TYPE as _METRICS_CONTENT_TYPE
from ..obs.metrics import render_prometheus
from .host import SessionHost
from .protocol import BadRequest, error_response, handle_request

#: Cap request bodies (sources, batches) well above any legitimate use.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: The limits :mod:`http.server` inherits from :mod:`http.client`.
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100

_SERVER_HEADER = "repro-serve/1"
_JSON = "application/json"
_BLANK = (b"\r\n", b"\n", b"")
_STATUS_LINES = {
    status.value: "HTTP/1.1 {} {}\r\n".format(status.value, status.phrase)
    for status in HTTPStatus
}


class Unavailable(ReproError):
    """The server is shutting down and takes no new requests."""


class _Refusal(Exception):
    """A request the loop answers with a typed error, then hangs up on."""

    def __init__(self, status, error):
        super().__init__(str(error))
        self.status = status
        self.error = error


class _Clock:
    """The ``Date`` header, formatted at most once a second."""

    def __init__(self):
        self._second = None
        self._text = ""

    def date(self):
        second = int(time.time())
        if second != self._second:
            self._text = formatdate(second, usegmt=True)
            self._second = second
        return self._text


_DATE = _Clock()


class _HostFace:
    """The single-host backend of the HTTP layer's face contract."""

    def __init__(self, host):
        self.host = host
        self.tracer = host.tracer

    def dispatch(self, request):
        return handle_request(self.host, request)

    def healthz(self):
        payload = {"ok": True, "role": "host"}
        payload.update(self.host.healthz())
        return payload

    def metrics_text(self):
        """The Prometheus exposition document for ``GET /metrics``."""
        counters, gauges, histograms = self.host.observability_snapshot()
        return render_prometheus(
            counters=counters, gauges=gauges, histograms=histograms
        )

    def drain(self):
        """Single hosts drain at the journal, handled by the caller."""


def _as_face(target):
    if isinstance(target, SessionHost):
        return _HostFace(target)
    if hasattr(target, "dispatch") and hasattr(target, "healthz"):
        return target
    raise TypeError(
        "expected a SessionHost or a face with dispatch()/healthz()"
    )


def _bad(status, message):
    return _Refusal(status, BadRequest(message))


def _read_head(readline):
    """One request head off a buffered reader.

    Returns ``(method, path, version, headers)`` with header names in
    lower case, or ``None`` at a clean end of stream; raises
    :class:`_Refusal` for a head the loop must not serve.
    """
    line = readline(MAX_LINE_BYTES + 1)
    while line in (b"\r\n", b"\n"):  # RFC 9112 §2.2: skip blank lines
        line = readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise _bad(414, "request line longer than {} bytes".format(
            MAX_LINE_BYTES))
    words = line.decode("latin-1").split()
    if len(words) != 3 or not words[2].startswith("HTTP/"):
        raise _bad(400, "malformed request line {!r}".format(
            line[:80].decode("latin-1").rstrip()))
    method, path, version = words
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise _bad(505, "HTTP version {!r} is not supported".format(
            version))
    headers = {}
    for _ in range(MAX_HEADERS + 1):
        line = readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _bad(431, "header line longer than {} bytes".format(
                MAX_LINE_BYTES))
        if line in _BLANK:
            return method, path, version, headers
        if line[:1] in (b" ", b"\t"):
            raise _bad(400, "folded header lines are not accepted")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():
            raise _bad(400, "malformed header line {!r}".format(
                line[:80].decode("latin-1").rstrip()))
        name = name.lower()
        value = value.strip()
        known = headers.get(name)
        if known is None:
            headers[name] = value
        elif name == "content-length":
            if known != value:
                raise _bad(400, "conflicting Content-Length headers")
        else:
            headers[name] = known + ", " + value
    raise _bad(431, "more than {} header lines".format(MAX_HEADERS))


def make_handler(target, chaos=None):
    """The request-handler class bound to one host (or cluster router).

    Each connection runs :meth:`Handler.handle`'s keep-alive loop,
    which calls ``do_GET`` or ``do_POST`` once per request.

    ``chaos`` is an optional
    :class:`~repro.resilience.chaos.FaultInjector`: when its ``"http"``
    point fires, the request is refused *before* dispatch with a typed
    503 — the chaos suite's way of proving clients see overload as a
    first-class protocol error, never a hung socket or an untyped 500.
    """
    face = _as_face(target)

    class Handler(socketserver.BaseRequestHandler):
        def setup(self):
            # Back-to-back small writes (a 100 Continue, then the reply)
            # otherwise hit the Nagle/delayed-ACK interaction: ~40 ms.
            self.request.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, True
            )
            self.rfile = self.request.makefile("rb")

        def finish(self):
            self.rfile.close()

        def handle(self):
            try:
                while self._serve_one():
                    pass
            except OSError:
                pass  # the peer went away mid-request

        def _serve_one(self):
            """Serve one request; ``True`` while the connection lives."""
            self.close_connection = True
            try:
                head = _read_head(self.rfile.readline)
                if head is None:
                    return False
                self.command, self.path, self.request_version, headers = head
                options = {
                    option.strip() for option in
                    headers.get("connection", "").lower().split(",")
                }
                if self.request_version == "HTTP/1.1":
                    self.close_connection = "close" in options
                else:
                    self.close_connection = "keep-alive" not in options
                if self.server.closing:
                    raise _Refusal(
                        503, Unavailable("the server is shutting down")
                    )
                self.body = self._read_body(headers)
                if self.body is None:
                    return False
            except _Refusal as refusal:
                self.close_connection = True
                self._respond(
                    error_response(None, refusal.error), refusal.status
                )
                self._linger()
                return False
            if self.command == "POST":
                self.do_POST()
            else:
                self.do_GET()
            return not self.close_connection

        def _read_body(self, headers):
            """The request body, or ``None`` when the peer hung up."""
            if self.command not in ("GET", "POST"):
                raise _bad(501, "method {} is not supported; GET /stats, "
                                "/healthz or /metrics, POST protocol "
                                "requests to /".format(self.command))
            if "transfer-encoding" in headers:
                raise _bad(501, "Transfer-Encoding is not supported; "
                                "send Content-Length")
            length = headers.get("content-length", "0")
            if not (length.isascii() and length.isdigit()):
                raise _bad(400, "malformed Content-Length {!r}".format(
                    length))
            length = int(length)
            if length > MAX_BODY_BYTES:
                raise _bad(413, "body of {} bytes exceeds the {} byte "
                                "cap".format(length, MAX_BODY_BYTES))
            if not length:
                return b""
            if self.request_version == "HTTP/1.1" and headers.get(
                    "expect", "").lower() == "100-continue":
                self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            body = self.rfile.read(length)
            return body if len(body) == length else None

        def _linger(self):
            """Read what the peer still sends, for at most a second, so
            closing with unread input does not reset the connection
            before the peer has read the refusal."""
            deadline = time.monotonic() + 1.0
            try:
                self.request.shutdown(socket.SHUT_WR)
                while deadline > time.monotonic():
                    self.request.settimeout(deadline - time.monotonic())
                    if not self.request.recv(65536):
                        break
            except (OSError, ValueError):
                pass

        def _respond(self, payload, status=200):
            self._send(status, json.dumps(payload).encode("utf-8"), _JSON)

        def _send(self, status, body, content_type):
            """Status line, headers and body in one write."""
            if self.server.closing:
                self.close_connection = True
            if self.close_connection:
                connection = "Connection: close\r\n"
            elif self.request_version == "HTTP/1.0":
                connection = "Connection: keep-alive\r\n"
            else:
                connection = ""
            head = "{}Server: {}\r\nDate: {}\r\nContent-Type: {}\r\n" \
                "Content-Length: {}\r\n{}\r\n".format(
                    _STATUS_LINES[status], _SERVER_HEADER, _DATE.date(),
                    content_type, len(body), connection,
                )
            self.request.sendall(head.encode("latin-1") + body)

        def _not_found(self, message):
            self._respond(error_response(None, BadRequest(message)), 404)

        def do_GET(self):
            track = self.server.track_request
            track(1)
            try:
                if self.path == "/healthz":
                    payload = face.healthz()
                    ok = bool(payload.get("ok", True))
                    self._respond(payload, status=200 if ok else 503)
                elif self.path == "/stats":
                    self._respond(face.dispatch({"op": "stats"}))
                elif self.path == "/metrics":
                    metrics_text = getattr(face, "metrics_text", None)
                    if metrics_text is None:
                        self._not_found("this face exposes no metrics")
                    else:
                        self._send(200, metrics_text().encode("utf-8"),
                                   _METRICS_CONTENT_TYPE)
                else:
                    self._not_found("GET serves /stats, /healthz and "
                                    "/metrics; POST protocol requests "
                                    "to /")
            finally:
                track(-1)

        def do_POST(self):
            track = self.server.track_request
            track(1)
            try:
                self._post()
            finally:
                track(-1)

        def _post(self):
            if self.path not in ("/", "/api"):
                self._not_found("POST to / or /api")
                return
            try:
                request = json.loads(self.body or b"null")
            except (ValueError, UnicodeDecodeError):
                self._respond(
                    error_response(
                        None, BadRequest("body is not valid JSON")
                    ),
                    status=400,
                )
                return
            op = request.get("op") if isinstance(request, dict) else None
            if chaos is not None and chaos.should_fail("http"):
                # The same type ("InjectedFault") and protocol/op
                # envelope every other injected fault reaches the wire
                # with — clients dispatch on one name for one fault
                # class.  No tracer: the refusal never entered a span.
                self._respond(
                    error_response(
                        op,
                        InjectedFault(
                            "injected fault at http: request refused"
                        ),
                    ),
                    status=503,
                )
                return
            try:
                response = face.dispatch(request)
            except ReproError as error:
                # A fault that escaped the protocol dispatcher (e.g.
                # raised while *serializing* a response) is still a
                # session-level event, not a server bug: answer with
                # the same typed shape the protocol uses — an
                # EvalFault / FuelExhausted / UpdateRejected must never
                # reach a client as an opaque 500.
                self._respond(
                    error_response(op, error, tracer=face.tracer),
                    status=500,
                )
                return
            except Exception as error:  # a server bug, not a client error
                self._respond(
                    {"ok": False,
                     "error": {"type": "InternalError",
                               "message": "{}: {}".format(
                                   type(error).__name__, error)}},
                    status=500,
                )
                return
            self._respond(response)

    return Handler


class _Server(socketserver.ThreadingTCPServer):
    """One thread per connection; counts requests in flight."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self.closing = False
        self.in_flight = 0
        self._in_flight_lock = threading.Lock()
        self.request_drained = threading.Event()
        self.request_drained.set()

    def track_request(self, delta):
        with self._in_flight_lock:
            self.in_flight += delta
            if self.in_flight == 0:
                self.request_drained.set()
            else:
                self.request_drained.clear()

    def shutdown(self):
        self.closing = True
        super().shutdown()


def make_server(target, port=0, bind="127.0.0.1", chaos=None):
    """A ready-to-serve threaded HTTP server on ``bind:port``.

    ``target`` is a :class:`SessionHost` or a cluster router face.
    ``port=0`` picks an ephemeral port; read the actual one from
    ``server.server_address[1]``.  The server tracks in-flight requests
    so :func:`shutdown_gracefully` can drain them.
    """
    server = _Server((bind, port), make_handler(target, chaos=chaos))
    server.repro_host = target
    return server


def shutdown_gracefully(server, journal=None, drain_timeout=5.0):
    """Stop accepting, finish in-flight requests, close the journal.

    Must be called from a thread other than the one running
    ``serve_forever`` (that is, from a signal-triggered helper thread —
    ``server.shutdown()`` waits for the serve loop to exit).  Returns
    ``True`` iff every in-flight request completed within
    ``drain_timeout``; either way the journal (when given) gets its
    clean-shutdown marker *after* the drain, so the marker truthfully
    claims every journaled op also finished executing.
    """
    server.shutdown()
    drained = server.request_drained.wait(drain_timeout)
    if journal is not None:
        journal.close()
    server.server_close()
    return drained
