"""The closed-loop HTTP client: runs steps, times them, checks every reply."""

from __future__ import annotations

import http.client
import json
import time

clock = time.perf_counter
#: This thread's run time; like the server's, it leaves out steal time.
thread_clock = time.thread_time

_MUTATING = ("create", "tap", "back", "edit_box", "batch", "edit_source")


class Tally:
    """Requests sent, succeeded and failed in one phase."""

    def __init__(self):
        self.sent = self.succeeded = self.failed = 0

    def add(self, other):
        self.sent += other.sent
        self.succeeded += other.succeeded
        self.failed += other.failed

    def as_dict(self):
        return {"sent": self.sent, "succeeded": self.succeeded,
                "failed": self.failed}


class Sessions:
    """What one connection knows about the sessions it owns.

    ``log`` keeps each session's mutating ops in the order the server
    acknowledged them (the oracle replays it); ``html`` is the last
    document the server served for the session.
    """

    def __init__(self):
        self.tokens = {}
        self.generation = {}
        self.html = {}
        self.log = {}


class Client:
    """One keep-alive connection to the server, owned by one thread."""

    def __init__(self, port, sessions):
        self.port = port
        self.sessions = sessions
        self.failures = []
        self.meter = None
        self.reset_counts()
        self._http = None

    def reset_counts(self):
        """Start the per-window counts (round trips, statuses, renders)."""
        self.rtt_seconds = 0.0
        self.statuses = {}
        self.not_modified = self.renders = 0
        self.html_bytes = self.html_renders = 0

    def _post(self, body):
        if self._http is None:
            self._http = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=60
            )
        payload = json.dumps(body).encode("utf-8")
        started = clock()
        try:
            self._http.request("POST", "/", payload,
                               {"Content-Type": "application/json"})
            response = self._http.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as error:
            self.close()
            self.rtt_seconds += clock() - started
            return None, "transport: {}".format(error)
        self.rtt_seconds += clock() - started
        if response.status != 200:
            return None, "HTTP {}: {}".format(response.status, data[:200])
        try:
            return json.loads(data), None
        except ValueError:
            return None, "reply is not JSON"

    def close(self):
        if self._http is not None:
            self._http.close()
            self._http = None

    def run_step(self, step, tally):
        """Send a step's requests in order; returns ``(wall seconds, run
        seconds)``, or ``None`` when any request failed.

        Run seconds are the processor time this thread and the server's
        threads (``self.meter``, a ``server.CpuMeter``) ran between the
        step's first request and its last reply; ``None`` without a meter.
        """
        _kind, requests = step
        server_before = self.meter.sample() if self.meter else None
        ran = thread_clock()
        started = clock()
        ok = True
        for request in requests:
            tally.sent += 1
            problem = self._request(request)
            if problem is None:
                tally.succeeded += 1
            else:
                tally.failed += 1
                ok = False
                if len(self.failures) < 20:
                    self.failures.append("{} {}: {}".format(
                        request["op"], request["session"], problem))
        wall = clock() - started
        ran = thread_clock() - ran
        if not ok:
            return None
        if server_before is None:
            return wall, None
        return wall, ran + self.meter.seconds_between(server_before,
                                                      self.meter.sample())

    def _request(self, request):
        known = self.sessions
        name = request["session"]
        op = request["op"]
        body = {key: value for key, value in request.items()
                if key not in ("session", "expect")}
        if op != "create":
            if name not in known.tokens:
                return "session was never created"
            body["token"] = known.tokens[name]
        if op == "render" and name in known.generation:
            body["generation"] = known.generation[name]
        reply, problem = self._post(body)
        if problem is not None:
            return problem
        if not isinstance(reply, dict) or reply.get("protocol") != 1 \
                or reply.get("op") != op:
            return "untyped reply {!r}".format(reply)[:200]
        if reply.get("ok") is not True:
            error = reply.get("error") or {}
            return "error {}: {}".format(error.get("type"),
                                         error.get("message"))
        if op == "create":
            known.tokens[name] = reply.get("token")
            known.log[name] = []
        if op in _MUTATING:
            known.log[name].append(body)
        if op == "edit_source":
            status = reply.get("status")
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if status != request["expect"]:
                return "edit status {} (expected {})".format(
                    status, request["expect"])
        if op == "render":
            return self._check_render(name, reply)
        return None

    def _check_render(self, name, reply):
        known = self.sessions
        self.renders += 1
        generation = reply.get("generation")
        last = known.generation.get(name)
        if not isinstance(generation, int):
            return "render without a generation"
        if reply.get("not_modified"):
            self.not_modified += 1
            if generation != last:
                return "not_modified at generation {} after {}".format(
                    generation, last)
            return None
        html = reply.get("html")
        if not isinstance(html, str):
            return "modified render without html"
        if last is not None and generation <= last:
            return "generation {} after {}".format(generation, last)
        known.generation[name] = generation
        known.html[name] = html
        self.html_bytes += len(html.encode("utf-8"))
        self.html_renders += 1
        return None


def http_get(port, path, timeout=10):
    """``GET path`` on a fresh connection: ``(status, text)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        connection.close()
