"""The HTTP/1.1 loop on the wire: keep-alive, framing limits, refusals.

Driven over raw sockets and :mod:`http.client`, so every byte the
server writes is visible.  Every refusal must be the protocol's typed
JSON envelope, never an HTML error page.
"""

import http.client
import json
import shutil
import socket
import threading
import urllib.request

import pytest

from repro.api import Tracer
from repro.apps.counter import SOURCE as COUNTER
from repro.serve.app import make_server
from repro.serve.host import SessionHost


def serve(target):
    server = make_server(target)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


@pytest.fixture
def port():
    host = SessionHost(pool_size=4, default_source=COUNTER, tracer=Tracer())
    server, thread = serve(host)
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def connect(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    return sock, sock.makefile("rb")


def read_response(reader):
    """``(status, headers, body)`` of one response off a raw reader."""
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", "0")))
    return status, headers, body


def post_bytes(body, extra=b"", version=b"HTTP/1.1"):
    return (
        b"POST / " + version + b"\r\nHost: x\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n" + extra
        + b"\r\n" + body
    )


def raw_exchange(port, data):
    """Send ``data`` on a fresh connection; the one response to it and
    whether the server closed the connection afterwards."""
    sock, reader = connect(port)
    try:
        sock.sendall(data)
        status, headers, body = read_response(reader)
        sock.settimeout(0.5)
        try:
            closed = reader.read(1) == b""
        except TimeoutError:
            closed = False  # still open, waiting for the next request
    finally:
        reader.close()
        sock.close()
    return status, headers, body, closed


def assert_typed(status, headers, body, expected):
    assert status == expected
    assert headers["content-type"] == "application/json"
    reply = json.loads(body)
    assert reply["ok"] is False
    assert reply["error"]["type"] == "BadRequest"
    assert reply["error"]["message"]
    return reply


class TestKeepAlive:
    def test_a_hundred_requests_share_one_connection(self, port):
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=10)
        try:
            connection.request("POST", "/", json.dumps({"op": "create"}))
            token = json.loads(connection.getresponse().read())["token"]
            sock = connection.sock
            for n in range(100):
                connection.request("POST", "/", json.dumps(
                    {"op": "tap", "token": token,
                     "text": "count: {}".format(n)}))
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["ok"]
                assert connection.sock is sock  # never reconnected
            connection.request("POST", "/", json.dumps(
                {"op": "render", "token": token}))
            html = json.loads(connection.getresponse().read())["html"]
            assert "count: 100" in html
        finally:
            connection.close()

    def test_connection_close_is_honoured(self, port):
        # urllib sends ``Connection: close`` with every request.
        request = urllib.request.Request(
            "http://127.0.0.1:{}/".format(port),
            data=json.dumps({"op": "stats"}).encode("utf-8"),
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["Connection"] == "close"
            assert json.loads(response.read())["ok"]

    def test_http_10_closes_unless_asked_to_keep_alive(self, port):
        body = json.dumps({"op": "stats"}).encode()
        status, headers, reply, closed = raw_exchange(
            port, post_bytes(body, version=b"HTTP/1.0")
        )
        assert status == 200 and json.loads(reply)["ok"]
        assert headers["connection"] == "close"
        assert closed
        sock, reader = connect(port)
        try:
            request = post_bytes(body, b"Connection: keep-alive\r\n",
                                 version=b"HTTP/1.0")
            for _ in range(2):
                sock.sendall(request)
                status, headers, reply = read_response(reader)
                assert status == 200
                assert headers["connection"] == "keep-alive"
        finally:
            reader.close()
            sock.close()

    def test_expect_100_continue_answers_before_the_body(self, port):
        body = json.dumps({"op": "stats", "pad": "x" * 70_000}).encode()
        head, payload = post_bytes(
            body, b"Expect: 100-continue\r\n"
        ).split(b"\r\n\r\n", 1)
        sock, reader = connect(port)
        try:
            sock.sendall(head + b"\r\n\r\n")
            # Nothing of the body is sent until the interim reply.
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(payload)
            status, _headers, reply = read_response(reader)
            assert status == 200 and json.loads(reply)["ok"]
        finally:
            reader.close()
            sock.close()

    def test_pipelined_requests_are_answered_in_order(self, port):
        first = post_bytes(json.dumps({"op": "stats"}).encode())
        second = post_bytes(json.dumps({"op": "frobnicate"}).encode())
        sock, reader = connect(port)
        try:
            sock.sendall(first + second)
            replies = [json.loads(read_response(reader)[2])
                       for _ in range(2)]
        finally:
            reader.close()
            sock.close()
        assert replies[0]["op"] == "stats" and replies[0]["ok"]
        assert replies[1]["op"] == "frobnicate"
        assert replies[1]["error"]["type"] == "BadRequest"


class TestRefusals:
    def test_header_line_over_64_kib_is_431(self, port):
        status, headers, body, closed = raw_exchange(
            port, post_bytes(b"{}", b"X-Big: " + b"a" * 70_000 + b"\r\n")
        )
        assert_typed(status, headers, body, 431)
        assert closed

    def test_more_than_100_headers_is_431(self, port):
        many = b"".join(
            "X-H{}: v\r\n".format(n).encode() for n in range(101)
        )
        status, headers, body, _closed = raw_exchange(
            port, post_bytes(b"{}", many)
        )
        assert_typed(status, headers, body, 431)

    def test_a_hundred_headers_are_accepted(self, port):
        many = b"".join(
            "X-H{}: v\r\n".format(n).encode() for n in range(97)
        )  # plus Host, Content-Type and Content-Length
        status, _headers, body, _closed = raw_exchange(
            port, post_bytes(json.dumps({"op": "stats"}).encode(), many)
        )
        assert status == 200 and json.loads(body)["ok"]

    def test_conflicting_content_length_is_400(self, port):
        status, headers, body, closed = raw_exchange(
            port, post_bytes(b"{}", b"Content-Length: 5\r\n")
        )
        assert_typed(status, headers, body, 400)
        assert closed

    def test_folded_header_is_400(self, port):
        status, headers, body, _closed = raw_exchange(
            port, post_bytes(b"{}", b"X-A: one\r\n two\r\n")
        )
        assert_typed(status, headers, body, 400)

    def test_garbage_request_line_is_400(self, port):
        status, headers, body, closed = raw_exchange(
            port, b"GARBAGE\r\n\r\n"
        )
        reply = assert_typed(status, headers, body, 400)
        assert "request line" in reply["error"]["message"]
        assert closed

    def test_put_is_501(self, port):
        status, headers, body, _closed = raw_exchange(
            port, b"PUT / HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
        )
        assert_typed(status, headers, body, 501)

    def test_oversized_body_is_413_before_it_is_read(self, port):
        status, headers, body, _closed = raw_exchange(
            port,
            b"POST / HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 999999999\r\n\r\n",
        )
        assert_typed(status, headers, body, 413)

    def test_unknown_path_is_a_typed_404(self, port):
        status, headers, body, closed = raw_exchange(
            port, b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert_typed(status, headers, body, 404)
        assert not closed  # a well-framed request keeps the connection


def test_new_requests_after_shutdown_are_refused():
    host = SessionHost(pool_size=2, default_source=COUNTER, tracer=Tracer())
    server, thread = serve(host)
    sock, reader = connect(server.server_address[1])
    try:
        request = post_bytes(json.dumps({"op": "stats"}).encode())
        sock.sendall(request)
        assert read_response(reader)[0] == 200
        server.shutdown()
        sock.sendall(request)
        status, headers, body = read_response(reader)
        assert status == 503
        assert headers["connection"] == "close"
        assert json.loads(body)["error"]["type"] == "Unavailable"
    finally:
        reader.close()
        sock.close()
        server.server_close()
        thread.join(timeout=5)


def test_relayed_cluster_reply_names_the_stitched_trace():
    from repro.cluster import ClusterRouter, ClusterSupervisor

    supervisor = ClusterSupervisor(
        source=COUNTER, workers=2, tracer=Tracer()
    ).start()
    server, thread = serve(ClusterRouter(supervisor))
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.server_address[1], timeout=30
    )

    def post(payload):
        connection.request("POST", "/", json.dumps(payload))
        return json.loads(connection.getresponse().read())

    try:
        token = post({"op": "create"})["token"]
        rendered = post({"op": "render", "token": token})
        assert rendered["ok"] and "count: 0" in rendered["html"]
        trace_id = rendered["trace_id"]
        spans = post({"op": "stats", "trace_id": trace_id})["trace"]
        names = {span["name"] for span in spans}
        assert {"op.render", "rpc.render"} <= names
        assert all(span["attrs"].get("trace_id") == trace_id
                   for span in spans if span["name"] == "rpc.render")
    finally:
        connection.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        root = supervisor.journal_root
        supervisor.stop()
        shutil.rmtree(root, ignore_errors=True)
