"""Length-prefixed frames over stdlib TCP sockets.

The cluster's one wire primitive: a **frame** is a 4-byte big-endian
length followed by that many payload bytes.  Protocol ops ride as JSON
frames (the same :mod:`repro.serve.protocol` objects HTTP carries —
one codec, two transports).  Everything is loopback-only: workers
bind ephemeral ports on :data:`LOOPBACK` and publish them through port
files.

Three pieces:

* :func:`send_frame` / :func:`recv_frame` — the framing itself;
* :class:`FrameServer` — a threaded accept loop (one thread per
  connection, mirroring :class:`ThreadingHTTPServer`) that answers each
  request frame with ``handler(payload)``'s reply frame, tracks
  in-flight requests and drains them on :meth:`~FrameServer.stop`;
* :class:`FrameClient` / :class:`ClientPool` — persistent request/reply
  connections; the pool hands concurrent front threads independent
  connections so one slow op never serializes a whole worker's traffic.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import struct
import threading

from ..core.errors import ReproError


def publish_port(port_file, port):
    """Write ``port`` to ``port_file`` atomically: the text goes to a
    temporary file that is then renamed over the target, so a reader
    polling for the file never sees it empty or partial.  Every serving
    process (``repro serve``, the cluster front and each worker)
    advertises its port so."""
    tmp = port_file + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(str(port))
    os.replace(tmp, port_file)


_HEADER = struct.Struct(">I")

#: The only address a frame server listens on: frames carry the
#: cluster-internal ops (drain, adopt a named journal), which must
#: never face the network.
LOOPBACK = "127.0.0.1"

#: Frames above this are refused — a corrupt header must not allocate
#: gigabytes.  Session images ride in frames, so the cap is generous.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class TransportError(ReproError):
    """The peer vanished or spoke garbage mid-frame."""


def send_frame(sock, payload):
    """Write one length-prefixed frame (a single ``sendall``)."""
    if len(payload) > MAX_FRAME_BYTES:
        raise TransportError(
            "frame of {} bytes exceeds the {} byte cap".format(
                len(payload), MAX_FRAME_BYTES
            )
        )
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exactly(sock, count):
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock):
    """One frame's payload, or ``None`` on clean EOF between frames."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            "peer announced a {} byte frame (cap {})".format(
                length, MAX_FRAME_BYTES
            )
        )
    payload = _recv_exactly(sock, length)
    if payload is None:
        raise TransportError("peer closed mid-frame")
    return payload


def encode_json(obj):
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def decode_json(payload):
    return json.loads(payload.decode("utf-8"))


class FrameServer:
    """Threaded request/reply server over frames.

    ``handler(payload: bytes) -> bytes`` runs on a per-connection
    thread; a handler exception closes that connection (the client sees
    a transport error and retries or reports) but never kills the
    server.  :meth:`stop` closes the listener, optionally waits for
    in-flight handlers to drain, then closes lingering connections —
    the graceful-shutdown contract workers rely on.
    """

    def __init__(self, handler, port=0, backlog=64):
        self._handler = handler
        self._listener = socket.create_server(
            (LOOPBACK, port), backlog=backlog, reuse_port=False
        )
        self._address = self._listener.getsockname()
        self._connections = set()
        self._lock = threading.Lock()
        self._in_flight = 0
        self._drained = threading.Event()
        self._drained.set()
        self._stopping = False
        self._accept_thread = None

    @property
    def address(self):
        """``(host, port)`` the server is listening on."""
        return self._address

    def start(self):
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="frame-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self):
        while True:
            try:
                connection, _peer = self._listener.accept()
            except OSError:
                return  # listener closed: shutdown
            with self._lock:
                if self._stopping:
                    connection.close()
                    return
                self._connections.add(connection)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="frame-conn",
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, connection):
        try:
            while True:
                try:
                    payload = recv_frame(connection)
                except (TransportError, OSError):
                    return
                if payload is None:
                    return
                with self._lock:
                    self._in_flight += 1
                    self._drained.clear()
                try:
                    reply = self._handler(payload)
                finally:
                    with self._lock:
                        self._in_flight -= 1
                        if self._in_flight == 0:
                            self._drained.set()
                try:
                    send_frame(connection, reply)
                except OSError:
                    return
        except Exception:
            return  # a handler bug poisons one connection, not the server
        finally:
            with self._lock:
                self._connections.discard(connection)
            try:
                connection.close()
            except OSError:
                pass

    def stop(self, drain_timeout=5.0):
        """Stop accepting, drain in-flight handlers, close connections.

        Returns ``True`` iff every in-flight request finished within
        ``drain_timeout`` (the caller logs a hard cut otherwise).
        """
        with self._lock:
            self._stopping = True
        try:
            self._listener.close()
        except OSError:
            pass
        drained = self._drained.wait(drain_timeout)
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.close()
            except OSError:
                pass
        return drained


class FrameClient:
    """One persistent request/reply connection (serialized by a lock)."""

    def __init__(self, address, timeout=30.0):
        self.address = tuple(address)
        self.timeout = timeout
        self._lock = threading.Lock()
        self._sock = None

    def _connect(self):
        sock = socket.create_connection(self.address, timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def request(self, payload):
        """Send one frame, wait for the reply frame.

        Raises :class:`TransportError` when the peer is gone — callers
        (the front's forwarding layer) translate that into revive-and-
        retry or a typed protocol error, never a hang.
        """
        with self._lock:
            try:
                if self._sock is None:
                    self._sock = self._connect()
                send_frame(self._sock, payload)
                reply = recv_frame(self._sock)
            except (OSError, TransportError) as error:
                self.close_locked()
                raise TransportError(
                    "worker connection to {}:{} failed: {}".format(
                        self.address[0], self.address[1], error
                    )
                ) from error
            if reply is None:
                self.close_locked()
                raise TransportError(
                    "worker at {}:{} closed the connection".format(
                        self.address[0], self.address[1]
                    )
                )
            return reply

    def close_locked(self):
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self):
        with self._lock:
            self.close_locked()


class ClientPool:
    """A bounded pool of :class:`FrameClient` connections to one peer.

    ``request`` borrows a connection (blocking when all ``size`` are in
    use — natural backpressure per worker), performs one round trip and
    returns it.  A failed connection is returned too: it reconnects
    lazily on its next use, so a respawned worker needs no pool rebuild
    beyond its new address being set via :meth:`retarget`.
    """

    def __init__(self, address, size=4, timeout=30.0):
        self._timeout = timeout
        self._idle = queue.Queue()
        self._clients = []
        self._address = tuple(address)
        for _ in range(max(1, size)):
            client = FrameClient(self._address, timeout=timeout)
            self._clients.append(client)
            self._idle.put(client)

    def retarget(self, address):
        """Point every pooled connection at a new address (respawn)."""
        self._address = tuple(address)
        for client in self._clients:
            with client._lock:
                client.address = self._address
                client.close_locked()

    def request(self, payload):
        client = self._idle.get()
        try:
            return client.request(payload)
        finally:
            self._idle.put(client)

    def request_json(self, obj):
        return decode_json(self.request(encode_json(obj)))

    def close(self):
        for client in self._clients:
            client.close()
