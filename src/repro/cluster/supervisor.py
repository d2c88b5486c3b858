"""The cluster supervisor: spawn, watch, revive, rebalance.

One supervisor owns N worker *slots*.  Each slot is a subprocess
(``python -m repro.cluster.worker``) with a stable identity — its
journal directory, its config file, its port file all live under
``<journal_root>/worker-<slot>/`` — so a dead worker is replaced by
**respawning the slot in place**: the new process recovers every session
from the slot's write-ahead journal and the front's connection pool is
retargeted at the new port.  ``kill -9`` of any worker is therefore
invisible beyond latency: nothing acknowledged is lost, display
generations keep strictly increasing (``repro.resilience``'s floor), and
the replayed HTML is byte-identical.

Workers always listen on loopback: ``bind`` is the HTTP front's
address only, never the frame sockets that carry the internal
``__drain__``/``__adopt__`` ops.

**Rebalance** (:meth:`ClusterSupervisor.retire`) removes a slot
permanently: the ring drops it first (new traffic already routes
around), the worker is drained, and each of its journaled tokens is
adopted by the slot now owning it on the shrunken ring — exactly the
arcs the retired slot owned move, nothing else (consistent hashing's
promise, :mod:`repro.cluster.ring`).

A monitor thread polls every worker (process liveness each tick, a
``__status__`` frame over the socket) and revives silently-dead ones;
``cluster.worker_respawns`` counts every revival.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import threading
import time

from ..core.errors import ReproError
from ..obs.trace import NULL_TRACER
from ..resilience.journal import Journal
from .ring import HashRing
from .transport import LOOPBACK, ClientPool, TransportError

#: How long a spawn may take to publish its port before it is declared
#: stillborn.  Generous: a cold worker may replay a long journal first.
SPAWN_TIMEOUT = 60.0

#: Respawn backoff (per slot): a worker that dies within
#: RESPAWN_STABLE_SECONDS of its spawn is crash-looping, and each
#: consecutive rapid death doubles the delay before the *next* respawn
#: (base * 2^(streak-1), capped, ±25% jitter so a fleet of crash-loopers
#: doesn't thunder back in lockstep).  A worker that stays up past the
#: stability window resets its streak.
RESPAWN_BACKOFF_BASE = 0.5
RESPAWN_BACKOFF_CAP = 30.0
RESPAWN_STABLE_SECONDS = 5.0


class WorkerDied(ReproError):
    """A worker process exited (or never came up) when it was needed."""


class _Slot:
    """One worker slot: directories, the live process, its pools."""

    __slots__ = ("slot", "directory", "journal_dir", "config_path",
                 "port_file", "log_path", "process", "pool", "ping",
                 "port", "restarts", "retired", "lock", "last_ping",
                 "last_spawn", "crash_streak", "backoff_until")

    def __init__(self, slot, directory):
        self.slot = slot
        self.directory = directory
        self.journal_dir = os.path.join(directory, "journal")
        self.config_path = os.path.join(directory, "config.json")
        self.port_file = os.path.join(directory, "port")
        self.log_path = os.path.join(directory, "worker.log")
        self.process = None
        self.pool = None        # forwarding connections (front threads)
        self.ping = None        # one short-timeout probe connection
        self.port = None
        self.restarts = 0
        self.retired = False
        self.lock = threading.Lock()   # serializes spawn/revive/retire
        # monotonic time of the last successful __status__ round trip;
        # healthz reports its age so a wedged-but-alive worker (process
        # up, socket unresponsive) is visible before it is dead.
        self.last_ping = None
        # Respawn backoff state: when this slot last spawned, how many
        # consecutive *rapid* deaths it has suffered, and (when armed)
        # the monotonic time before which revive refuses to respawn.
        self.last_spawn = None
        self.crash_streak = 0
        self.backoff_until = None

    @property
    def alive(self):
        return self.process is not None and self.process.poll() is None


def _python_path():
    """PYTHONPATH for worker children: wherever *this* repro lives."""
    import repro

    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)
    ))
    existing = os.environ.get("PYTHONPATH")
    if existing:
        return src_root + os.pathsep + existing
    return src_root


class ClusterSupervisor:
    """Owns the worker fleet and the hash ring.

    ``source`` is the default app every worker serves (the ``create``
    op may still carry its own).  ``journal_root`` anchors each slot's
    journal directory; by default a fresh temp directory, but pointing
    it somewhere durable makes the whole cluster crash-recoverable.
    ``bind`` records the HTTP front's address; worker frame sockets
    listen on loopback regardless.
    """

    def __init__(
        self,
        source=None,
        workers=2,
        journal_root=None,
        pool_size=16,
        checkpoint_every=25,
        quarantine_after=3,
        session_kwargs=None,
        fault_policy="record",
        fuel=None,
        deadline=None,
        latency=None,
        bind="127.0.0.1",
        connections_per_worker=4,
        ping_interval=1.0,
        drain_timeout=5.0,
        tracer=None,
        repair=None,
        journal_fsync="none",
    ):
        if workers < 1:
            raise ReproError("a cluster needs at least one worker")
        self.source = source
        self.bind = bind
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics_lock = threading.Lock()
        self.journal_root = journal_root or tempfile.mkdtemp(
            prefix="repro-cluster-"
        )
        self._worker_config = {
            "pool_size": pool_size,
            "checkpoint_every": checkpoint_every,
            "quarantine_after": quarantine_after,
            "session_kwargs": dict(session_kwargs or {}),
            "fault_policy": fault_policy,
            "fuel": fuel,
            "deadline": deadline,
            "latency": latency,
            "drain_timeout": drain_timeout,
            # Live repair (repro.repair): True or a RepairBudget-field
            # dict arms automatic search on every worker; searches run
            # on worker background threads, off the request path.
            "repair": (
                dataclasses.asdict(repair)
                if dataclasses.is_dataclass(repair) else repair
            ),
            "journal_fsync": journal_fsync,
        }
        self._connections_per_worker = connections_per_worker
        self._ping_interval = ping_interval
        self._drain_timeout = drain_timeout
        self._slots = {}
        for index in range(workers):
            directory = os.path.join(
                self.journal_root, "worker-{}".format(index)
            )
            os.makedirs(directory, exist_ok=True)
            self._slots[index] = _Slot(index, directory)
        self.ring = HashRing(self._slots)
        self._stopping = threading.Event()
        self._monitor = None

    def _count(self, name, amount=1):
        with self._metrics_lock:
            self.tracer.add(name, amount)

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        for slot in self._slots.values():
            self._spawn(slot)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def stop(self):
        """Drain every worker gracefully."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self._ping_interval * 3)
        for slot in self._slots.values():
            with slot.lock:
                self._stop_slot(slot)

    def _stop_slot(self, slot):
        """Slot lock held: ask for a drain, escalate if ignored."""
        if slot.process is None:
            return
        if slot.alive and slot.ping is not None:
            try:
                slot.ping.request_json({"op": "__drain__"})
            except TransportError:
                pass
        try:
            slot.process.wait(timeout=self._drain_timeout + 2.0)
        except subprocess.TimeoutExpired:
            slot.process.terminate()
            try:
                slot.process.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                slot.process.kill()
                slot.process.wait()
        if slot.pool is not None:
            slot.pool.close()
        if slot.ping is not None:
            slot.ping.close()

    # -- spawning -----------------------------------------------------------

    def _config_for(self, slot):
        config = dict(self._worker_config)
        config.update({
            "slot": slot.slot,
            "source": self.source,
            "journal_dir": slot.journal_dir,
            "port_file": slot.port_file,
        })
        return config

    def _spawn(self, slot):
        """Slot lock held (or single-threaded start): launch + handshake."""
        with open(slot.config_path, "w") as handle:
            json.dump(self._config_for(slot), handle)
        try:
            os.remove(slot.port_file)
        except OSError:
            pass
        env = dict(os.environ)
        env["PYTHONPATH"] = _python_path()
        log = open(slot.log_path, "ab")
        try:
            slot.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cluster.worker",
                 slot.config_path],
                stdout=log, stderr=log, env=env,
            )
        finally:
            log.close()
        slot.last_spawn = time.monotonic()
        slot.port = self._await_port(slot)
        address = (LOOPBACK, slot.port)
        if slot.pool is None:
            slot.pool = ClientPool(
                address, size=self._connections_per_worker
            )
        else:
            slot.pool.retarget(address)
        if slot.ping is None:
            slot.ping = ClientPool(address, size=1, timeout=5.0)
        else:
            slot.ping.retarget(address)

    def _await_port(self, slot):
        import time

        deadline = time.monotonic() + SPAWN_TIMEOUT
        while time.monotonic() < deadline:
            if os.path.exists(slot.port_file):
                try:
                    with open(slot.port_file) as handle:
                        return int(handle.read().strip())
                except (OSError, ValueError):
                    pass  # racing the atomic rename; retry
            if slot.process.poll() is not None:
                raise WorkerDied(
                    "worker {} exited with status {} before "
                    "listening (log: {})".format(
                        slot.slot, slot.process.returncode, slot.log_path
                    )
                )
            time.sleep(0.02)
        raise WorkerDied(
            "worker {} did not publish a port within {}s".format(
                slot.slot, SPAWN_TIMEOUT
            )
        )

    # -- routing + liveness -------------------------------------------------

    def slot_for(self, token):
        """The slot index owning ``token`` on the current ring."""
        return self.ring.lookup(token)

    def pool_for(self, slot_index):
        slot = self._slots[slot_index]
        if slot.pool is None:
            raise WorkerDied(
                "worker {} has never been spawned".format(slot_index)
            )
        return slot.pool

    def revive(self, slot_index):
        """Respawn a dead worker in place; returns True when it respawned.

        The slot's journal directory survives the corpse, so the
        replacement recovers every session before listening — by the
        time the port file reappears, all acknowledged state is back.
        Rechecks liveness under the slot lock: concurrent front threads
        all hitting a dead worker fold into one respawn.

        A crash-looping worker (dead again within
        ``RESPAWN_STABLE_SECONDS`` of its spawn) is respawned under
        exponential backoff: each rapid death arms a jittered delay
        window during which further revive attempts raise
        :class:`WorkerDied` *without* spawning — the monitor's next
        ticks and on-demand front revives cost a clock read, not a
        subprocess, so a worker that dies instantly at boot cannot
        hot-spin the supervisor.
        """
        import random

        slot = self._slots[slot_index]
        with slot.lock:
            if slot.retired:
                raise WorkerDied(
                    "worker {} is retired".format(slot_index)
                )
            if slot.alive:
                return False
            now = time.monotonic()
            if slot.backoff_until is not None and now < slot.backoff_until:
                raise WorkerDied(
                    "worker {} is in respawn backoff for {:.1f}s more "
                    "(crash streak {})".format(
                        slot_index, slot.backoff_until - now,
                        slot.crash_streak,
                    )
                )
            if slot.process is not None:
                try:
                    slot.process.wait(timeout=0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass
            rapid = (
                slot.last_spawn is not None
                and now - slot.last_spawn < RESPAWN_STABLE_SECONDS
            )
            slot.crash_streak = slot.crash_streak + 1 if rapid else 0
            self._spawn(slot)
            slot.restarts += 1
            self._count("cluster.worker_respawns")
            if slot.crash_streak > 0:
                delay = min(
                    RESPAWN_BACKOFF_CAP,
                    RESPAWN_BACKOFF_BASE * 2 ** (slot.crash_streak - 1),
                ) * random.uniform(0.75, 1.25)
                slot.backoff_until = time.monotonic() + delay
                self._count("cluster.worker_respawn_backoffs")
            else:
                slot.backoff_until = None
            return True

    def _monitor_loop(self):
        while not self._stopping.wait(self._ping_interval):
            for slot in self._slots.values():
                if slot.retired or self._stopping.is_set():
                    continue
                if not slot.alive:
                    try:
                        self.revive(slot.slot)
                    except (WorkerDied, ReproError):
                        pass  # next tick retries; front revives on demand
                elif slot.ping is not None:
                    # Liveness beyond the process table: a __status__
                    # round trip proves the worker *answers*.  Its age
                    # (healthz's last_ping_age_seconds) is the only
                    # signal for a wedged-but-running worker.
                    try:
                        slot.ping.request_json({"op": "__status__"})
                        slot.last_ping = time.monotonic()
                    except TransportError:
                        pass  # age keeps growing; healthz shows it

    # -- rebalance ----------------------------------------------------------

    def retire(self, slot_index):
        """Remove a slot permanently, moving its tokens to their heirs.

        Ring first (new creates and requests already route around the
        retiree), then drain, then adoption: each journaled token is
        replayed into the slot that now owns it.  Returns the list of
        ``(token, new_slot)`` moves.
        """
        slot = self._slots[slot_index]
        with slot.lock:
            if slot.retired:
                raise ReproError(
                    "worker {} is already retired".format(slot_index)
                )
            if len(self.ring) == 1:
                raise ReproError("cannot retire the last worker")
            self.ring = self.ring.without(slot_index)
            slot.retired = True
            self._stop_slot(slot)
        moves = []
        journal = Journal(slot.journal_dir)
        for token in journal.tokens():
            heir = self.ring.lookup(token)
            response = self.pool_for(heir).request_json({
                "op": "__adopt__",
                "token": token,
                "journal_dir": slot.journal_dir,
            })
            if response.get("ok") and response.get("adopted"):
                moves.append((token, heir))
        return moves

    # -- introspection ------------------------------------------------------

    def healthz(self):
        """Cluster liveness: per-worker state plus per-worker healthz."""
        workers = []
        all_alive = True
        for slot in sorted(self._slots.values(), key=lambda s: s.slot):
            info = {
                "slot": slot.slot,
                "alive": slot.alive,
                "retired": slot.retired,
                "restarts": slot.restarts,
                "pid": (slot.process.pid
                        if slot.process is not None else None),
            }
            if slot.backoff_until is not None:
                remaining = slot.backoff_until - time.monotonic()
                if remaining > 0:
                    info["respawn_backoff_seconds"] = round(remaining, 3)
                    info["crash_streak"] = slot.crash_streak
            if slot.retired:
                workers.append(info)
                continue
            if not slot.alive:
                all_alive = False
            elif slot.ping is not None:
                try:
                    status = slot.ping.request_json({"op": "__status__"})
                    slot.last_ping = time.monotonic()
                    info["healthz"] = status.get("healthz")
                except TransportError:
                    info["alive"] = False
                    all_alive = False
            # Age of the last successful liveness ping (monitor loop or
            # this call): a growing age on an "alive" worker means
            # wedged, not healthy — degraded-but-up, made visible.
            info["last_ping_age_seconds"] = (
                round(time.monotonic() - slot.last_ping, 3)
                if slot.last_ping is not None else None
            )
            workers.append(info)
        return {
            "ok": all_alive,
            "role": "cluster",
            "workers": workers,
            "ring_slots": list(self.ring.slots),
        }

    def worker_stats(self):
        """Each live worker's ``stats`` op response payload, by slot."""
        stats = {}
        for slot in self._slots.values():
            if slot.retired or slot.pool is None:
                continue
            try:
                response = slot.ping.request_json({"op": "stats"})
            except TransportError:
                continue
            if response.get("ok"):
                stats[slot.slot] = response.get("stats")
        return stats

    def metrics(self):
        with self._metrics_lock:
            return self.tracer.metrics()

    def observability_snapshot(self):
        """``(counters, gauges, histograms)`` of the front process's own
        tracer (routing counters, frame round trips, …) — the
        front-side contribution to ``/metrics``."""
        with self._metrics_lock:
            return (
                dict(self.tracer.counters),
                dict(self.tracer.gauges),
                self.tracer.histogram_snapshots(),
            )

    def worker_metrics(self):
        """Each live worker's ``__metrics__`` payload, by slot."""
        payloads = {}
        for slot in self._slots.values():
            if slot.retired or slot.ping is None:
                continue
            try:
                response = slot.ping.request_json({"op": "__metrics__"})
            except TransportError:
                continue
            if response.get("ok"):
                payloads[slot.slot] = response
        return payloads

    def worker_traces(self, trace_id):
        """Serialized span dicts for ``trace_id`` from every live
        worker — the remote halves of one distributed trace."""
        spans = []
        for slot in sorted(self._slots.values(), key=lambda s: s.slot):
            if slot.retired or slot.ping is None:
                continue
            try:
                response = slot.ping.request_json(
                    {"op": "__trace__", "trace_id": trace_id}
                )
            except TransportError:
                continue
            if response.get("ok"):
                spans.extend(response.get("spans") or ())
        return spans

    def slot_gauges(self):
        """Per-slot liveness gauges for ``/metrics``: up/respawns/ping
        age, each as a labeled per-worker series (never summed)."""
        now = time.monotonic()
        up, respawns, ping_age = {}, {}, {}
        for slot in sorted(self._slots.values(), key=lambda s: s.slot):
            label = str(slot.slot)
            up[label] = 0 if slot.retired else int(slot.alive)
            respawns[label] = slot.restarts
            if slot.last_ping is not None:
                ping_age[label] = round(now - slot.last_ping, 3)
        gauges = {
            "cluster.worker.up": up,
            "cluster.worker.respawns": respawns,
        }
        if ping_age:
            gauges["cluster.worker.ping_age_seconds"] = ping_age
        return gauges
