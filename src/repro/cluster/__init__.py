"""repro.cluster — sharded multi-process serving.

The single-process server (:mod:`repro.serve`) hosts many sessions in
one process; this package shards that host across N worker processes:

* :mod:`.ring` — consistent hashing, token → worker slot;
* :mod:`.transport` — length-prefixed frames over loopback TCP;
* :mod:`.worker` — one :class:`~repro.serve.host.SessionHost` behind a
  frame socket, write-ahead journaled, ``python -m``-spawnable;
* :mod:`.supervisor` — spawns/watches/revives workers, rebalances
  tokens on retire;
* :mod:`.frontend` — the HTTP-facing router.

``kill -9`` of any worker is invisible beyond latency: the slot's
write-ahead journal (:mod:`repro.resilience`) rebuilds every session in
the respawn, byte-identical, with strictly increasing display
generations.  Sessions on the same worker warm each other through the
worker's one digest-keyed
:class:`~repro.incremental.store.MemoStore`.
"""

from .frontend import ClusterRouter, WorkerUnavailable
from .ring import HashRing
from .supervisor import ClusterSupervisor, WorkerDied
from .transport import FrameClient, FrameServer, TransportError
from .worker import Worker, adopt_session, worker_main

__all__ = [
    "ClusterRouter",
    "ClusterSupervisor",
    "FrameClient",
    "FrameServer",
    "HashRing",
    "TransportError",
    "Worker",
    "WorkerDied",
    "WorkerUnavailable",
    "adopt_session",
    "worker_main",
]
