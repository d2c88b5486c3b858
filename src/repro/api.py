"""``repro.api`` — the consolidated public surface.

One front door for the five classes an embedding application needs:

* :class:`LiveSession` — a running program plus its editable source
  (the headless IDE of Fig. 2);
* :class:`Runtime` — one program's transition system with a
  conversational driver (tap/edit/back) and fault policies;
* :class:`SessionHost` — the multi-session server: token-keyed pool,
  image-backed eviction, circuit breakers;
* :class:`Journal` — write-ahead durability for a host's sessions;
* :class:`Tracer` — structured tracing and the metric catalog;
* :class:`Histogram` / :func:`percentile` — mergeable latency
  histograms and the exact percentile helper (``repro.obs.histo``).

The cluster layer (:mod:`repro.cluster`) is re-exported by name:
:class:`ClusterSupervisor` / :class:`ClusterRouter` shard a host across
worker processes behind one HTTP front, and :class:`MemoStore` is the
render-memo cache every :class:`SessionHost` shares among its sessions
(a standalone session can be pointed at one via the ``memo_store``
keyword).

The journal's observability layer (:mod:`repro.provenance`) is
re-exported by name: :class:`TimeMachine` plus the three query
functions :func:`replay_to`, :func:`divergence_report` and :func:`why`
— deterministic replay, trace replay against edited code, and
provenance queries over a recorded session.

The five classes take **keyword-only** configuration (the one
genuinely positional argument — the source text, the code, the journal
directory — stays positional), so call sites read as configuration and
adding a parameter can never silently reinterpret an existing call.

The names here *are* the defining classes (``repro.api.LiveSession is
repro.live.session.LiveSession``): this module consolidates names, it
declares nothing.  The sub-packages (``repro.live``, ``repro.system``,
``repro.serve``, ``repro.resilience``, ``repro.obs``) do not re-export
these five classes.
"""

from __future__ import annotations

from .cluster import ClusterRouter, ClusterSupervisor
from .incremental.store import MemoStore
from .live.session import EditResult, LiveSession
from .obs.histo import Histogram, percentile
from .obs.trace import Tracer
from .provenance import (
    DivergenceReport,
    ReplayResult,
    TimeMachine,
    WhyReport,
    divergence_report,
    replay_session,
    replay_to,
    why,
)
from .repair import (
    RepairBudget,
    RepairReport,
    generate_candidates,
    search_repairs,
)
from .resilience.journal import Journal
from .serve.host import SessionHost
from .system.runtime import Runtime

__all__ = [
    "ClusterRouter",
    "ClusterSupervisor",
    "DivergenceReport",
    "EditResult",
    "Histogram",
    "Journal",
    "LiveSession",
    "MemoStore",
    "RepairBudget",
    "RepairReport",
    "ReplayResult",
    "Runtime",
    "SessionHost",
    "TimeMachine",
    "Tracer",
    "WhyReport",
    "divergence_report",
    "generate_candidates",
    "percentile",
    "replay_session",
    "replay_to",
    "search_repairs",
    "why",
]
