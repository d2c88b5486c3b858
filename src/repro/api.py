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
shared render-memo cache sessions can be pointed at via the
``memo_store`` keyword.

The journal's observability layer (:mod:`repro.provenance`) is
re-exported by name: :class:`TimeMachine` plus the three query
functions :func:`replay_to`, :func:`divergence_report` and :func:`why`
— deterministic replay, trace replay against edited code, and
provenance queries over a recorded session.

Everything here takes **keyword-only** configuration (the one or two
genuinely positional arguments — the source text, the code, the journal
directory — stay positional), so call sites read as configuration and
adding a parameter can never silently reinterpret an existing call.

The sub-packages (``repro.live``, ``repro.system``, ``repro.serve``,
``repro.resilience``, ``repro.obs``) do not re-export these five
classes; the defining modules (``repro.live.session`` etc.) remain the
implementation — this module is the *name* consolidation, not a
rewrite.
"""

from __future__ import annotations

from .cluster import ClusterRouter, ClusterSupervisor
from .eval.natives import EMPTY_NATIVES
from .incremental.store import MemoStore
from .live.session import EditResult
from .live.session import LiveSession as _LiveSession
from .obs.histo import Histogram, percentile
from .obs.trace import Tracer as _Tracer
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
from .resilience.journal import Journal as _Journal
from .serve.host import SessionHost as _SessionHost
from .system.runtime import Runtime as _Runtime

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


class LiveSession(_LiveSession):
    """:class:`repro.live.session.LiveSession` with keyword-only config."""

    def __init__(
        self,
        source,
        *,
        host_impls=None,
        services=None,
        faithful=False,
        reuse_boxes=False,
        memo_render=False,
        tracer=None,
        fault_policy="raise",
        budget=None,
        chaos=None,
        supervised=False,
        memo_store=None,
        backend=None,
    ):
        super().__init__(
            source,
            host_impls=host_impls,
            services=services,
            faithful=faithful,
            reuse_boxes=reuse_boxes,
            memo_render=memo_render,
            tracer=tracer,
            fault_policy=fault_policy,
            budget=budget,
            chaos=chaos,
            supervised=supervised,
            memo_store=memo_store,
            backend=backend,
        )


class Runtime(_Runtime):
    """:class:`repro.system.runtime.Runtime` with keyword-only config."""

    def __init__(
        self,
        code,
        *,
        natives=EMPTY_NATIVES,
        services=None,
        faithful=False,
        reuse_boxes=False,
        memo_render=False,
        fault_policy="raise",
        tracer=None,
        budget=None,
        chaos=None,
        memo_store=None,
        backend=None,
    ):
        super().__init__(
            code,
            natives=natives,
            services=services,
            faithful=faithful,
            reuse_boxes=reuse_boxes,
            memo_render=memo_render,
            fault_policy=fault_policy,
            tracer=tracer,
            budget=budget,
            chaos=chaos,
            memo_store=memo_store,
            backend=backend,
        )


class SessionHost(_SessionHost):
    """:class:`repro.serve.host.SessionHost` with keyword-only config."""

    def __init__(
        self,
        *,
        pool_size=16,
        default_source=None,
        make_host_impls=None,
        make_services=None,
        tracer=None,
        session_kwargs=None,
        quarantine_after=3,
        journal=None,
        memo_store=None,
        repair=None,
        backend=None,
    ):
        super().__init__(
            pool_size=pool_size,
            default_source=default_source,
            make_host_impls=make_host_impls,
            make_services=make_services,
            tracer=tracer,
            session_kwargs=session_kwargs,
            quarantine_after=quarantine_after,
            journal=journal,
            memo_store=memo_store,
            repair=repair,
            backend=backend,
        )


class Journal(_Journal):
    """:class:`repro.resilience.journal.Journal` with keyword-only config."""

    def __init__(
        self, directory, *, checkpoint_every=50, tracer=None,
        fsync="none", fsync_interval=1.0,
    ):
        super().__init__(
            directory, checkpoint_every=checkpoint_every, tracer=tracer,
            fsync=fsync, fsync_interval=fsync_interval,
        )


class Tracer(_Tracer):
    """:class:`repro.obs.trace.Tracer` with keyword-only config."""

    def __init__(self, *, sinks=None, id_prefix=None):
        super().__init__(sinks=sinks, id_prefix=id_prefix)
