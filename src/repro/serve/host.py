"""The multi-session host: registry, locks, LRU pool, image eviction.

A :class:`SessionHost` owns many live programs at once.  Each session is
keyed by an opaque token and guarded by its own lock, so HTTP worker
threads can drive different sessions concurrently while operations on
one session stay serialized.

**Pooling.**  Only ``pool_size`` sessions are *resident* (a full
:class:`~repro.live.session.LiveSession`: compiled code, evaluator,
display).  When the pool overflows, the least-recently-used idle
sessions are **evicted**: serialized to session images with
:func:`repro.persist.save_image` and dropped.  The next request for an
evicted session transparently **rehydrates** it with
:func:`~repro.persist.load_image`.  Because loading an image *is* an
UPDATE (the saved state is fixed up against the code with the Fig. 12
relation), eviction is invisible to clients: the rehydrated display is
byte-identical to a never-evicted one, and an ``edit_source`` arriving
while the session is paged out behaves exactly like a live edit.

**Generations.**  Every session carries a display generation — a counter
bumped whenever the HTML document of its display actually changes.  A
dirty render builds the document once
(:func:`repro.render.html_backend.render_html`, whose frozen subtrees
serve their cached fragments) and hashes that document's bytes; the
hash survives eviction, so a rehydrated session keeps its generation.
``render`` requests carrying the client's last generation get a
304-style "not modified" answer without re-rendering.

**Memo sharing.**  The host owns one
:class:`~repro.incremental.store.MemoStore` and gives every session a
view over it, on a lone ``repro serve`` host and on each cluster worker
alike.  A memo key is the whole input of a render call, so one
session's renders replay in every other session whose code and read
values match — who produced an entry does not matter.  Hits on another
session's entries count ``cluster.memo.shared_hits``.

**Resilience.**  Every state-changing op runs through a per-session
**circuit breaker**: ``quarantine_after`` consecutive faulting
operations open it, after which interactions are refused with the typed
:class:`~repro.core.errors.SessionQuarantined` error while ``render``
keeps serving the last-good document — degraded, never dead.  An
``edit_source`` that applies cleanly (the programmer fixing the bug)
closes the breaker.  Attaching a
:class:`~repro.resilience.journal.Journal` additionally write-ahead
logs every state-changing op with periodic image checkpoints, so
:func:`repro.resilience.recover` can rebuild every session after a
crash.  See ``docs/RESILIENCE.md``.

**Metrics.**  The host records ``sessions_created`` /
``sessions_evicted`` / ``sessions_rehydrated`` / ``renders_coalesced`` /
``bytes_served`` / ``sessions_quarantined`` / ``journal_events`` into
the shared metric catalog (``repro.obs.CATALOG``); counter updates are
serialized behind a lock because :class:`~repro.obs.Tracer` itself is
single-threaded by design.
"""

from __future__ import annotations

import json
import secrets
import threading
from collections import OrderedDict
from contextlib import contextmanager
from types import MappingProxyType

from ..core.errors import EvalError, ReproError, SessionQuarantined
from ..incremental.store import MemoStore, SessionMemoView
from ..live.session import LiveSession
from ..obs.sinks import InMemorySink
from ..obs.trace import NULL_TRACER, Tracer
from ..persist import load_image, save_image
# ``display_fingerprint`` is imported for perfbench/layers.py, which wraps
# it as the ``render.fingerprint`` layer; serving hashes the document it
# built instead, so that layer reads 0.
from ..render.html_backend import (  # noqa: F401
    content_hash,
    display_fingerprint,
    render_html,
)
from ..system.services import Services
from .batching import apply_batch

#: The session posture every serving path runs (``repro serve``, each
#: cluster worker) and every replay of their journals rebuilds: faults
#: are recorded and edits supervised (repro.resilience), so a user's
#: division by zero degrades one session and never kills the server.
#: Servers add their deployment's budget and backend on top.
SERVE_POSTURE = MappingProxyType(
    {"fault_policy": "record", "supervised": True}
)


#: Finished spans a serving process keeps in memory for trace fetches
#: (``stats`` with a ``trace_id``, ``repro trace --cluster``): the traces
#: of the last thousand or so requests.  A span costs ~0.5 KiB, so this
#: bound — not the request count — caps a long-running server's trace
#: memory; ``--trace-jsonl`` streams the full history to disk instead.
SERVER_SPANS = 4096


def server_tracer(id_prefix=None):
    """The tracer a serving process records into (single host, cluster
    front, each cluster worker)."""
    return Tracer(
        sinks=[InMemorySink(max_spans=SERVER_SPANS)], id_prefix=id_prefix
    )


class UnknownToken(ReproError):
    """No session (resident or evicted) is registered under this token."""


class _Entry:
    """One hosted session: either resident (``session``) or an image."""

    __slots__ = (
        "token", "lock", "session", "image",
        "generation", "html", "html_bytes", "fingerprint", "dirty", "title",
        "consecutive_faults", "quarantined",
        "repair_report", "repair_thread",
    )

    def __init__(self, token, session, title):
        self.token = token
        # Deliberately non-reentrant: eviction probes busyness with a
        # non-blocking acquire, which must fail even when the probing
        # thread itself is the one using the session.
        self.lock = threading.Lock()
        self.session = session     # LiveSession when resident, else None
        self.image = None          # (source, image JSON) when evicted
        self.generation = 0        # bumped when the HTML bytes change
        self.html = None           # last rendered document
        self.html_bytes = 0        # its UTF-8 length, for ``bytes_served``
        self.fingerprint = None    # content hash behind ``generation``
        self.dirty = True          # a mutation may have changed the view
        self.title = title
        # Circuit breaker (repro.resilience): faults on consecutive
        # operations open the breaker; the entry outlives eviction, so
        # paging a faulty session out does not reset its record.
        self.consecutive_faults = 0
        self.quarantined = False
        # Live repair (repro.repair): the latest search report and the
        # background thread computing it, if a search is in flight.
        self.repair_report = None
        self.repair_thread = None

    @property
    def resident(self):
        return self.session is not None


class _GuardedOutcome:
    """What a ``_guarded`` body reports back: did the op actually run
    against the runtime?  Rejected edits clear the flag so they leave
    the breaker's fault streak untouched."""

    __slots__ = ("executed",)

    def __init__(self):
        self.executed = True


class SessionHost:
    """A registry of live sessions behind an LRU pool.

    ``make_services`` / ``make_host_impls`` are factories called once per
    session construction *and* once per rehydration, so every session
    gets a fresh virtual clock and substrate set (virtual time and
    request counts are not part of the persistent image — only code and
    state are, exactly as in :mod:`repro.persist`).  A render call that
    may reach a native replays in another session only if both got the
    same implementation objects from ``make_host_impls``.

    ``session_kwargs`` (e.g. :data:`SERVE_POSTURE`, or
    ``backend="tree"``) are passed to every session; sessions always
    run with the null tracer — host-level metrics live on
    ``self.tracer``.
    """

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
        repair=None,
    ):
        if pool_size < 1:
            raise ReproError("pool_size must be at least 1")
        if quarantine_after is not None and quarantine_after < 1:
            raise ReproError("quarantine_after must be at least 1 or None")
        self.pool_size = pool_size
        self.default_source = default_source
        self._make_host_impls = make_host_impls or dict
        self._make_services = make_services or Services
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.session_kwargs = dict(session_kwargs or {})
        #: Circuit breaker threshold: this many *consecutive* faulting
        #: operations quarantine a session (``None`` disables).  A
        #: quarantined session refuses interactions with the typed
        #: :class:`~repro.core.errors.SessionQuarantined` error but
        #: keeps serving its last-good display — degraded, never dead —
        #: and a successfully *applied* ``edit_source`` (the programmer
        #: fixing the bug) closes the breaker again.
        self.quarantine_after = quarantine_after
        #: Write-ahead journal (repro.resilience) — attach one and every
        #: state-changing op is logged before it runs, with periodic
        #: image checkpoints; see :func:`repro.resilience.recover`.
        self.journal = journal
        self._adopt_journal_tracer()
        #: The memo store every session — created, restored or
        #: rehydrated — reads and writes through its own view (see
        #: *Memo sharing* above).
        self.memo_store = MemoStore(tracer=self.tracer)
        #: Live repair (repro.repair).  ``repair=True`` (or a
        #: :class:`~repro.repair.RepairBudget`) arms *automatic* repair
        #: search: a rolled-back ``edit_source`` or a breaker opening
        #: launches a budgeted candidate search on a background thread —
        #: the live session is never touched, so the search stays off
        #: the request path.  ``None`` leaves only the explicit
        #: ``repair_search`` entry point.
        if repair is True:
            from ..repair import RepairBudget

            repair = RepairBudget()
        self.repair = repair
        self._lock = threading.Lock()          # registry + LRU order
        self._metrics_lock = threading.Lock()  # tracer counter updates
        self._entries = {}                     # token -> _Entry, every one
        self._resident = OrderedDict()         # token -> _Entry, LRU order

    # -- metrics ------------------------------------------------------------

    def _count(self, name, amount=1):
        with self._metrics_lock:
            self.tracer.add(name, amount)

    def metrics(self):
        """Counter/gauge snapshot (``{}`` with the null tracer)."""
        with self._metrics_lock:
            return self.tracer.metrics()

    # -- session lifecycle --------------------------------------------------

    def create(self, source=None, title=None, token=None):
        """Boot a new live session; returns its token.

        ``source`` defaults to the host's ``default_source`` (the app the
        server was started with).  ``token`` installs the session under a
        caller-chosen token instead of a freshly minted one — the cluster
        front mints tokens itself so it can consistent-hash them to a
        worker *before* the create lands (see :mod:`repro.cluster`).
        """
        if source is None:
            source = self.default_source
        if source is None:
            raise ReproError(
                "create needs a source (the host has no default app)"
            )
        if token is None:
            token = "s-" + secrets.token_hex(8)
        elif not isinstance(token, str) or not token:
            raise ReproError("create token must be a non-empty string")
        session = self._make_session(source, token)
        entry = _Entry(token, session, title or token)
        with self._lock:
            if token in self._entries:
                raise ReproError(
                    "token {!r} is already registered".format(token)
                )
            self._entries[token] = entry
            self._resident[token] = entry
        if self.journal is not None:
            self.journal.record_create(token, source, entry.title)
        self._count("sessions_created")
        self._enforce_capacity(protect=entry)
        return token

    def _session_kwargs_for(self, token):
        """Per-session construction kwargs; wires the shared memo view."""
        return dict(
            self.session_kwargs,
            memo_store=SessionMemoView(
                self.memo_store, origin=token, count=self._count
            ),
        )

    def _make_session(self, source, token):
        return LiveSession(
            source,
            host_impls=self._make_host_impls(),
            services=self._make_services(),
            **self._session_kwargs_for(token)
        )

    def restore(self, token, source=None, image=None, title=None):
        """Install a session under a *known* token (journal recovery).

        ``image`` restores a checkpoint (loading is an UPDATE with the
        Fig. 12 fix-up); ``source`` boots fresh, for sessions journaled
        before their first checkpoint.  The journal replays events on
        top afterwards.
        """
        if image is not None:
            session = load_image(
                image,
                host_impls=self._make_host_impls(),
                services=self._make_services(),
                **self._session_kwargs_for(token)
            )
        elif source is not None:
            session = self._make_session(source, token)
        else:
            raise ReproError("restore needs an image or a source")
        entry = _Entry(token, session, title or token)
        meta = getattr(session, "last_restore_meta", None) or {}
        entry.generation = meta.get("generation", 0)
        with self._lock:
            if token in self._entries:
                raise ReproError(
                    "token {!r} is already registered".format(token)
                )
            self._entries[token] = entry
            self._resident[token] = entry
        self._enforce_capacity(protect=entry)
        return token

    def complete_recovery(self, token, generation_floor):
        """Seal one recovered session (see :func:`repro.resilience.recover`).

        Renders are not journaled, so the pre-crash server may have
        acknowledged display generations ahead of anything replay
        rebuilds; re-issuing those numbers for different content would
        let a stale client poll into ``not_modified`` forever.  The
        floor (derived from the journal's global sequence, which bounds
        every pre-crash generation) restarts the counter strictly past
        them, and priming the document and its fingerprint keeps the
        next render from spending an extra bump on the restore itself.
        """
        with self.session(token) as entry:
            entry.generation = max(entry.generation, generation_floor)
            entry.fingerprint = self._keep_document(
                entry, render_html(entry.session.display, title=entry.title)
            )
            entry.dirty = True

    def attach_journal(self, journal):
        """Start write-ahead journaling (after recovery has replayed)."""
        self.journal = journal
        self._adopt_journal_tracer()

    def _adopt_journal_tracer(self):
        """Give an untraced journal the host's tracer.

        Span stamping (journal record ↔ tracer span, both directions)
        only works when the journal appends against the *same* tracer
        whose span is open around the op — adopting it here makes
        ``Journal(dir)`` + a traced host correlate out of the box.
        """
        if (self.journal is not None and self.tracer.enabled
                and not self.journal.tracer.enabled):
            self.journal.tracer = self.tracer

    def tokens(self):
        with self._lock:
            return tuple(self._entries)

    def has_token(self, token):
        """Is a session (resident or evicted) registered under ``token``?"""
        with self._lock:
            return token in self._entries

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def _checkout(self, token):
        """Find + LRU-touch an entry (registry lock only)."""
        with self._lock:
            entry = self._entries.get(token)
            if entry is None:
                raise UnknownToken(
                    "no session with token {!r}".format(token)
                )
            if token in self._resident:
                self._resident.move_to_end(token)
            return entry

    def session(self, token):
        """Context manager: the entry, locked and resident.

        Rehydrates an evicted session before yielding.  All public
        per-session operations go through this, so a session is only
        ever touched by one thread at a time.
        """
        return _LockedSession(self, token)

    def _rehydrate(self, entry):
        """Entry lock held: rebuild the LiveSession from its image."""
        source, text = entry.image
        image = json.loads(text)
        image["source"] = source
        entry.session = load_image(
            image,
            host_impls=self._make_host_impls(),
            services=self._make_services(),
            **self._session_kwargs_for(entry.token)
        )
        entry.image = None
        entry.dirty = True  # recompute + compare; generation is stable
        with self._lock:
            if self._entries.get(entry.token) is entry:  # not destroyed
                self._resident[entry.token] = entry  # most recently used
        self._count("sessions_rehydrated")
        self._enforce_capacity(protect=entry)

    # -- eviction -----------------------------------------------------------

    def _enforce_capacity(self, protect=None):
        """Evict LRU idle residents until the pool fits ``pool_size``.

        Only resident entries are walked (``_resident``, kept in LRU
        order beside the full registry), so the cost follows the pool,
        not the number of evicted sessions.  Busy sessions (their lock
        is held) are skipped — they are in use, hence not idle; the pool
        may transiently overflow if everything is busy.  Lock order is
        registry → entry(non-blocking), which cannot deadlock against
        the entry → registry order used by rehydration and ``evict``.
        """
        with self._lock:
            excess = len(self._resident) - self.pool_size
            if excess <= 0:
                return 0
            evicted = 0
            for entry in list(self._resident.values()):  # LRU order
                if excess <= 0:
                    break
                if not entry.resident:  # ``evict`` is dropping it
                    del self._resident[entry.token]
                    excess -= 1
                    continue
                if entry is protect:
                    continue
                if not entry.lock.acquire(blocking=False):
                    continue
                try:
                    self._evict_entry(entry)
                    del self._resident[entry.token]
                    evicted += 1
                    excess -= 1
                finally:
                    entry.lock.release()
            return evicted

    def _evict_entry(self, entry):
        """Entry lock held: serialize to an image and drop the session.

        The image is kept as its source (shared with every session
        running it) and the compact JSON text of the rest, a fraction of
        the memory of the nested lists it encodes.  The HTML document
        goes too, unless the session is quarantined (degraded service
        serves it).  Every other render rehydrates first and rebuilds it
        at most once; the kept fingerprint means the rebuild bumps no
        generation.
        """
        image = save_image(
            entry.session,
            meta={"token": entry.token, "generation": entry.generation},
        )
        source = image.pop("source")
        entry.image = (source, json.dumps(image, separators=(",", ":")))
        entry.session = None
        if not entry.quarantined:
            entry.html = None
        self._count("sessions_evicted")

    def evict(self, token):
        """Force-evict one session (idempotent; returns True if evicted)."""
        entry = self._checkout(token)
        with entry.lock:
            if not entry.resident:
                return False
            self._evict_entry(entry)
            with self._lock:
                self._resident.pop(token, None)
            return True

    def evicted(self, token):
        """Is the session currently paged out to an image?"""
        return not self._checkout(token).resident

    # -- circuit breaker + write-ahead journaling ---------------------------

    @contextmanager
    def _guarded(self, entry, op=None, args=None):
        """Wrap one state-changing op on a locked, resident entry.

        Order matters: the quarantine gate first (refused ops are never
        journaled — they do not run), then the write-ahead journal
        append (the op is durable *before* it executes, so a crash
        mid-op replays it), then breaker accounting around the op
        itself.  Faults count whether they propagate (``"raise"``
        policy) or are recorded in the session (``"record"`` policy).

        Yields a mutable outcome whose ``executed`` flag the body may
        clear: only ops that actually ran against the runtime close the
        fault streak — a rejected ``edit_source`` (compile/type error)
        never touched it, so it must neither count as a fault nor
        launder one.
        """
        if entry.quarantined and op != "edit_source":
            raise SessionQuarantined(
                "session {} is quarantined after {} consecutive faulting "
                "operations; fix it with edit_source or read its "
                "degraded display via render".format(
                    entry.token, entry.consecutive_faults
                )
            )
        # One tracer span per state-changing op (best-effort under
        # concurrent traffic: the Tracer is single-threaded by design,
        # so interleaved requests may mis-nest spans — counters stay
        # correct either way).  The span is open *before* the journal
        # append, so the record is stamped with its span_id and the
        # span is annotated with the record's journal_seq.
        span = None
        if self.tracer.enabled and op is not None:
            span = self.tracer.span("op." + op, token=entry.token)
        try:
            checkpoint_due = False
            if self.journal is not None and op is not None:
                checkpoint_due = self.journal.record_event(
                    entry.token, op, args or {}
                )
            outcome = _GuardedOutcome()
            faults_before = len(entry.session.runtime.faults)
            try:
                yield outcome
            except EvalError:
                self._note_fault(entry, op, args)
                raise
            recorded = len(entry.session.runtime.faults) - faults_before
            if recorded > 0:
                # Sessions run with the null tracer; surface their
                # recorded faults in the host-level metrics.
                self._count("faults_recorded", recorded)
                self._note_fault(entry, op, args)
            elif outcome.executed:
                entry.consecutive_faults = 0
            if checkpoint_due:
                self._checkpoint(entry)
        finally:
            if span is not None:
                span.finish()

    def _note_fault(self, entry, op=None, args=None):
        entry.consecutive_faults += 1
        if (self.quarantine_after is not None
                and not entry.quarantined
                and entry.consecutive_faults >= self.quarantine_after):
            entry.quarantined = True
            self._count("sessions_quarantined")
            if self.repair is not None:
                self._repair_on_breaker(entry, op, args or {})

    def _repair_on_breaker(self, entry, op, args):
        """Breaker just opened: localize via the faulting event's display
        path (the ``why()`` box ↔ code join, live) and launch a search.
        Entry lock held; never raises — repair is best-effort."""
        try:
            from ..repair import locus_from_selection

            session = entry.session
            faults = session.runtime.faults
            fault = faults[-1] if faults else None
            locus = locus_from_selection(
                session,
                path=args.get("path"),
                text=args.get("text"),
                fault=fault,
            )
            last_good = (
                session._undo_stack[-1] if session._undo_stack else None
            )
            self._launch_repair(
                entry,
                trigger="breaker",
                faulting_source=session.source,
                last_good_source=(
                    last_good if last_good != session.source else None
                ),
                suspects=locus.suspects,
                fault=fault,
            )
        except Exception:
            pass

    def _checkpoint(self, entry):
        """Entry lock held: append a full image checkpoint to the journal."""
        self.journal.record_checkpoint(
            entry.token,
            save_image(
                entry.session,
                meta={"token": entry.token, "generation": entry.generation},
            ),
        )

    def is_quarantined(self, token):
        """Is the session's circuit breaker currently open?"""
        return self._checkout(token).quarantined

    # -- per-session operations --------------------------------------------

    def tap(self, token, path=None, text=None):
        if text is None and path is None:
            raise ReproError("tap needs a path or a text")
        args = {"text": text} if text is not None else {"path": list(path)}
        with self.session(token) as entry:
            with self._guarded(entry, "tap", args):
                if text is not None:
                    entry.session.tap_text(text)
                else:
                    entry.session.tap(tuple(path))
                entry.dirty = True
            return entry.session.runtime.page_name()

    def back(self, token):
        with self.session(token) as entry:
            with self._guarded(entry, "back"):
                entry.session.back()
                entry.dirty = True
            return entry.session.runtime.page_name()

    def edit_box(self, token, path, text):
        with self.session(token) as entry:
            with self._guarded(
                entry, "edit_box", {"path": list(path), "text": text}
            ):
                entry.session.edit_box(tuple(path), text)
                entry.dirty = True
            return entry.session.runtime.page_name()

    def batch(self, token, events):
        """Apply a burst of events with one render (see ``batching``)."""
        from ..resilience.journal import encode_batch_events

        with self.session(token) as entry:
            with self._guarded(
                entry, "batch", {"events": encode_batch_events(events)}
            ):
                report = apply_batch(entry.session, events)
                entry.dirty = True
        if report.coalesced:
            self._count("renders_coalesced", report.coalesced)
        return report

    def edit_source(self, token, new_source):
        """Live-apply an edit; works identically on evicted sessions.

        Rehydration runs first (load = UPDATE with the Fig. 12 fix-up),
        then the edit takes the ordinary
        :meth:`~repro.live.session.LiveSession.edit_source` path — so an
        edit-while-evicted is exactly a save → edit → resume.

        This is also the *repair path* for a quarantined session: it is
        the one state-changing op the quarantine gate admits, and an
        edit that applies cleanly closes the circuit breaker.
        """
        with self.session(token) as entry:
            faults_before = len(entry.session.runtime.faults)
            with self._guarded(
                entry, "edit_source", {"source": new_source}
            ) as outcome:
                result = entry.session.edit_source(new_source)
                # A rejected edit never touched the runtime: it must
                # not break (or pad) the breaker's fault streak.
                outcome.executed = result.status != "rejected"
                if result.applied:
                    entry.dirty = True
            clean = len(entry.session.runtime.faults) == faults_before
            if entry.quarantined and result.applied and clean:
                entry.quarantined = False
                entry.consecutive_faults = 0
            if result.status == "rolled_back" and self.repair is not None:
                self._repair_on_rollback(entry, new_source)
            return result

    def _repair_on_rollback(self, entry, new_source):
        """A supervised UPDATE just rolled back: the running code is the
        last-good program, the buffer holds the faulting text, and the
        old/new declaration diff is the localization.  Entry lock held;
        never raises — repair is best-effort."""
        try:
            from ..repair import changed_decl_names

            session = entry.session
            last_good = (
                session._undo_stack[-1] if session._undo_stack else None
            )
            faults = session.runtime.faults
            self._launch_repair(
                entry,
                trigger="rollback",
                faulting_source=new_source,
                last_good_source=last_good,
                suspects=(
                    changed_decl_names(last_good, new_source)
                    if last_good is not None else ()
                ),
                fault=faults[-1] if faults else None,
            )
        except Exception:
            pass

    def probe(self, token, expression):
        with self.session(token) as entry:
            return entry.session.probe_expr(expression)

    def render(self, token, if_generation=None):
        """``(html, generation, modified)`` for the session's display.

        When the client's ``if_generation`` still matches (and nothing
        mutated since the last render), the HTML is not even recomputed —
        the 304 path costs a dirty-flag check.  ``html`` is ``None`` iff
        ``modified`` is False.

        A dirty render builds the document once.  Frozen subtrees the
        render memo replayed serve their cached fragments, so the build
        costs what changed, not the page.  A document equal to the cached
        one is a short circuit (``incremental.html_short_circuits``);
        otherwise its bytes are hashed, and the generation moves iff the
        hash does.
        """
        with self.session(token) as entry:
            if entry.quarantined and entry.html is not None:
                # Degraded service: the last-good document, no recompute
                # — a quarantined session never dies, it dims.
                if if_generation == entry.generation:
                    return None, entry.generation, False
                self._count("bytes_served", entry.html_bytes)
                return entry.html, entry.generation, True
            if not entry.dirty and if_generation == entry.generation:
                return None, entry.generation, False
            html = render_html(entry.session.display, title=entry.title)
            if html == entry.html:
                html = entry.html
                self._count("incremental.html_short_circuits")
            else:
                fingerprint = self._keep_document(entry, html)
                if fingerprint != entry.fingerprint:
                    entry.generation += 1
                    entry.fingerprint = fingerprint
            entry.dirty = False
            if if_generation == entry.generation:
                return None, entry.generation, False
            self._count("bytes_served", entry.html_bytes)
            return html, entry.generation, True

    @staticmethod
    def _keep_document(entry, html):
        """Cache ``html`` as the entry's document; returns its hash."""
        data = html.encode("utf-8")
        entry.html = html
        entry.html_bytes = len(data)
        return content_hash(data)

    def screenshot(self, token, width=48):
        with self.session(token) as entry:
            return entry.session.screenshot(width=width)

    def snapshot(self, token):
        """The session's persist image, without evicting it."""
        with self.session(token) as entry:
            return save_image(
                entry.session,
                meta={
                    "token": entry.token,
                    "generation": entry.generation,
                },
            )

    def source(self, token):
        with self.session(token) as entry:
            return entry.session.source

    # -- provenance & time travel (repro.provenance) ------------------------

    def history(self, token, limit=None):
        """The session's journal timeline, newest-last, images omitted.

        Each item is a JSON-clean summary — ``seq``, ``kind``, plus
        ``op``/``args`` for events and ``span_id`` when the record was
        written under a traced op — cheap enough to serve as the
        ``history`` protocol op even for long journals (the read is a
        lazy stream; checkpoint images never leave the file).  ``limit``
        keeps only the most recent items.  Destroyed sessions still have
        history: the journal is append-only memory, not the registry.
        """
        journal = self._require_journal()
        if journal.start_offset(token) is None:
            self._checkout(token)  # raises UnknownToken when nowhere
        from collections import deque

        items = deque(maxlen=limit)
        for record in journal.records_for(token):
            summary = {"seq": record["seq"], "kind": record["kind"]}
            if record["kind"] == "event":
                summary["op"] = record.get("op")
                summary["args"] = record.get("args") or {}
            if record.get("span_id") is not None:
                summary["span_id"] = record["span_id"]
            items.append(summary)
        return list(items)

    def why(self, token, path=None, text=None):
        """Provenance query against the journaled history (see
        :func:`repro.provenance.why`): replays the session cold with
        capture on, so it costs a full replay — a debugging op, not a
        rendering-path one."""
        journal = self._require_journal()
        from ..provenance import why as provenance_why

        report = provenance_why(
            journal, token, path=path, text=text,
            make_host_impls=self._make_host_impls,
            make_services=self._make_services,
            session_kwargs=self.session_kwargs,
        )
        self._count("provenance.queries")
        self._count("provenance.events_linked", len(report.events))
        return report

    def replay_check(self, token, edited_source):
        """Divergence report for ``edited_source`` against the recorded
        trace (see :func:`repro.provenance.divergence_report`)."""
        journal = self._require_journal()
        from ..provenance import divergence_report

        report = divergence_report(
            journal, edited_source, token=token,
            make_host_impls=self._make_host_impls,
            make_services=self._make_services,
            session_kwargs=self.session_kwargs,
        )
        self._count("replay.sessions", 2)
        self._count("replay.events", report.events_replayed * 2)
        if report.diverged:
            self._count("replay.divergences")
        return report

    def _require_journal(self):
        if self.journal is None:
            raise ReproError(
                "this host has no journal — history, why and replay "
                "need one (serve with --journal-dir)"
            )
        return self.journal

    # -- live repair (repro.repair) -----------------------------------------

    def _repair_budget(self, budget=None):
        from ..repair import RepairBudget

        if budget is not None:
            return budget
        if isinstance(self.repair, RepairBudget):
            return self.repair
        return RepairBudget()

    def _launch_repair(
        self, entry, *, trigger, faulting_source,
        last_good_source, suspects, fault,
    ):
        """Kick off a background search for ``entry`` (entry lock held).

        At most one search per session is in flight; the thread
        validates candidates only against throwaway replayed systems —
        it never takes the entry lock, which is what keeps the search
        off the request path.
        """
        if entry.repair_thread is not None and entry.repair_thread.is_alive():
            return
        entry.repair_report = None
        budget = self._repair_budget()

        def run():
            from ..repair import search_repairs

            try:
                entry.repair_report = search_repairs(
                    self.journal,
                    entry.token,
                    faulting_source=faulting_source,
                    last_good_source=last_good_source,
                    suspects=suspects,
                    trigger=trigger,
                    fault=fault,
                    budget=budget,
                    make_host_impls=self._make_host_impls,
                    make_services=self._make_services,
                    session_kwargs=self.session_kwargs,
                    count=self._count,
                    observe=self.tracer.observe,
                )
            except Exception:
                pass  # best-effort: a failed search leaves no report

        entry.repair_thread = threading.Thread(
            target=run, name="repair-" + entry.token, daemon=True
        )
        entry.repair_thread.start()

    def repair_info(self, token):
        """The session's repair state, JSON-clean: ``status`` is
        ``searching`` (a background search is in flight), ``ready`` (a
        report is available — with its ranked candidate summaries), or
        ``none``."""
        entry = self._checkout(token)
        thread = entry.repair_thread
        if thread is not None and thread.is_alive():
            return {"status": "searching"}
        report = entry.repair_report
        if report is None:
            return {"status": "none"}
        return self.report_info(report)

    @staticmethod
    def report_info(report):
        """A :class:`~repro.repair.RepairReport` as the JSON-clean
        ``repair`` payload (summaries only — apply routes by rank, so
        candidate source text never rides the envelope)."""
        return {
            "status": "ready",
            "trigger": report.trigger,
            "found": report.found,
            "generated": report.generated,
            "searched": report.searched,
            "wall_seconds": report.wall_seconds,
            "budget_exhausted": report.budget_exhausted,
            "fault": report.fault,
            "repairs": report.summaries(),
        }

    def repair_wait(self, token, timeout=None):
        """Block until the in-flight search (if any) finishes; returns
        :meth:`repair_info`.  Test/CLI convenience — servers poll."""
        thread = self._checkout(token).repair_thread
        if thread is not None:
            thread.join(timeout)
        return self.repair_info(token)

    def repair_search(self, token, budget=None):
        """Search for repairs *now*, synchronously; returns the
        :class:`~repro.repair.RepairReport` (also stored, so a later
        ``repair{apply}`` can route by rank).

        The faulting program is the session's edit buffer when it holds
        text the supervisor refused (a rolled-back UPDATE leaves the
        buffer at the faulting source while the runtime keeps last-good
        code); otherwise the running program itself is searched — the
        breaker case, where live traffic faults the accepted code.
        """
        from ..repair import changed_decl_names, search_repairs

        with self.session(token) as entry:
            session = entry.session
            last_good = (
                session._undo_stack[-1] if session._undo_stack else None
            )
            faulting = session.source
            rolled_back = last_good is not None and faulting != last_good
            suspects = (
                changed_decl_names(last_good, faulting)
                if rolled_back else ()
            )
            faults = session.runtime.faults
            fault = faults[-1] if faults else None
            trigger = "rollback" if rolled_back else "manual"
        report = search_repairs(
            self.journal,
            token,
            faulting_source=faulting,
            last_good_source=last_good if rolled_back else None,
            suspects=suspects,
            trigger=trigger,
            fault=fault,
            budget=self._repair_budget(budget),
            make_host_impls=self._make_host_impls,
            make_services=self._make_services,
            session_kwargs=self.session_kwargs,
            count=self._count,
            observe=self.tracer.observe,
        )
        entry.repair_report = report
        return report

    def repair_apply(self, token, rank):
        """Apply the ranked candidate as an ordinary supervised edit.

        A repair is *just an edit*: it routes through
        :meth:`edit_source`, so it must pass the same Supervisor (and an
        applied repair closes an open breaker exactly like a hand-written
        fix).  Returns ``(edit_result, candidate)``.
        """
        report = self._checkout(token).repair_report
        if report is None:
            raise ReproError(
                "session {} has no repair report — run a repair search "
                "first".format(token)
            )
        candidate = report.candidate(rank)
        result = self.edit_source(token, candidate.source)
        if result.applied:
            self._count("repair.applied")
        return result, candidate

    def degraded_detail(self, token):
        """Why this session is degraded: the breaker's fault streak plus
        the latest recorded fault's identity (type, message, ``span_id``,
        ``vtimestamp``) — enough for a client (or the repair searcher)
        to localize without a second ``stats`` round trip."""
        with self.session(token) as entry:
            detail = {"fault_streak": entry.consecutive_faults}
            faults = entry.session.runtime.faults
            if faults:
                fault = faults[-1]
                detail["error"] = str(fault.error)
                detail["type"] = type(fault.error).__name__
                detail["during"] = fault.during
                if fault.span_id is not None:
                    detail["span_id"] = fault.span_id
                if fault.vtimestamp is not None:
                    detail["vtimestamp"] = fault.vtimestamp
            return detail

    def destroy(self, token):
        """Forget a session entirely (resident or evicted)."""
        with self._lock:
            entry = self._entries.pop(token, None)
            self._resident.pop(token, None)
        if entry is not None and self.journal is not None:
            self.journal.record_destroy(token)
        return entry is not None

    # -- introspection ------------------------------------------------------

    def healthz(self):
        """Cheap liveness payload: session counts, no metric catalog.

        This is what ``GET /healthz`` answers and what the cluster
        supervisor's ``__status__`` probe embeds — it takes only the
        registry lock, never a session lock, so a wedged session cannot
        make the host look dead.
        """
        with self._lock:
            resident = len(self._resident)
            total = len(self._entries)
            quarantined = sum(
                1 for e in self._entries.values() if e.quarantined
            )
        return {
            "sessions": total,
            "resident": resident,
            "evicted": total - resident,
            "quarantined": quarantined,
            "pool_size": self.pool_size,
            "journaling": self.journal is not None,
        }

    def stats(self):
        """Pool + metric snapshot for the ``stats`` protocol op."""
        stats = self.healthz()
        del stats["journaling"]
        stats["shared_memo"] = self.memo_store.stats()
        counters, gauges, _ = self.observability_snapshot()
        metrics = dict(gauges)
        metrics.update(counters)
        stats["metrics"] = metrics
        # Gauges restated under their own key so an aggregating front
        # can tell them apart from counters: counters sum across
        # workers, gauges must never be summed (repro.obs.GAUGES).
        stats["gauges"] = gauges
        return stats

    def observability_snapshot(self):
        """``(counters, gauges, histograms)`` — the host's full metric
        state in mergeable form, for ``/metrics`` exposition (and, on a
        cluster worker, the ``__metrics__`` frame op).  Histograms are
        point-in-time :class:`~repro.obs.Histogram` copies; refreshes
        the ``sessions.open_breakers`` gauge on the way out so the
        breaker count is always scrape-fresh."""
        open_breakers = self.healthz()["quarantined"]
        with self._metrics_lock:
            self.tracer.gauge("sessions.open_breakers", open_breakers)
            return (
                dict(self.tracer.counters),
                dict(self.tracer.gauges),
                self.tracer.histogram_snapshots(),
            )


class _LockedSession:
    """``with host.session(token) as entry:`` — locked and resident."""

    __slots__ = ("_host", "_token", "_entry")

    def __init__(self, host, token):
        self._host = host
        self._token = token
        self._entry = None

    def __enter__(self):
        entry = self._host._checkout(self._token)
        entry.lock.acquire()
        self._entry = entry
        try:
            if not entry.resident:
                self._host._rehydrate(entry)
        except BaseException:
            entry.lock.release()
            self._entry = None
            raise
        return entry

    def __exit__(self, _exc_type, _exc, _tb):
        entry, self._entry = self._entry, None
        if entry is not None:
            entry.lock.release()
        return False
