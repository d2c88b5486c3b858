"""Durability: a write-ahead event journal plus image checkpoints.

A process crash must not cost a user their session.  Two mechanisms,
both built on facts the semantics already guarantees, make the
multi-session server recoverable:

* every state-changing request (``create`` / ``tap`` / ``back`` /
  ``edit_box`` / ``batch`` / ``edit_source`` / ``destroy``) is appended
  to a JSONL **journal** *before* it executes (write-ahead), and
* periodically a session's full image (:func:`repro.persist.save_image`
  — code + store + stack, the paper's "program = code and persistent
  data") is appended as a **checkpoint**, truncating the tail that must
  be replayed.

Recovery (:func:`recover`) rebuilds every journaled session: load the
latest checkpoint (loading an image *is* an UPDATE, so the Fig. 12
fix-up governs what survives) and re-apply the events journaled after
it.  The system between user actions is deterministic — "exactly one
internal transition is enabled" — and sessions run against virtual
clocks and seeded substrates, so replay reconstructs **byte-identical
HTML**.  A torn trailing line (crash mid-append) is treated as never
written: the request was not acknowledged, so dropping it is correct.

Beyond crash recovery, the journal is the system's **flight recorder**
(:mod:`repro.provenance`): :meth:`Journal.read` streams records lazily
so long journals replay in O(1) memory, a byte-offset **seek index**
built from create and checkpoint records lets
:func:`repro.provenance.replay_to` materialize any past sequence number
without reading the whole file prefix, and every record written while a
tracer span is open is stamped with that ``span_id`` (the span itself is
annotated with the record's ``journal_seq``), so the trace and the
journal join in both directions.

Record shapes (one JSON object per line)::

    {"kind": "create",     "seq": N, "token": t, "source": s, "title": u}
    {"kind": "event",      "seq": N, "token": t, "op": o, "args": {...}}
    {"kind": "checkpoint", "seq": N, "token": t, "image": {...}}
    {"kind": "destroy",    "seq": N, "token": t}
    {"kind": "recover",    "seq": N, "sessions": k}
    {"kind": "shutdown",   "seq": N}
    {"kind": "meta",       "seq": N, "fsync": "interval"}

**Durability policy.**  By default (``fsync="none"``) appends rely on
the OS page cache: each record is written with open-append-close, which
survives *process* death (the recovery contract) but not a machine
crash.  ``fsync="always"`` fsyncs every append — whole-machine-crash
durability at a large per-request latency cost — and
``fsync="interval"`` fsyncs at most once per ``fsync_interval`` seconds
(bounded data loss, near-``none`` throughput); see docs/RESILIENCE.md
for measured overhead.  A non-default policy is recorded in a ``meta``
header record when the journal opens (and whenever the policy changes
across restarts), so a reader can tell what durability the file was
written under; the default writes no marker, keeping existing journals
byte-identical.

Records may additionally carry ``"span_id"`` when tracing was active at
append time.  ``seq`` is a global monotone counter; per-token order in
the file matches execution order because appends happen under the
session's lock.  A ``recover`` record marks each completed crash
recovery — it names no token; its ``seq`` anchors the display-generation
floor recovered sessions restart from (see :func:`recover`).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass

from ..core.errors import ReproError
from ..obs.trace import NULL_TRACER

#: Journal file name inside a ``--journal-dir`` directory.
JOURNAL_FILE = "journal.jsonl"

#: Ops that may appear in ``event`` records and how to replay them.
REPLAYABLE_OPS = ("tap", "back", "edit_box", "batch", "edit_source")

#: Valid journal durability policies (see :class:`Journal`).
FSYNC_POLICIES = ("none", "interval", "always")


class _TokenIndex:
    """Seek index for one token: where replay can start reading.

    ``create`` is the byte offset of the token's ``create`` record;
    ``checkpoints`` is a list of ``(seq, offset)`` pairs in file (and
    therefore seq) order.  Offsets point at the *start* of the record's
    line, so a reader can seek there and stream forward.
    """

    __slots__ = ("create", "create_seq", "checkpoints", "destroyed")

    def __init__(self):
        self.create = None
        self.create_seq = None
        self.checkpoints = []      # [(seq, byte offset)] in order
        self.destroyed = False


class Journal:
    """Append-only JSONL journal for one :class:`SessionHost`.

    ``checkpoint_every`` is the per-session event count between image
    checkpoints (the replay-tail bound).  Opening an existing journal
    resumes its sequence counter, so restarts keep appending rather
    than renumbering.
    """

    def __init__(
        self, directory, *, checkpoint_every=50, tracer=None,
        fsync="none", fsync_interval=1.0,
    ):
        if checkpoint_every < 1:
            raise ReproError("checkpoint_every must be at least 1")
        if fsync not in FSYNC_POLICIES:
            raise ReproError(
                "fsync must be one of {} (got {!r})".format(
                    "/".join(FSYNC_POLICIES), fsync
                )
            )
        if fsync_interval <= 0:
            raise ReproError("fsync_interval must be positive")
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, JOURNAL_FILE)
        self.checkpoint_every = checkpoint_every
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self._last_fsync = None
        self._recorded_fsync = None     # last meta record's policy
        self._lock = threading.Lock()
        self._since_checkpoint = {}     # token -> events since last image
        self._seq = 0
        self._size = 0                  # end offset of the intact file
        self._index = {}                # token -> _TokenIndex
        self._repair()
        self._scan()
        # Record a non-default durability policy (or a policy change) in
        # the journal header; the default writes nothing, so existing
        # journals and seq numbering stay byte-identical.
        if (self._recorded_fsync != fsync
                and (fsync != "none" or self._recorded_fsync is not None)):
            self._append({"kind": "meta", "fsync": fsync})

    def _repair(self):
        """Truncate a torn trailing line left by a crash mid-append.

        :meth:`read` drops the torn tail, but appends open the file in
        append mode — left in place, the fragment would glue onto the
        first post-recovery record, making *that* line undecodable and
        silently cutting off everything after it on the next restart.
        So opening an existing journal cuts the file back to the end of
        the last intact record.  A final line missing its newline is
        torn by definition (appends write record and newline in one
        write), even if the fragment happens to parse.
        """
        try:
            with open(self.path, "rb") as handle:
                good_end = 0
                for line in handle:
                    if not line.endswith(b"\n"):
                        break
                    try:
                        record = json.loads(line.decode("utf-8"))
                    except (ValueError, UnicodeDecodeError):
                        break
                    if not isinstance(record, dict):
                        break
                    good_end += len(line)
            size = os.path.getsize(self.path)
        except OSError:
            return
        if good_end < size:
            with open(self.path, "ab") as handle:
                handle.truncate(good_end)

    def _scan(self):
        """Resume the sequence counter and build the seek index.

        One streaming pass (records are *not* materialized as a list —
        a long journal full of checkpoint images costs one record of
        memory at a time).
        """
        for offset, record in self._iter_offsets():
            self._seq = max(self._seq, record.get("seq", 0))
            self._size = offset + record["__bytes__"]
            del record["__bytes__"]
            if record.get("kind") == "meta":
                self._recorded_fsync = record.get("fsync")
            self._note_for_checkpoint(record)
            self._note_index(record, offset)

    def _note_for_checkpoint(self, record):
        token = record.get("token")
        kind = record.get("kind")
        if kind in ("create", "checkpoint"):
            self._since_checkpoint[token] = 0
        elif kind == "event":
            self._since_checkpoint[token] = (
                self._since_checkpoint.get(token, 0) + 1
            )
        elif kind == "destroy":
            self._since_checkpoint.pop(token, None)

    def _note_index(self, record, offset):
        token = record.get("token")
        if token is None:
            return
        kind = record.get("kind")
        index = self._index.get(token)
        if index is None:
            index = self._index[token] = _TokenIndex()
        if kind == "create":
            index.create = offset
            index.create_seq = record.get("seq")
            index.checkpoints = []
            index.destroyed = False
        elif kind == "checkpoint":
            index.checkpoints.append((record.get("seq", 0), offset))
        elif kind == "destroy":
            index.destroyed = True

    # -- appending ----------------------------------------------------------

    def _append(self, record):
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            if self.tracer.enabled:
                span_id = self.tracer.current_span_id
                if span_id is not None:
                    record["span_id"] = span_id
                # The other direction of the join: the span that caused
                # this record learns the record's sequence number.  Only
                # create/event records annotate — a checkpoint riding
                # the same op span must not overwrite the op's own seq.
                if record.get("kind") in ("create", "event"):
                    self.tracer.annotate_current(journal_seq=self._seq)
            line = json.dumps(record, separators=(",", ":")) + "\n"
            offset = self._size
            # Open-append-close per record: survives process death (the
            # recovery contract) without holding an fd hostage; the OS
            # page cache makes this cheap.  The fsync policy decides
            # whether (and how often) to also survive machine death:
            # "always" pays the sync on every append, "interval" at most
            # once per fsync_interval seconds, "none" never (default).
            with open(self.path, "a") as handle:
                handle.write(line)
                if self.fsync == "always":
                    self._sync(handle)
                elif self.fsync == "interval":
                    from ..obs.trace import clock

                    now = clock()
                    if (self._last_fsync is None
                            or now - self._last_fsync >= self.fsync_interval):
                        self._sync(handle)
                        self._last_fsync = now
            self._size = offset + len(line.encode("utf-8"))
            self._note_for_checkpoint(record)
            self._note_index(record, offset)
            return self._seq

    def _sync(self, handle):
        handle.flush()
        os.fsync(handle.fileno())
        self.tracer.add("journal_fsyncs")

    def record_create(self, token, source, title):
        self._append({
            "kind": "create", "token": token,
            "source": source, "title": title,
        })

    def record_event(self, token, op, args):
        """Write-ahead one state-changing op; returns ``True`` when the
        session is due for a checkpoint."""
        if op not in REPLAYABLE_OPS:
            raise ReproError("op {!r} is not journalable".format(op))
        self._append({
            "kind": "event", "token": token, "op": op, "args": args,
        })
        self.tracer.add("journal_events")
        return self._since_checkpoint.get(token, 0) >= self.checkpoint_every

    def record_checkpoint(self, token, image):
        self._append({"kind": "checkpoint", "token": token, "image": image})
        self.tracer.add("journal_checkpoints")

    def record_destroy(self, token):
        self._append({"kind": "destroy", "token": token})

    def record_recover(self, sessions):
        """Mark a completed recovery; returns the marker's ``seq``.

        The marker keeps the global sequence strictly increasing across
        recoveries, which is what lets ``seq`` bound every display
        generation the pre-crash server could have acknowledged (see
        :func:`recover`).
        """
        return self._append({"kind": "recover", "sessions": sessions})

    def close(self):
        """Append a ``shutdown`` marker: this journal ended *cleanly*.

        The graceful-shutdown path (SIGTERM on ``repro serve`` or a
        cluster worker) calls this after the last in-flight request
        drains, so the next recovery — and any human reading the file —
        can tell an orderly exit from a crash.  The marker names no
        token; collation and per-token reads skip it, and like the
        ``recover`` marker it keeps the global sequence monotone across
        restarts.  Returns the marker's ``seq``.
        """
        return self._append({"kind": "shutdown"})

    # -- reading ------------------------------------------------------------

    def _iter_offsets(self, start=0):
        """Yield ``(offset, record)`` lazily from byte ``start``.

        Each record carries a transient ``"__bytes__"`` length so the
        scanner can track offsets; :meth:`read` strips it.  Reading
        stops at the first undecodable line: a crash tears at most the
        final append, and everything after a torn write is
        unacknowledged by construction.
        """
        try:
            handle = open(self.path, "rb")
        except OSError:
            return
        with handle:
            if start:
                handle.seek(start)
            offset = start
            for line in handle:
                if not line.endswith(b"\n"):
                    return
                try:
                    record = json.loads(line.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    return
                if not isinstance(record, dict):
                    return
                record["__bytes__"] = len(line)
                yield offset, record
                offset += len(line)

    def read(self, start=0):
        """All intact records from byte offset ``start``, **lazily**.

        Returns a generator — a multi-gigabyte journal is replayed in
        O(record) memory, never materialized.  A torn tail is dropped
        (see :meth:`_iter_offsets`).  Callers that need a list (tests,
        small journals) wrap it in ``list(...)``.
        """
        for _offset, record in self._iter_offsets(start):
            del record["__bytes__"]
            yield record

    def records_for(self, token, start=0, include_images=False):
        """This token's records, lazily, in journal order.

        ``include_images=False`` (the default) replaces each checkpoint
        record's ``image`` payload with its size marker — history and
        timeline queries should not drag full session images through
        memory.
        """
        for record in self.read(start=start):
            if record.get("token") != token:
                continue
            if not include_images and record.get("kind") == "checkpoint":
                record = dict(record)
                record["image"] = {"omitted": True}
            yield record

    def tokens(self):
        """Every token the journal knows, in first-create order."""
        return tuple(self._index)

    def start_offset(self, token):
        """Byte offset of the token's ``create`` record (``None`` when
        the journal never saw one — e.g. only a checkpoint survived)."""
        index = self._index.get(token)
        return index.create if index is not None else None

    def checkpoint_before(self, token, seq=None):
        """``(checkpoint_seq, offset)`` of the latest checkpoint for
        ``token`` with ``checkpoint_seq <= seq`` — the seek point that
        makes :func:`repro.provenance.replay_to` skip the prefix — or
        ``None`` when no checkpoint qualifies.

        ``seq=None`` means "the latest checkpoint at all".
        """
        index = self._index.get(token)
        if index is None:
            return None
        best = None
        for cp_seq, offset in index.checkpoints:
            if seq is not None and cp_seq > seq:
                break
            best = (cp_seq, offset)
        return best

    def last_seq(self, token=None):
        """The journal's global high-water seq (or a token's, scanning)."""
        if token is None:
            return self._seq
        last = None
        for record in self.records_for(token):
            last = record.get("seq", last)
        return last


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryReport:
    """What :func:`recover` rebuilt."""

    sessions: int = 0
    events_replayed: int = 0
    checkpoints_used: int = 0
    faults_during_replay: int = 0
    torn_tail: bool = False

    def __str__(self):
        return (
            "recovered {} session{} ({} event{} replayed, "
            "{} checkpoint{})".format(
                self.sessions, "" if self.sessions == 1 else "s",
                self.events_replayed,
                "" if self.events_replayed == 1 else "s",
                self.checkpoints_used,
                "" if self.checkpoints_used == 1 else "s",
            )
        )


class _SessionLog:
    """Everything the journal says about one token."""

    __slots__ = ("token", "source", "title", "checkpoint", "checkpoint_seq",
                 "events", "destroyed", "created")

    def __init__(self, token):
        self.token = token
        self.source = None
        self.title = None
        self.checkpoint = None
        self.checkpoint_seq = -1
        self.events = []           # (seq, op, args)
        self.destroyed = False
        self.created = False


def _collate(records):
    logs = {}
    order = []
    for record in records:
        token = record.get("token")
        if token is None:
            continue
        log = logs.get(token)
        if log is None:
            log = logs[token] = _SessionLog(token)
            order.append(log)
        kind = record.get("kind")
        if kind == "create":
            log.created = True
            log.source = record.get("source")
            log.title = record.get("title")
            log.destroyed = False
        elif kind == "event":
            log.events.append(
                (record["seq"], record.get("op"), record.get("args") or {})
            )
        elif kind == "checkpoint":
            log.checkpoint = record.get("image")
            log.checkpoint_seq = record["seq"]
            # Events before the checkpoint are inside its image; drop
            # them so a long-lived session's replay tail stays bounded
            # in memory as well as in time.
            log.events = [
                event for event in log.events
                if event[0] > log.checkpoint_seq
            ]
        elif kind == "destroy":
            log.destroyed = True
    return order


def _replay_event(host, token, op, args):
    if op == "tap":
        if args.get("text") is not None:
            host.tap(token, text=args["text"])
        else:
            host.tap(token, path=tuple(args.get("path") or ()))
    elif op == "back":
        host.back(token)
    elif op == "edit_box":
        host.edit_box(token, tuple(args.get("path") or ()), args.get("text"))
    elif op == "batch":
        host.batch(token, decode_batch_events(args.get("events") or []))
    elif op == "edit_source":
        host.edit_source(token, args.get("source"))
    else:
        raise ReproError("journal holds unknown op {!r}".format(op))


def encode_batch_events(events):
    """Batching tuples → JSON-clean lists (paths become lists)."""
    return [
        [list(part) if isinstance(part, tuple) else part for part in event]
        for event in events
    ]


def decode_batch_events(events):
    """JSON lists → the batching tuples ``apply_batch`` consumes."""
    decoded = []
    for event in events:
        kind = event[0]
        if kind in ("tap", "edit"):
            decoded.append(tuple([kind, tuple(event[1])] + event[2:]))
        else:
            decoded.append(tuple(event))
    return decoded


def recover(host, journal):
    """Rebuild every journaled session into ``host``, then attach the
    journal so new traffic keeps appending.

    The host must not be journaling yet (replayed events would be
    re-journaled); sessions already registered under a journaled token
    are left alone.  Errors during replay are *expected*: write-ahead
    means the journal also holds ops that then failed live (a tap on a
    missing box, a rejected edit, a handler fault) — each fails
    identically on replay, which is exactly how the fault history is
    reconstructed — so they are counted (``faults_during_replay`` for
    evaluation faults), never propagated.

    Renders are *not* journaled, so at crash time the live display
    generations may have advanced past anything the journal knows.  To
    keep a stale client from ever getting ``not_modified`` for changed
    content, recovery appends a ``recover`` marker and restarts every
    rebuilt session's generation counter at ``marker_seq + 2`` — the
    global sequence bounds every generation the pre-crash server could
    have acknowledged (each bump is enabled by one journaled op, plus
    one initial render), so the floor is strictly past all of them and
    recovered generations never collide with pre-crash ones.
    """
    from ..core.errors import EvalError, ReproError

    if getattr(host, "journal", None) is not None:
        raise ReproError("recover() must run before the host journals")
    recovered = []
    events_replayed = 0
    checkpoints_used = 0
    faults = 0
    existing = set(host.tokens())
    for log in _collate(journal.read()):
        if log.destroyed or log.token in existing:
            continue
        if log.checkpoint is not None:
            host.restore(log.token, image=log.checkpoint, title=log.title)
            checkpoints_used += 1
        elif log.created and log.source is not None:
            host.restore(log.token, source=log.source, title=log.title)
        else:
            continue  # nothing intact enough to rebuild from
        for seq, op, args in log.events:
            if seq <= log.checkpoint_seq:
                continue  # already inside the checkpoint image
            try:
                _replay_event(host, log.token, op, args)
            except EvalError:
                faults += 1  # replayed faults rebuild the fault history
            except ReproError:
                pass  # failed identically live; the client saw the error
            events_replayed += 1
        recovered.append(log.token)
        host.tracer.add("journal_replays")
    if recovered:
        floor = journal.record_recover(len(recovered)) + 2
        for token in recovered:
            host.complete_recovery(token, floor)
    host.attach_journal(journal)
    report_sessions = len(recovered)
    return RecoveryReport(
        sessions=report_sessions,
        events_replayed=events_replayed,
        checkpoints_used=checkpoints_used,
        faults_during_replay=faults,
    )
