"""The repair searcher: validate candidate fixes in isolated systems.

One search answers: *of the plausible small edits of this faulting
program, which ones actually work?*  For every candidate
(:mod:`repro.repair.candidates`):

1. **compile** — the candidate must parse and type (most bad candidates
   die here, for the cost of a compile);
2. **materialize an isolated system** — a throwaway
   :class:`~repro.live.session.LiveSession` holding the recorded
   session's current state, built by :func:`repro.provenance.replay_to`
   (checkpoint-seeked via the journal's byte-offset index, so a long
   history costs only its tail) — the *live* session is never touched,
   which is what keeps the search off the request path;
3. **apply as a supervised edit** — the candidate goes through the
   ordinary ``edit_source`` path under per-transition
   :class:`~repro.resilience.Budget` fuel/deadline limits; an update
   that cannot draw its first frame is rolled back, exactly as it would
   be live;
4. **re-drive recent traffic** — the last ``window`` journaled user
   events (taps/edits/backs — not past code edits) replay against the
   repaired program; every event that completes without a fault is
   evidence the repair preserves behavior.

Scoring is lexicographic — validates cleanly > more re-driven events
survive > smaller edit — with the candidate's generation index as the
deterministic tie-break, so **the ranking is a pure function of the
journal and the candidate set**: worker-thread scheduling affects
per-candidate wall times, never the order (the determinism property in
``tests/repair`` holds the searcher to this).

The whole search runs under a global :class:`RepairBudget`: at most
``max_candidates`` candidates, at most ``wall_seconds`` of wall clock
(workers observe a stop flag between candidates — early cancellation),
``parallelism`` validation threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..core.errors import EvalError, ReproError, SyntaxProblem, TypeProblem
from ..live.session import LiveSession
from ..obs.trace import NULL_TRACER, Stopwatch, clock
from ..provenance.replayer import apply_event, replay_to
from ..resilience.supervisor import Budget
from .candidates import generate_candidates

#: Ops the validation window re-drives.  Past ``edit_source`` events
#: stay out: re-applying an old program over the candidate under test
#: would un-repair it.
_WINDOW_OPS = ("tap", "back", "edit_box", "batch")


@dataclass(frozen=True)
class RepairBudget:
    """Global limits for one search plus per-transition limits for
    every validation system.

    ``wall_seconds=None`` means no wall-clock cap (the candidate count
    still bounds the search); ``fuel``/``deadline`` build the
    :class:`~repro.resilience.Budget` each throwaway session runs
    under, so a candidate that diverges or spins blows *its* budget,
    never the server's.
    """

    max_candidates: int = 12
    wall_seconds: float = None
    window: int = 20
    parallelism: int = 4
    fuel: int = None           # None → the evaluator's default fuel
    deadline: float = None     # virtual seconds per transition

    def __post_init__(self):
        if self.max_candidates < 1:
            raise ReproError("repair budget needs at least one candidate")
        if self.parallelism < 1:
            raise ReproError("repair parallelism must be at least 1")
        if self.window < 0:
            raise ReproError("repair window must be non-negative")

    def transition_budget(self):
        kwargs = {}
        if self.fuel is not None:
            kwargs["fuel"] = self.fuel
        return Budget(deadline=self.deadline, **kwargs)


@dataclass(frozen=True)
class RankedRepair:
    """One searched candidate with its validation verdict and rank."""

    rank: int
    kind: str
    description: str
    target: str
    source: str
    edit_size: int
    compile_ok: bool
    validated: bool            # compiled + applied + first render clean
    events_ok: int             # re-driven window events that stayed clean
    events_replayed: int
    faults: int                # faults recorded across the re-drive
    elapsed: float             # wall seconds this candidate cost


@dataclass
class RepairReport:
    """The search's full answer, candidates ranked best-first."""

    token: str
    trigger: str               # "rollback" | "breaker" | "manual"
    fault: dict = field(default_factory=dict)
    generated: int = 0         # candidates generated
    searched: int = 0          # candidates actually validated
    candidates: tuple = ()     # RankedRepair, best first
    wall_seconds: float = 0.0
    budget_exhausted: bool = False

    @property
    def found(self):
        """Did the search validate at least one repair?"""
        return any(c.validated for c in self.candidates)

    def best(self):
        best = self.candidates[0] if self.candidates else None
        return best if best is not None and best.validated else None

    def candidate(self, rank):
        for item in self.candidates:
            if item.rank == rank:
                return item
        raise ReproError(
            "no repair candidate with rank {} (the report holds "
            "{})".format(rank, len(self.candidates))
        )

    def summaries(self):
        """JSON-clean per-candidate summaries (no source text — the
        ``repair{apply=rank}`` op routes by rank, so envelopes stay
        small)."""
        return [
            {
                "rank": c.rank,
                "kind": c.kind,
                "description": c.description,
                "target": c.target,
                "validated": c.validated,
                "events_ok": c.events_ok,
                "edit_size": c.edit_size,
            }
            for c in self.candidates
        ]


class _Verdict:
    """Mutable per-candidate validation outcome (pre-ranking)."""

    __slots__ = (
        "index", "candidate", "compile_ok", "validated",
        "events_ok", "events_replayed", "faults", "elapsed",
    )

    def __init__(self, index, candidate):
        self.index = index
        self.candidate = candidate
        self.compile_ok = False
        self.validated = False
        self.events_ok = 0
        self.events_replayed = 0
        self.faults = 0
        self.elapsed = 0.0

    def sort_key(self):
        # validates cleanly > preserves more recent traffic > smaller
        # edit; the generation index is the deterministic tie-break.
        return (
            not self.validated,
            -self.events_ok,
            self.candidate.edit_size,
            self.index,
        )


def _fault_summary(fault):
    """A JSON-clean description of the triggering fault (accepts a
    recorded :class:`~repro.system.runtime.Fault`, a raw exception, or
    ``None``)."""
    if fault is None:
        return {}
    error = getattr(fault, "error", fault)
    summary = {
        "type": type(error).__name__,
        "message": str(error),
    }
    for key in ("during", "span_id", "vtimestamp"):
        value = getattr(fault, key, None)
        if value is not None:
            summary[key] = value
    return summary


def _window_events(journal, token, window):
    """The last ``window`` re-drivable journaled events for ``token``."""
    if journal is None or window <= 0:
        return []
    from collections import deque

    tail = deque(maxlen=window)
    for record in journal.records_for(token):
        if record.get("kind") != "event":
            continue
        if record.get("op") not in _WINDOW_OPS:
            continue
        tail.append((record.get("op"), record.get("args") or {}))
    return list(tail)


def search_repairs(
    journal=None,
    token=None,
    *,
    faulting_source,
    last_good_source=None,
    suspects=(),
    trigger="manual",
    fault=None,
    budget=None,
    make_host_impls=None,
    make_services=None,
    session_kwargs=None,
    tracer=None,
    count=None,
    observe=None,
):
    """Search for validated repairs of ``faulting_source``.

    With a ``journal`` + ``token``, every candidate is validated
    against the recorded session's current state (checkpoint-assisted
    replay) and the recent-traffic window; without one, validation
    boots a fresh session from ``last_good_source`` (or the faulting
    source) and checks only that the candidate applies cleanly.

    ``count`` / ``observe`` override how metrics are recorded (the
    :class:`~repro.serve.host.SessionHost` passes its lock-guarded
    counter hook — searches run on background threads).  Returns a
    :class:`RepairReport`; never raises for a candidate's failure, only
    for misuse.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    count = count if count is not None else tracer.add
    observe = observe if observe is not None else tracer.observe
    budget = budget if budget is not None else RepairBudget()
    make_host_impls = make_host_impls or dict
    watch = Stopwatch()

    candidates = generate_candidates(
        faulting_source,
        last_good_source=last_good_source,
        suspects=suspects,
        max_candidates=budget.max_candidates,
    )
    count("repair.searches")
    count("repair.candidates_generated", len(candidates))

    kwargs = dict(session_kwargs or {})
    kwargs.setdefault("fault_policy", "record")
    kwargs.setdefault("supervised", True)
    kwargs["budget"] = budget.transition_budget()
    window = _window_events(journal, token, budget.window)

    def make_session(host_impls):
        """A fresh isolated system at the recorded session's state."""
        if journal is not None:
            return replay_to(
                journal, token,
                make_host_impls=lambda: host_impls,
                make_services=make_services,
                session_kwargs=kwargs,
            ).session
        return LiveSession(
            last_good_source
            if last_good_source is not None else faulting_source,
            host_impls=host_impls,
            services=make_services() if make_services else None,
            **kwargs
        )

    def validate(verdict):
        candidate_watch = Stopwatch()
        try:
            from ..surface.compile import compile_source

            # The session is built with the implementations the
            # candidate was compiled against, so it applies this very
            # compile instead of compiling the candidate again.
            host_impls = make_host_impls()
            try:
                compiled = compile_source(
                    verdict.candidate.source, host_impls
                )
            except (SyntaxProblem, TypeProblem, ReproError):
                return
            verdict.compile_ok = True
            session = make_session(host_impls)
            faults_before = len(session.runtime.faults)
            try:
                result = session.apply_compiled(compiled)
            except EvalError:
                return  # "raise"-policy session kwargs: the edit faulted
            clean = len(session.runtime.faults) == faults_before
            if result.status != "applied" or not clean:
                return
            verdict.validated = True
            for op, args in window:
                before = len(session.runtime.faults)
                try:
                    apply_event(session, op, args)
                except EvalError:
                    verdict.faults += 1
                except ReproError:
                    pass  # e.g. a tap whose box the repair removed
                else:
                    recorded = len(session.runtime.faults) - before
                    if recorded:
                        verdict.faults += recorded
                    else:
                        verdict.events_ok += 1
                verdict.events_replayed += 1
        finally:
            verdict.elapsed = candidate_watch.elapsed()

    stop = threading.Event()
    deadline = (
        clock() + budget.wall_seconds
        if budget.wall_seconds is not None else None
    )
    cursor_lock = threading.Lock()
    state = {"next": 0, "first_valid": None, "exhausted": False}
    verdicts = [None] * len(candidates)

    def worker():
        while True:
            if stop.is_set():
                return
            if deadline is not None and clock() >= deadline:
                state["exhausted"] = True
                stop.set()
                return
            with cursor_lock:
                index = state["next"]
                if index >= len(candidates):
                    return
                state["next"] = index + 1
            verdict = _Verdict(index, candidates[index])
            validate(verdict)
            verdicts[index] = verdict
            if verdict.validated:
                count("repair.candidates_validated")
                with cursor_lock:
                    if state["first_valid"] is None:
                        state["first_valid"] = watch.elapsed()
                        observe("repair.first_valid", state["first_valid"])

    threads = [
        threading.Thread(
            target=worker, name="repair-search-{}".format(i), daemon=True
        )
        for i in range(min(budget.parallelism, max(1, len(candidates))))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    completed = [v for v in verdicts if v is not None]
    completed.sort(key=_Verdict.sort_key)
    ranked = tuple(
        RankedRepair(
            rank=position,
            kind=v.candidate.kind,
            description=v.candidate.description,
            target=v.candidate.target,
            source=v.candidate.source,
            edit_size=v.candidate.edit_size,
            compile_ok=v.compile_ok,
            validated=v.validated,
            events_ok=v.events_ok,
            events_replayed=v.events_replayed,
            faults=v.faults,
            elapsed=v.elapsed,
        )
        for position, v in enumerate(completed, start=1)
    )
    report = RepairReport(
        token=token or "",
        trigger=trigger,
        fault=_fault_summary(fault),
        generated=len(candidates),
        searched=len(completed),
        candidates=ranked,
        wall_seconds=watch.elapsed(),
        budget_exhausted=state["exhausted"],
    )
    if report.found:
        count("repair.found")
    observe("repair.search", report.wall_seconds)
    return report
