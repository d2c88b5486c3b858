"""The system transition relation ``→g`` (Fig. 9).

:class:`System` wraps a :class:`~repro.system.state.SystemState` and
exposes one method per rule:

* user-initiated (only enabled in the states the rules demand):
  :meth:`startup`, :meth:`tap`, :meth:`back`, :meth:`edit` (extension),
  :meth:`update`;
* internal: :meth:`handle_next_event` (THUNK / PUSH / POP),
  :meth:`render`;
* the scheduler :meth:`step`, which fires the unique enabled internal
  transition, and :meth:`run_to_stable`, which iterates it until the
  state is stable *and* the display is valid — the paper's "the system is
  always live" loop.

Every transition except RENDER invalidates the display (``D := ⊥``);
RENDER is the only rule that produces a box tree, and it always runs the
*current* code against the *current* store — which is precisely why a
code update is immediately reflected in the view.

The Section 5 optimizations are implementation caching layered *outside*
the semantics.  Every non-faithful RENDER consults a render memo
(:mod:`repro.eval.memo`): first for the page's own call, whose hit is
the whole stored display, then, while the page runs, for each render
function call, splicing the frozen subtrees of unchanged calls into the
new display; the observable display is identical to the
``faithful=True`` oracle, which does not memoize — tests assert that.
The paper's other §5 sketch, sharing unchanged box objects with the
previous display (:mod:`repro.boxes.diff`), belongs to its one consumer,
the layout engine (:mod:`repro.render.layout`), not to RENDER.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from ..boxes.paths import innermost_box_with_attr, resolve
from ..boxes.tree import STALE, max_display_depth
from ..core import ast
from ..core.defs import Code
from ..core.errors import (
    FuelExhausted,
    ReproError,
    SystemError_,
    UpdateRejected,
)
from ..core.names import ATTR_EDITABLE, ATTR_ONEDIT, ATTR_ONTAP, START_PAGE
from ..eval.machine import BigStep, SmallStep
from ..eval.natives import EMPTY_NATIVES
from ..obs.trace import NULL_TRACER, clock
from ..typing.program import code_problems, known_problems
from .events import EventQueue, ExecEvent, PopEvent, PushEvent, edit_thunk
from .fixup import fixup
from .services import Services
from .state import SystemState


@dataclass(frozen=True)
class Transition:
    """One fired ``→g`` transition, recorded in the system's trace.

    ``elapsed`` and ``span_id`` are observability enrichment (wall
    seconds spent firing the rule, and the id of the matching tracer
    span when tracing is on); they do not participate in equality, so
    traces still compare by ``(rule, detail)``.
    """

    rule: str
    detail: str = ""
    elapsed: float = field(default=0.0, compare=False)
    span_id: object = field(default=None, compare=False)

    def __str__(self):
        if self.detail:
            return "{}({})".format(self.rule, self.detail)
        return self.rule


def _core_problems(code, natives):
    """``C ⊢ C``: the verdict already reached for this code version under
    these native signatures, else a fresh check."""
    problems = known_problems(code, natives)
    if problems is None:
        problems = code_problems(code, natives)
    return problems


class System:
    """A running program: the state σ plus the machinery to step it.

    ``faithful`` is the one switch for how the system renders.  The
    default is the production posture: the backend's machine and a
    render memo.  ``faithful=True`` drives every expression evaluation
    through the literal small-step machine without a memo — identical
    observable behaviour (differential tests assert it), an order of
    magnitude slower, and the configuration under which the metatheory
    suite checks per-step preservation.
    """

    def __init__(
        self,
        code,
        natives=EMPTY_NATIVES,
        services=None,
        faithful=False,
        memo_store=None,
        tracer=None,
        budget=None,
        chaos=None,
        backend=None,
    ):
        if not isinstance(code, Code):
            raise ReproError("System expects Code")
        self.natives = natives
        #: Evaluator backend (repro.eval.backends): ``"compiled"`` (the
        #: default) runs each code version's closures, compiled once per
        #: process and shared by every session running it; ``"tree"``
        #: walks the AST.  ``faithful`` runs the small-step machine
        #: whatever the backend.
        from ..eval.backends import resolve_backend

        self.backend = resolve_backend(backend)
        self.backend_name = self.backend.name
        #: Observability hook (repro.obs).  The default NullTracer makes
        #: every instrumentation point a no-op; a real Tracer records a
        #: span per fired transition plus the metric catalog.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Supervision (repro.resilience): per-transition limits.  Every
        #: handler/render run gets ``budget.fuel``; a transition that
        #: charges more virtual time than ``budget.deadline`` raises
        #: :class:`~repro.core.errors.DeadlineExceeded` — enforcement
        #: lives here so it composes with both fault policies.
        if budget is None:
            from ..resilience.supervisor import UNLIMITED

            budget = UNLIMITED
        self.budget = budget
        self.services = services if services is not None else Services()
        #: Chaos (repro.resilience): when a FaultInjector is given, the
        #: services boundary and every evaluator run go through its
        #: wrappers so seeded faults fire deterministically.
        self.chaos = chaos
        if chaos is not None:
            from ..resilience.chaos import ChaosServices

            self.services = ChaosServices(self.services, chaos)
        self.faithful = faithful
        #: Render-function memoization (repro.eval.memo).  UPDATE swaps
        #: the whole evaluator (and with it the per-code-version
        #: RenderMemo *view*), but entries live in one update-surviving
        #: MemoStore (repro.incremental).  By default the store is
        #: private and owned here for the life of the system;
        #: ``memo_store`` injects a shared one instead — a
        #: :class:`~repro.incremental.store.SessionMemoView` over the
        #: store of the :class:`~repro.serve.host.SessionHost` serving
        #: this session, so sessions running the same app warm each
        #: other.  A faithful system has no store.
        self.render_memo = None
        self._memo_store = None
        if not faithful:
            if memo_store is None:
                from ..incremental.store import MemoStore

                memo_store = MemoStore(tracer=self.tracer)
            self._memo_store = memo_store
        #: Per-render memo deltas of the most recent RENDER, and of the
        #: first RENDER after the most recent UPDATE (what the edit →
        #: re-render loop actually reused).  Empty dicts until the
        #: respective transition has fired on a memoized system.
        self.last_render_stats = {}
        self.last_update_render_stats = {}
        self._render_after_update = False
        # Rule T-SYS types every state, so construction enforces the
        # same ``C ⊢ C`` premise UPDATE does.  A code version the compile
        # pipeline already checked under the same native signatures is
        # not checked again.
        problems = _core_problems(code, natives)
        if problems:
            raise UpdateRejected(
                "the initial program is not well-typed "
                "({} problem{})".format(
                    len(problems), "" if len(problems) == 1 else "s"
                ),
                problems=problems,
            )
        #: Provenance capture (repro.provenance).  Off by default — the
        #: flag is flipped *post-construction* by the replayer, never on
        #: live sessions, so the semantics' hot path stays unchanged.
        #: While on, every evaluator run in :meth:`handle_next_event`
        #: appends ``{"rule", "detail", "reads", "writes"}`` to
        #: :attr:`provenance_log` (reads = store names looked up, writes
        #: = ``{name: new write version}``), and UPDATE appends its
        #: fix-up's write/delete effects.
        self.capture_provenance = False
        self.provenance_log = []
        self.state = SystemState.initial(code)
        self.trace = []
        self._last_valid_display = None
        self._evaluator = self._make_evaluator(code)
        #: Host-side native implementations, by identity.  Digests hash
        #: program code only — they cannot see host Python — so if an
        #: update rebinds a native to a *different* callable, the memo
        #: entries whose producers can reach that native are suspect and
        #: are dropped (see :meth:`update`).
        self._native_impls = self._snapshot_native_impls()

    def _snapshot_native_impls(self):
        return {
            name: self.natives.implementation(name)
            for name in self.natives.names()
        }

    # -- plumbing ---------------------------------------------------------------

    def _make_evaluator(self, code):
        if self.faithful:
            evaluator = SmallStep(
                code, natives=self.natives, services=self.services,
                tracer=self.tracer,
            )
        else:
            from ..eval.memo import RenderMemo

            memo = RenderMemo(
                code, store=self._memo_store, tracer=self.tracer,
                natives=self.natives,
            )
            self.render_memo = memo
            evaluator = self.backend.compile(
                code, natives=self.natives, services=self.services,
                memo=memo, tracer=self.tracer,
            )
        if self.chaos is not None:
            from ..resilience.chaos import ChaosEvaluator

            evaluator = ChaosEvaluator(evaluator, self.chaos)
        return evaluator

    def _check_deadline(self, rule, virtual_before):
        """Enforce the budget's virtual-clock deadline for one transition."""
        if self.budget.deadline is None:
            return
        self.budget.check_deadline(
            rule, self.services.clock.now - virtual_before
        )

    def _record(self, rule, detail="", started=None, span=None):
        self.trace.append(Transition(
            rule,
            detail,
            elapsed=0.0 if started is None else clock() - started,
            span_id=None if span is None else span.span_id,
        ))

    @property
    def code(self):
        return self.state.code

    @property
    def display(self):
        return self.state.display

    def _invalidate(self):
        self.state.invalidate_display()

    # -- rules that enqueue events (user actions + startup) ----------------------

    def startup(self):
        """(STARTUP): ``(C, D, S, ε, ε) →g (C, ⊥, S, ε, [push start ()])``."""
        if not self.state.stack.is_empty() or not self.state.queue.is_empty():
            raise SystemError_(
                "STARTUP is only enabled with an empty page stack and queue"
            )
        started = clock()
        with self.tracer.span("startup") as span:
            self.state.queue.enqueue(PushEvent(START_PAGE, ast.UNIT_VALUE))
            self.tracer.add("events_queued")
            self._invalidate()
        self._record("STARTUP", started=started, span=span)

    def tap(self, path=()):
        """(TAP): fire the ``ontap`` handler of the box at ``path``.

        The rule's premise ``[ontap = v] ∈ B`` requires a *valid* display —
        "it is not possible to activate tap handlers on a stale display".
        Taps on nested content bubble to the nearest enclosing box with a
        handler, as in the implementation.
        """
        if not self.state.display_is_valid():
            raise SystemError_("TAP requires a valid (non-stale) display")
        started = clock()
        with self.tracer.span("tap") as span:
            handler_path, box = innermost_box_with_attr(
                self.state.display, tuple(path), ATTR_ONTAP
            )
            if box is None:
                raise SystemError_(
                    "no box at or above {} has an ontap handler".format(
                        list(path)
                    )
                )
            handler = box.get_attr(ATTR_ONTAP)
            self.state.queue.enqueue(ExecEvent(handler))
            self.tracer.add("events_queued")
            self._invalidate()
            span.annotate(path="/".join(str(i) for i in handler_path))
        self._record(
            "TAP", detail="/".join(str(i) for i in handler_path),
            started=started, span=span,
        )
        return handler_path

    def edit(self, path, text):
        """(EDIT, extension): fire the ``onedit`` handler with new text.

        The paper's boxes "respond to interactions such as tapping or
        *editing* by the user" (Section 3); this is the editing analogue of
        TAP, wrapping ``onedit`` applied to the new text into an ``[exec]``
        event.
        """
        if not self.state.display_is_valid():
            raise SystemError_("EDIT requires a valid (non-stale) display")
        started = clock()
        with self.tracer.span("edit") as span:
            box = resolve(self.state.display, tuple(path))
            handler = box.get_attr(ATTR_ONEDIT)
            if handler is None:
                raise SystemError_(
                    "box at {} has no onedit handler".format(list(path))
                )
            self.state.queue.enqueue(ExecEvent(edit_thunk(handler, text)))
            self.tracer.add("events_queued")
            self._invalidate()
        self._record("EDIT", detail=text, started=started, span=span)

    def back(self):
        """(BACK): always enabled; enqueues ``[pop]``."""
        started = clock()
        with self.tracer.span("back") as span:
            self.state.queue.enqueue(PopEvent())
            self.tracer.add("events_queued")
            self._invalidate()
        self._record("BACK", started=started, span=span)

    # -- rules that handle events -------------------------------------------------

    def handle_next_event(self):
        """(THUNK)/(PUSH)/(POP): dequeue and dispatch one event."""
        queue = self.state.queue
        if queue.is_empty():
            raise SystemError_("the event queue is empty")
        event = queue.dequeue()
        store = self.state.store
        started = clock()
        virtual_before = self.services.clock.now
        fuel = self.budget.fuel
        with self.tracer.span("event", event=str(event)) as span:
            pending_before = len(queue)
            if isinstance(event, ExecEvent):
                # (THUNK): reduce ``v ()`` in standard mode.
                with self._provenance_capture("THUNK"):
                    self._evaluator.run_state(
                        store, queue, ast.App(event.thunk, ast.UNIT_VALUE),
                        fuel=fuel,
                    )
                self._invalidate()
                self._check_deadline("THUNK", virtual_before)
                rule, detail = "THUNK", ""
            elif isinstance(event, PushEvent):
                # (PUSH): C(p) = (fi, fr); push (p, v); reduce ``fi v``.
                page = self.code.page(event.page)
                if page is None:
                    raise SystemError_(
                        "push of undefined page '{}'".format(event.page)
                    )
                self.state.stack.push(event.page, event.arg)
                with self._provenance_capture("PUSH", event.page):
                    self._evaluator.run_state(
                        store, queue, ast.App(page.init, event.arg),
                        fuel=fuel,
                    )
                self._invalidate()
                self._check_deadline("PUSH", virtual_before)
                rule, detail = "PUSH", event.page
            elif isinstance(event, PopEvent):
                # (POP): pop the top page, or do nothing on an empty stack.
                self.state.stack.pop()
                self._invalidate()
                rule, detail = "POP", ""
            else:
                raise SystemError_("unknown event {!r}".format(event))
            # Events the handler itself enqueued (nested push/pop).
            cascaded = len(queue) - pending_before
            if cascaded > 0:
                self.tracer.add("events_queued", cascaded)
        self._record(rule, detail, started=started, span=span)
        return event

    @contextmanager
    def _provenance_capture(self, rule, detail=""):
        """Log one evaluator run's store reads and writes (when capturing).

        The entry is appended even when the run faults: write-ahead
        semantics mean a faulting handler executed exactly as far as the
        small-step relation reached, and those partial writes are real
        provenance.  RENDER is deliberately *not* captured — a render
        reads everything on the page; the per-box read attribution comes
        from the static read sets (:func:`repro.eval.memo.
        global_read_sets`) instead.
        """
        if not self.capture_provenance:
            yield
            return
        store = self.state.store
        before = store.versions_snapshot()
        store.begin_read_log()
        try:
            yield
        finally:
            reads = store.end_read_log()
            after = store.versions_snapshot()
            writes = {
                name: version for name, version in after.items()
                if before.get(name) != version
            }
            self.provenance_log.append({
                "rule": rule, "detail": detail,
                "reads": reads, "writes": writes,
            })

    # -- the one rule that refreshes the display ------------------------------------

    def render(self):
        """(RENDER): ``(C, ⊥, S, P(p,v), ε) →g (C, B, S, P(p,v), ε)``.

        Runs the *current top page's* render body in render mode against
        the current store, producing a fresh box tree.  Only enabled when
        the queue is empty, the stack is non-empty and the display is
        stale — exactly the rule's shape.
        """
        state = self.state
        if not state.queue.is_empty():
            raise SystemError_("RENDER requires an empty event queue")
        if state.display is not STALE:
            raise SystemError_("RENDER requires a stale display (⊥)")
        top = state.stack.top()
        if top is None:
            raise SystemError_("RENDER requires a non-empty page stack")
        page_name, arg = top
        page = self.code.page(page_name)
        if page is None:
            raise SystemError_(
                "page '{}' is on the stack but not in the code — the "
                "UPDATE fix-up should have removed it".format(page_name)
            )
        tracer = self.tracer
        started = clock()
        virtual_before = self.services.clock.now
        memo = self.render_memo
        fuel = self.budget.fuel
        # The page's render is itself a memoized call, except where each
        # evaluator run must happen: under chaos (its faults are drawn
        # per run) and while provenance logs the store's reads.
        pages = (
            memo is not None and self.chaos is None
            and not state.store.logging_reads
        )
        if memo is not None:
            memo_before = (
                memo.hits, memo.misses, memo.replayed_boxes, memo.page_hits
            )
        with tracer.span("render", page=page_name) as span:
            tree = None
            if pages:
                tree = memo.probe_page(page_name, arg, state.store, fuel)
            executed = tree is None
            if executed:
                tree = self._evaluator.run_render(
                    state.store, ast.App(page.render, arg), fuel=fuel,
                )
            self._check_deadline("RENDER", virtual_before)
            boxes, height = tree.shape()
            limit = max_display_depth()
            if height > limit:
                # Recursion through the render machines runs on explicit
                # stacks, but the display's consumers recurse per level.
                raise FuelExhausted(
                    "the display nests {} boxes deep; at most {} can be "
                    "shown".format(height, limit)
                )
            if pages and executed:
                memo.store_page(
                    page_name, arg, state.store, tree,
                    self._evaluator.last_steps,
                )
            tracer.add("boxes_rendered", boxes)
            state.display = tree
            self._last_valid_display = tree
            if memo is not None:
                self._record_render_reuse(memo, memo_before)
        self._record("RENDER", detail=page_name, started=started, span=span)
        return tree

    def _record_render_reuse(self, memo, before):
        """Per-render memo deltas; extra accounting after an UPDATE.

        The first render after UPDATE is the latency the live loop is
        about, so it gets its own counters plus the ``update_reuse_ratio``
        gauge — the fraction of memoizable calls the edit did *not*
        invalidate.
        """
        hits_before, misses_before, replayed_before, pages_before = before
        stats = {
            "hits": memo.hits - hits_before,
            "misses": memo.misses - misses_before,
            "replayed_boxes": memo.replayed_boxes - replayed_before,
            "page_hits": memo.page_hits - pages_before,
        }
        self.last_render_stats = stats
        self.tracer.add("incremental.replayed_boxes", stats["replayed_boxes"])
        if self._render_after_update:
            self._render_after_update = False
            self.last_update_render_stats = stats
            self.tracer.add("incremental.update_hits", stats["hits"])
            self.tracer.add("incremental.update_misses", stats["misses"])
            total = stats["hits"] + stats["misses"]
            # A page hit reused the whole render.
            self.tracer.gauge(
                "incremental.update_reuse_ratio",
                stats["hits"] / total if total else float(
                    stats["page_hits"] > 0
                ),
            )

    # -- the code-update rule ---------------------------------------------------------

    def update(self, new_code, natives=None):
        """(UPDATE): swap in ``C'``, fix up ``S`` and ``P``, invalidate ``D``.

        Premises: the queue is empty (updates happen in quiescent moments;
        the live editor guarantees this by running events to completion
        first) and ``C' ⊢ C'`` — ill-typed programs are *rejected*, raising
        :class:`UpdateRejected`, and the running program is untouched; this
        is how the live view stays available while the programmer types
        through broken intermediate states.

        Returns the :class:`~repro.system.fixup.FixupReport` describing any
        state the update deleted.
        """
        if not self.state.queue.is_empty():
            raise SystemError_("UPDATE requires an empty event queue")
        if natives is not None:
            self.natives = natives
        started = clock()
        with self.tracer.span("update") as span:
            with self.tracer.span("typecheck_update"):
                problems = _core_problems(new_code, self.natives)
            if problems:
                raise UpdateRejected(
                    "the new program is not well-typed "
                    "({} problem{})".format(
                        len(problems), "" if len(problems) == 1 else "s"
                    ),
                    problems=problems,
                )
            versions_before = (
                self.state.store.versions_snapshot()
                if self.capture_provenance else None
            )
            with self.tracer.span("fixup"):
                new_store, new_stack, report = fixup(
                    new_code, self.state.store, self.state.stack,
                    self.natives, tracer=self.tracer,
                )
            if versions_before is not None:
                after = new_store.versions_snapshot()
                self.provenance_log.append({
                    "rule": "UPDATE", "detail": "",
                    "reads": (),
                    # Fix-up *carries* surviving versions, so any diff
                    # here is a type-mismatch re-initialisation; dropped
                    # names are the S-SKIP deletions.
                    "writes": {
                        name: version for name, version in after.items()
                        if versions_before.get(name) != version
                    },
                    "deleted": tuple(
                        name for name in versions_before
                        if name not in after
                    ),
                })
            self.state.code = new_code
            self.state.store = new_store
            self.state.stack = new_stack
            self._invalidate()
            if self._memo_store is not None:
                impls = self._snapshot_native_impls()
                old_impls = self._native_impls
                rebound = frozenset(
                    name
                    for name in old_impls.keys() | impls.keys()
                    if old_impls.get(name) is not impls.get(name)
                )
                if rebound:
                    # Digests cannot see host Python, so entries touched
                    # by a rebound native are stale under unchanged keys.
                    self._memo_store.invalidate_natives(rebound)
                self._native_impls = impls
                self.tracer.add(
                    "incremental.entries_carried", len(self._memo_store)
                )
                self._render_after_update = True
            self._evaluator = self._make_evaluator(new_code)
            if not report.clean:
                span.annotate(
                    dropped=", ".join(
                        report.dropped_globals + report.dropped_pages
                    )
                )
        self._record(
            "UPDATE",
            detail="" if report.clean else "dropped {}".format(
                ", ".join(report.dropped_globals + report.dropped_pages)
            ),
            started=started, span=span,
        )
        return report

    # -- scheduling ----------------------------------------------------------------------

    def enabled_internal_transition(self):
        """Name of the internal transition the scheduler would fire, or None.

        While the state is unstable "one of the following transitions is
        always enabled" (Section 4.2); in fact exactly one is, so the
        system is deterministic between user actions.
        """
        state = self.state
        if state.stack.is_empty() and state.queue.is_empty():
            return "STARTUP"
        if not state.queue.is_empty():
            return "EVENT"
        if state.display is STALE and not state.stack.is_empty():
            return "RENDER"
        return None

    def step(self):
        """Fire the enabled internal transition; returns its rule name or
        ``None`` when the system is stable with a valid display."""
        choice = self.enabled_internal_transition()
        if choice == "STARTUP":
            self.startup()
        elif choice == "EVENT":
            self.handle_next_event()
        elif choice == "RENDER":
            self.render()
        return choice

    def run_to_stable(self, max_transitions=100_000):
        """Iterate :meth:`step` until stable with a valid display.

        The bound guards against programs that push pages forever ("this
        can lead to an infinite loop of pushing new pages").
        """
        fired = 0
        while True:
            choice = self.step()
            if choice is None:
                return fired
            fired += 1
            if fired >= max_transitions:
                raise SystemError_(
                    "no stable state after {} transitions — the program "
                    "is pushing pages or events forever".format(fired)
                )
