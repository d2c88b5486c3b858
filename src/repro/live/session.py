"""The live programming session — the headless IDE of Fig. 2.

A :class:`LiveSession` owns the source text and the running program and
keeps them continuously connected:

* **live editing** — :meth:`edit_source` re-parses, re-typechecks and
  re-compiles on every edit.  A well-typed program fires the UPDATE
  transition and the display refreshes under the new code with the old
  model state; a broken one is *rejected* and the program keeps running
  the last good code (the paper's editor keeps the live view alive while
  the programmer types through intermediate broken states).
* **UI-code navigation** — :meth:`select_box` / :meth:`select_code`.
* **direct manipulation** — :meth:`manipulate` turns an attribute edit on
  a selected box into a code edit, then live-applies it.

All user interactions (tap/back/edit) pass through to the runtime so a
scripted "programmer" can interleave using the app with editing it —
which is the paper's entire point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import (
    ReproError,
    SyntaxProblem,
    TypeProblem,
    UpdateRejected,
    drop_traceback,
)
from ..obs.trace import NULL_TRACER, Stopwatch
from ..surface.compile import compile_source
from ..system.runtime import Runtime
from .editor import CodeBuffer
from .manipulation import apply_manipulation
from .navigation import box_to_code, code_to_boxes, selection_chain


@dataclass(frozen=True)
class EditResult:
    """Outcome of one live edit.

    ``phases`` is the per-phase wall-second breakdown of the edit cycle
    (``parse`` / ``typecheck`` / ``lower`` / ``update`` / ``render``),
    populated when the session was created with a real tracer; with the
    default NullTracer it is empty and only ``elapsed`` is measured.

    ``status`` is ``"applied"``, ``"rejected"`` (did not compile /
    did not type), or — only for sessions created with
    ``supervised=True`` — ``"rolled_back"``: the new program was
    well-typed but faulted on its very first render, so the supervisor
    restored the last-good code and the old program is still running.

    ``memo_hits`` / ``memo_misses`` / ``replayed_boxes`` describe the
    re-render that applied the edit when the session runs with
    ``memo_render=True`` (repro.incremental): how many render calls were
    replayed from the update-surviving memo store versus re-executed,
    and how many cached boxes were spliced in without re-execution.
    They stay zero for unmemoized sessions and rejected edits.
    """

    status: str                    # "applied", "rejected", "rolled_back"
    problems: tuple = ()           # diagnostics when rejected
    report: object = None          # FixupReport when applied
    elapsed: float = 0.0           # wall seconds for compile+update+render
    phases: tuple = ()             # ((phase_name, wall_seconds), ...)
    memo_hits: int = 0             # render calls replayed from the memo
    memo_misses: int = 0           # render calls re-executed
    replayed_boxes: int = 0        # boxes spliced from cache, not rebuilt

    @property
    def applied(self):
        return self.status == "applied"

    @property
    def phase_seconds(self):
        """The breakdown as a dict (sums repeated phases)."""
        breakdown = {}
        for name, seconds in self.phases:
            breakdown[name] = breakdown.get(name, 0.0) + seconds
        return breakdown


class LiveSession:
    """A running program plus its editable source."""

    def __init__(
        self,
        source,
        host_impls=None,
        services=None,
        faithful=False,
        reuse_boxes=False,
        memo_render=False,
        memo_store=None,
        tracer=None,
        fault_policy="raise",
        budget=None,
        chaos=None,
        supervised=False,
        backend=None,
    ):
        self.host_impls = dict(host_impls or {})
        #: Shared observability hook (repro.obs) for the whole session:
        #: the compile pipeline, the system transitions and the machines
        #: all record into it.  NullTracer (the default) disables it all.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.compiled = compile_source(
            source, self.host_impls, tracer=self.tracer
        )
        self.runtime = Runtime(
            self.compiled.code,
            natives=self.compiled.natives,
            services=services,
            faithful=faithful,
            reuse_boxes=reuse_boxes,
            memo_render=memo_render,
            memo_store=memo_store,
            tracer=self.tracer,
            fault_policy=fault_policy,
            budget=budget,
            chaos=chaos,
            backend=backend,
        )
        #: Resilience (repro.resilience): with ``supervised=True`` every
        #: live edit goes through a Supervisor — an update whose first
        #: render faults is rolled back to the last-good code, so the
        #: programmer sees ``"rolled_back"`` instead of a dead view.
        self.supervisor = None
        if supervised:
            from ..resilience.supervisor import Supervisor

            self.supervisor = Supervisor(self.runtime, tracer=self.tracer)
        self.runtime.start()
        self.buffer = CodeBuffer(source)
        #: Diagnostics for the *current buffer* (empty when it compiled).
        self.problems = ()
        self.edit_log = []
        # Undo/redo over *accepted* program versions.  Each entry is a
        # source text that once ran; undoing replays it through the
        # ordinary UPDATE path, so state fix-up applies as usual.
        self._undo_stack = [source]
        self._redo_stack = []

    # -- source state -----------------------------------------------------------

    @property
    def source(self):
        """The current buffer contents (possibly not yet compilable)."""
        return self.buffer.source

    @property
    def display(self):
        return self.runtime.display

    # -- live editing ------------------------------------------------------------

    def edit_source(self, new_source):
        """Replace the buffer and try to live-apply it.

        Always updates the buffer (the programmer's text is never thrown
        away); the running program only changes when the new source
        compiles and the UPDATE transition accepts it.
        """
        self.buffer.set_source(new_source)
        watch = Stopwatch()
        with self.tracer.span("edit_cycle") as cycle:
            try:
                compiled = compile_source(
                    new_source, self.host_impls, tracer=self.tracer
                )
            except (SyntaxProblem, TypeProblem) as problem:
                return self._finish_edit(
                    "rejected", watch, cycle, problems=(problem,)
                )
            return self._apply(compiled, watch, cycle)

    def apply_compiled(self, compiled):
        """Live-apply a program compiled from source elsewhere.

        ``compiled`` must come from :func:`~repro.surface.compile.
        compile_source` with this session's host implementations; the
        result is what :meth:`edit_source` of ``compiled.source`` would
        return, without compiling the source a second time.
        """
        self.buffer.set_source(compiled.source)
        watch = Stopwatch()
        with self.tracer.span("edit_cycle") as cycle:
            return self._apply(compiled, watch, cycle)

    def _apply(self, compiled, watch, cycle):
        """The UPDATE half of an edit cycle, for a compiled program."""
        try:
            if self.supervisor is not None:
                outcome = self.supervisor.apply_update(
                    compiled.code, natives=compiled.natives
                )
                if outcome.rolled_back:
                    # The new code typed but could not draw a frame; the
                    # last-good program is running again.  The buffer
                    # keeps the programmer's text.
                    return self._finish_edit(
                        "rolled_back", watch, cycle,
                        problems=(outcome.fault,),
                    )
                report = outcome.report
            else:
                report = self.runtime.update_code(
                    compiled.code, natives=compiled.natives
                )
        except UpdateRejected as rejected:
            # The surface checker should have caught everything; if the
            # core checker disagrees, surface it rather than crash.
            return self._finish_edit(
                "rejected", watch, cycle, problems=rejected.problems
            )
        self.compiled = compiled
        new_source = compiled.source
        if new_source != self._undo_stack[-1]:
            self._undo_stack.append(new_source)
            self._redo_stack.clear()
        # The re-render that applied this edit has already run
        # (update_code settles the system), so the incremental engine's
        # reuse numbers for it are final.
        reuse = self.runtime.system.last_update_render_stats
        return self._finish_edit(
            "applied", watch, cycle,
            report=report,
            memo_hits=reuse.get("hits", 0),
            memo_misses=reuse.get("misses", 0),
            replayed_boxes=reuse.get("replayed_boxes", 0),
        )

    def _finish_edit(self, status, watch, cycle, problems=(), **fields):
        """Record the edit's diagnostics and :class:`EditResult`.

        The diagnostics outlive the edit, so their tracebacks (which
        would pin the compiler's frames) are dropped here.
        """
        self.problems = tuple(drop_traceback(problem) for problem in problems)
        result = EditResult(
            status=status,
            problems=self.problems,
            elapsed=watch.elapsed(),
            phases=self._cycle_phases(cycle),
            **fields
        )
        self.edit_log.append(result)
        return result

    def _cycle_phases(self, cycle):
        """Per-phase durations: the finished children of the cycle span."""
        if cycle.span_id is None:
            return ()
        return tuple(
            (span.name, span.duration)
            for span in self.tracer.children_of(cycle.span_id)
        )

    def can_undo(self):
        return len(self._undo_stack) > 1

    def can_redo(self):
        return bool(self._redo_stack)

    def undo(self):
        """Live-apply the previous accepted program version.

        Undo is itself an UPDATE: the *code* goes back, the *model state*
        is fixed up against it (Fig. 12) — interactions made since the
        edit are not rolled back, exactly as if the programmer had typed
        the old program again.
        """
        if not self.can_undo():
            raise ReproError("nothing to undo")
        current = self._undo_stack.pop()
        previous = self._undo_stack[-1]
        result = self.edit_source(previous)
        # edit_source saw previous == top-of-stack, so it neither pushed
        # nor cleared the redo stack; record the redo direction manually.
        if result.applied:
            self._redo_stack.append(current)
        else:  # defensive: e.g. externs changed out from under us
            self._undo_stack.append(current)
        return result

    def redo(self):
        """Re-apply the most recently undone version."""
        if not self.can_redo():
            raise ReproError("nothing to redo")
        source = self._redo_stack.pop()
        remaining = list(self._redo_stack)
        result = self.edit_source(source)  # pushes + clears redo
        # Restore the deeper redo history the push wiped.
        if result.applied:
            self._redo_stack = remaining
        else:
            self._redo_stack = remaining + [source]
        return result

    def replace_text(self, old, new):
        """Edit by unique textual replacement (scripted-programmer sugar)."""
        count = self.source.count(old)
        if count != 1:
            raise ReproError(
                "replace_text: pattern occurs {} times, expected "
                "exactly once".format(count)
            )
        return self.edit_source(self.source.replace(old, new))

    # -- navigation ---------------------------------------------------------------

    def select_box(self, path):
        """Live view → code view: the boxed statement behind ``path``."""
        return box_to_code(self.display, path, self.compiled.sourcemap)

    def select_code(self, line):
        """Code view → live view: all boxes of the boxed stmt at ``line``."""
        return code_to_boxes(self.display, line, self.compiled.sourcemap)

    def selection_chain(self, path):
        """Nested-selection cycle (repeated taps select enclosing boxes)."""
        return selection_chain(self.display, path, self.compiled.sourcemap)

    # -- direct manipulation ----------------------------------------------------------

    def manipulate(self, path, attr, value):
        """Set ``attr`` of the box at ``path`` by editing the code.

        Returns ``(edit, result)``: the code edit that was made and the
        :class:`EditResult` of live-applying it.
        """
        selection = self.select_box(path)
        if selection is None:
            raise ReproError(
                "the box at {} was not created by a boxed statement".format(
                    list(path)
                )
            )
        new_source, edit = apply_manipulation(
            self.source, self.compiled.sourcemap, selection.box_id,
            attr, value,
        )
        result = self.edit_source(new_source)
        return edit, result

    # -- user actions (the programmer also *uses* the app) ------------------------------

    def tap(self, path):
        self.runtime.tap(path)
        return self

    def tap_text(self, text):
        self.runtime.tap_text(text)
        return self

    def edit_box(self, path, text):
        self.runtime.edit(path, text)
        return self

    def back(self):
        self.runtime.back()
        return self

    # -- probes (Section 5's debugging future work) ---------------------------------------

    def probe(self, fun_name, *py_args):
        """Run a program function against the live model, off to the side.

        State-effect functions run against a *copy* of the store; the
        result reports what they would have changed.  Render-effect
        functions return the box tree they build (captured debugging
        output).  See :mod:`repro.live.probe`.
        """
        from .probe import probe_function

        return probe_function(self, fun_name, *py_args)

    def probe_expr(self, text):
        """Evaluate a surface expression in the program's context (REPL)."""
        from .probe import probe_expression

        return probe_expression(self, text)

    # -- views --------------------------------------------------------------------------

    def screenshot(self, width=48, selection=None):
        """The live view, optionally with a selection highlighted."""
        from ..render.text_backend import render_text

        selected_paths = selection.paths if selection is not None else ()
        return render_text(
            self.display, width=width, selected_paths=selected_paths
        )

    def html(self, title="repro page"):
        """The live view as a standalone HTML document (second backend).

        This is what the :mod:`repro.serve` protocol's ``render`` op
        returns; tests use it to check that an evicted-and-rehydrated
        session's display is byte-identical to a never-evicted one.
        """
        from ..render.html_backend import render_html

        return render_html(self.display, title=title)

    def apply_events(self, events):
        """Apply a batch of queued user events with one render at the end.

        ``events`` is a sequence of ``("tap", path)`` / ``("tap_text",
        text)`` / ``("edit", path, text)`` / ``("back",)`` tuples.  See
        :mod:`repro.serve.batching` — N events produce a single RENDER,
        the semantics' "render only on quiescence".
        """
        from ..serve.batching import apply_batch

        return apply_batch(self, events)

    def side_by_side(self, width=44, selection=None, code_window=None):
        """The Fig. 2 split screen: live view left, code view right."""
        from .screenshot import side_by_side

        return side_by_side(
            self, width=width, selection=selection, code_window=code_window
        )
