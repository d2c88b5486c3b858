"""High-level runtime: the user's side of the Fig. 9 model.

:class:`Runtime` wraps :class:`~repro.system.transitions.System` and plays
the role of the device: every user action (tap, back, edit, code update)
is followed by running the system back to a stable state with a valid
display, which is what the paper's always-live loop does between
interactions.  It also offers the query helpers tests and examples lean
on — find a box by its text, read the current page, snapshot the model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..boxes.tree import Box
from ..core import ast
from ..core.errors import EvalError, ReproError, drop_traceback
from ..eval.natives import EMPTY_NATIVES
from ..eval.values import format_for_post
from ..obs.trace import NULL_TRACER
from .transitions import System


@dataclass(frozen=True)
class Fault:
    """A runtime fault recorded under the ``"record"`` fault policy.

    ``timestamp`` is wall-clock (``time.time``) at the moment the fault
    was recorded; ``vtimestamp`` is the session's *virtual-clock* time
    at the same moment, which — unlike wall time — is deterministic
    under :class:`~repro.system.services.VirtualClock` and therefore
    comparable across journal replays and re-runs of the same seeded
    chaos plan.  ``span_id`` names the tracer span of the transition
    that failed (``None`` when tracing is disabled), so a fault can be
    correlated with the span tree and the JSONL trace.
    """

    error: object
    during: str        # the transition that was executing
    timestamp: float = 0.0
    span_id: object = None
    vtimestamp: float = 0.0

    def __repr__(self):
        return "Fault({} during {})".format(self.error, self.during)


class Runtime:
    """A running, interactable program.

    >>> from repro.apps.counter import counter_code
    >>> rt = Runtime(counter_code())          # doctest: +SKIP
    >>> rt.start(); rt.tap_text("+"); rt.page_name()   # doctest: +SKIP
    """

    def __init__(
        self,
        code,
        *,
        natives=EMPTY_NATIVES,
        services=None,
        faithful=False,
        memo_store=None,
        fault_policy="raise",
        tracer=None,
        budget=None,
        chaos=None,
        backend=None,
    ):
        if fault_policy not in ("raise", "record"):
            raise ReproError(
                "fault_policy must be 'raise' or 'record', got "
                "{!r}".format(fault_policy)
            )
        #: Observability (repro.obs): a shared tracer for spans and
        #: metrics.  The NullTracer default keeps the runtime overhead-
        #: free; pass ``Tracer()`` to collect spans queryable via
        #: :meth:`spans` / :meth:`metrics`.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.system = System(
            code,
            natives=natives,
            services=services,
            faithful=faithful,
            memo_store=memo_store,
            tracer=self.tracer,
            budget=budget,
            chaos=chaos,
            backend=backend,
        )
        self._started = False
        #: ``"raise"`` propagates handler/init faults to the caller (the
        #: deterministic choice for tests); ``"record"`` logs them in
        #: :attr:`faults` and keeps the system live — a user's division
        #: by zero must not take the whole live environment down.  The
        #: faulting event is consumed either way (exactly as much of it
        #: executed as the small-step semantics had reached).
        self.fault_policy = fault_policy
        self.faults = []

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Boot: STARTUP, run the start page's init, render.  Idempotent."""
        if not self._started:
            self._settle()
            self._started = True
        return self

    def step(self):
        """Fire one internal transition under the fault policy.

        The supervised single-step: budgets (fuel + virtual-clock
        deadline, :class:`~repro.resilience.supervisor.Budget`) are
        enforced by the system underneath, and under ``"record"`` a
        faulting transition is logged — with wall *and* virtual
        timestamps — instead of propagating.  Returns the rule name that
        fired (faulting or not), or ``None`` when the system is stable
        with a valid display.
        """
        if self.fault_policy == "raise":
            return self.system.step()
        attempting = self.system.enabled_internal_transition()
        try:
            return self.system.step()
        except EvalError as error:
            # The failing transition's span closed during unwinding,
            # so the tracer's last finished span names it.
            self._record_fault(error, attempting)
            if attempting == "RENDER":
                # A render fault would recur forever (the display
                # stays ⊥); show an error screen instead — the live
                # IDE's equivalent of a red exception banner.
                self._show_fault_display(error)
            return attempting  # event faults: the queue may hold more

    def _record_fault(self, error, attempting):
        self.faults.append(Fault(
            drop_traceback(error),
            attempting,
            timestamp=time.time(),
            span_id=self.tracer.last_span_id,
            vtimestamp=self.system.services.clock.now,
        ))
        self.tracer.add("faults_recorded")

    def _settle(self):
        if self.fault_policy == "raise":
            self.system.run_to_stable()
            return
        while self.step() is not None:
            pass  # faults are recorded; the system stays live

    def _show_fault_display(self, error):
        from ..boxes.tree import make_root

        root = make_root()
        root.append_leaf(ast.Str("runtime fault while rendering:"))
        root.append_leaf(ast.Str(str(error)))
        self.system.state.display = root.freeze()
        self.system._last_valid_display = None

    # -- state access ----------------------------------------------------------

    @property
    def display(self):
        """The current box tree (valid whenever the runtime is settled)."""
        display = self.system.display
        if not isinstance(display, Box):
            raise ReproError("display is stale; call start() first")
        return display

    def page_name(self):
        """Name of the page currently on top of the stack."""
        top = self.system.state.stack.top()
        return top[0] if top else None

    def stack_pages(self):
        """Page names bottom-to-top."""
        return tuple(name for name, _ in self.system.state.stack.entries())

    def global_value(self, name):
        """Current value of a global: store entry, else declared initial.

        This mirrors rules EP-GLOBAL-1/2 — reads fall back to the initial
        value until the first assignment.
        """
        value = self.system.state.store.lookup(name)
        if value is not None:
            return value
        definition = self.system.code.global_(name)
        if definition is None:
            raise ReproError("no global named '{}'".format(name))
        return definition.init

    @property
    def trace(self):
        """All fired transitions, in order (timing-enriched: each
        :class:`~repro.system.transitions.Transition` carries ``elapsed``
        wall seconds and, when tracing is on, its ``span_id``)."""
        return tuple(self.system.trace)

    # -- observability -----------------------------------------------------

    def metrics(self):
        """Counter/gauge snapshot from the tracer (``{}`` when disabled).

        See ``docs/OBSERVABILITY.md`` for the catalog
        (``boxes_rendered``, ``memo_hits``, ``eval_steps``, …).
        """
        return self.tracer.metrics()

    def spans(self):
        """Finished tracer spans (``()`` with the default NullTracer)."""
        return self.tracer.spans()

    # -- box queries -------------------------------------------------------------

    def find_boxes(self, predicate):
        """All ``(path, box)`` pairs whose box satisfies ``predicate``."""
        return [
            (path, box)
            for path, box in self.display.walk()
            if predicate(box)
        ]

    def find_text(self, text):
        """Path of the first box posting exactly ``text``; None if absent."""
        for path, box in self.display.walk():
            for leaf in box.leaves():
                if format_for_post(leaf) == text:
                    return path
        return None

    def require_text(self, text):
        """Like :meth:`find_text` but raising — for tests and scripts."""
        path = self.find_text(text)
        if path is None:
            raise ReproError(
                "no box displays {!r}; display is:\n{}".format(
                    text, self.display.dump()
                )
            )
        return path

    def all_texts(self):
        """Every posted leaf as display text, in document order."""
        return [
            format_for_post(leaf)
            for _, box in self.display.walk()
            for leaf in box.leaves()
        ]

    def contains_text(self, text):
        return self.find_text(text) is not None

    # -- user actions ---------------------------------------------------------------

    def tap(self, path):
        """Tap the box at ``path`` (bubbles to the nearest handler)."""
        self.start()
        self.system.tap(tuple(path))
        self._settle()
        return self

    def tap_text(self, text):
        """Tap the first box displaying ``text``."""
        self.start()
        self.system.tap(self.require_text(text))
        self._settle()
        return self

    def edit(self, path, text):
        """Type ``text`` into the editable box at ``path``."""
        self.start()
        self.system.edit(tuple(path), text)
        self._settle()
        return self

    def back(self):
        """Press the device's back button."""
        self.start()
        self.system.back()
        self._settle()
        return self

    def update_code(self, new_code, natives=None):
        """Apply a live code update and re-render; returns the fix-up report.

        This is the whole point of the paper: the model state survives, the
        display is rebuilt under the new code, and the user (programmer)
        sees the effect without restarting.
        """
        self.start()
        report = self.system.update(new_code, natives=natives)
        self._settle()
        return report

    # -- rendering helpers --------------------------------------------------------------

    def screenshot(self, width=48):
        """ASCII screenshot of the current page (the Fig. 1 reproduction)."""
        from ..render.text_backend import render_text

        return render_text(self.display, width=width)
