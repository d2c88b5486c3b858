"""Supervision: transition budgets and UPDATE rollback.

The paper's system is *always live*: between user actions the scheduler
runs internal transitions until the display is valid again.  A runaway
handler or a pathological render breaks that promise — so every
transition runs under a :class:`Budget` (an evaluation-step *fuel* cap
plus a *virtual-clock deadline*), and a :class:`Supervisor` guards the
one transition that swaps code under a running program: an UPDATE whose
very first render faults is **rolled back** to the last-good code, the
way the paper's IDE keeps the old program running while the programmer
types through broken states (Section 2's fix-up relation is itself a
recovery mechanism; rolling back is its conservative dual).

Budgets are enforced *inside* :meth:`repro.system.transitions.System`
(fuel is threaded into every evaluator run; the deadline is checked
against the services' :class:`~repro.system.services.VirtualClock`
after each event/render), so they compose with both fault policies:
under ``"raise"`` a blown budget propagates as
:class:`~repro.core.errors.FuelExhausted` /
:class:`~repro.core.errors.DeadlineExceeded`; under ``"record"`` it is
logged and the session stays live — exactly like any other fault.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import (
    DeadlineExceeded,
    EvalError,
    FuelExhausted,
    ReproError,
    UpdateRejected,
    drop_traceback,
)
from ..eval.machine import DEFAULT_FUEL
from ..obs.trace import NULL_TRACER


@dataclass(frozen=True)
class Budget:
    """Per-transition resource limits.

    ``fuel`` bounds evaluation steps for one handler or render run
    (:class:`~repro.core.errors.FuelExhausted` past it); ``deadline``
    bounds the *virtual* seconds a single transition may charge to the
    session's clock (:class:`~repro.core.errors.DeadlineExceeded` past
    it), ``None`` meaning unlimited.  Virtual time only advances when
    natives charge simulated latency, so the deadline is deterministic —
    the same program blows the same budget on every replay.
    """

    fuel: int = DEFAULT_FUEL
    deadline: float = None

    def __post_init__(self):
        if self.fuel < 1:
            raise ReproError("budget fuel must be at least 1")
        if self.deadline is not None and self.deadline < 0:
            raise ReproError("budget deadline must be non-negative")

    @staticmethod
    def charge(steps, fuel, machine):
        """The one fuel check every evaluation machine shares.

        Raises :class:`~repro.core.errors.FuelExhausted` once ``steps``
        exceeds ``fuel``; ``machine`` names the machine in the message
        (``"small-step"`` / ``"big-step"`` / ``"compiled"``).  The
        machines keep their own step *counting* in their hot loops and
        delegate the raise here, so the message format and the boundary
        condition cannot drift between backends.
        """
        if steps > fuel:
            raise FuelExhausted(
                "{} budget of {} exhausted".format(machine, fuel)
            )

    def check_deadline(self, rule, spent):
        """The virtual-clock deadline check shared by all transitions.

        ``spent`` is the virtual seconds one transition charged;
        ``rule`` names it (``"THUNK"``, ``"RENDER"``, …) in the
        :class:`~repro.core.errors.DeadlineExceeded` message.
        """
        deadline = self.deadline
        if deadline is not None and spent > deadline:
            raise DeadlineExceeded(
                "{} charged {:.3f} virtual seconds; the budget allows "
                "{:.3f}".format(rule, spent, deadline)
            )


#: The do-nothing budget: default fuel, no deadline.
UNLIMITED = Budget()


@dataclass(frozen=True)
class UpdateOutcome:
    """What :meth:`Supervisor.apply_update` did.

    ``status`` is ``"applied"`` (the new code is running) or
    ``"rolled_back"`` (its first render faulted, the last-good code is
    running again and ``fault`` holds the error).  ``report`` is the
    forward UPDATE's fix-up report when one completed.
    """

    status: str
    report: object = None
    fault: object = None

    @property
    def applied(self):
        return self.status == "applied"

    @property
    def rolled_back(self):
        return self.status == "rolled_back"


class Supervisor:
    """Guards code UPDATEs on a :class:`~repro.system.runtime.Runtime`.

    A well-typed program can still fault at runtime (division by zero in
    render code, an injected chaos fault, a blown budget).  The plain
    UPDATE transition commits the new code *before* the first render
    proves it can draw a frame; the supervisor adds the missing
    contract: **an update only sticks if it renders**.  On a faulting
    first render the supervisor re-applies the previous code (another
    UPDATE, so the Fig. 12 fix-up governs what state survives) and
    reports ``rolled_back`` — the old program keeps running, the model
    state is untouched, and the ``rollbacks`` counter ticks.

    Type rejections (:class:`~repro.core.errors.UpdateRejected`) are
    *not* the supervisor's business — the running program was never
    touched — and propagate unchanged.
    """

    def __init__(self, runtime, tracer=None):
        self.runtime = runtime
        self.tracer = tracer if tracer is not None else runtime.tracer
        #: Rollbacks performed, newest last: ``(fault, during)`` pairs.
        self.rollbacks = []

    def apply_update(self, new_code, natives=None):
        """UPDATE to ``new_code``; roll back if its first render faults."""
        runtime = self.runtime
        old_code = runtime.system.code
        old_natives = runtime.system.natives
        faults_before = len(runtime.faults)
        try:
            report = runtime.update_code(new_code, natives=natives)
        except UpdateRejected:
            raise  # never committed; nothing to roll back
        except EvalError as fault:
            # "raise" policy: the post-update settle faulted.
            drop_traceback(fault)
            self._roll_back(old_code, old_natives, fault)
            return UpdateOutcome(status="rolled_back", fault=fault)
        render_faults = [
            fault for fault in runtime.faults[faults_before:]
            if fault.during == "RENDER"
        ]
        if render_faults:
            # "record" policy: the fault screen is up; restore the code
            # that could draw and drop the fault screen with it.
            self._roll_back(old_code, old_natives, render_faults[0].error)
            return UpdateOutcome(
                status="rolled_back",
                report=report,
                fault=render_faults[0].error,
            )
        return UpdateOutcome(status="applied", report=report)

    def _roll_back(self, old_code, old_natives, fault):
        runtime = self.runtime
        runtime.system.update(old_code, natives=old_natives)
        runtime._settle()
        self.rollbacks.append((fault, "UPDATE"))
        self.tracer.add("rollbacks")
