"""Exception hierarchy for the whole library.

Every failure mode in the reproduction raises a subclass of
:class:`ReproError`, so callers can catch one base class at the API
boundary.  The hierarchy mirrors the phases of the system: syntax errors
from the surface parser, type errors from the type-and-effect checker
(Fig. 10/11 of the paper), evaluation errors from the machine (Fig. 8), and
system errors from the global transition relation (Fig. 9).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


def drop_traceback(error):
    """Return ``error`` with its traceback, and its chained ones, cleared.

    Diagnostics and faults are kept long after they are raised (an
    edit's ``problems``, a runtime's fault log, a rollback record).  A
    traceback would pin every frame it passed through — the parser's
    token list, the compiler's locals — and nothing reads a kept error's
    traceback, so the keepers drop it.
    """
    pending = [error]
    seen = set()
    while pending:
        current = pending.pop()
        if current is None or id(current) in seen:
            continue
        seen.add(id(current))
        current.__traceback__ = None
        pending.append(current.__cause__)
        pending.append(current.__context__)
    return error


class SpannedError(ReproError):
    """An error that can carry a source span (``repro.surface.span.Span``).

    The span is optional because errors can also originate from
    programmatically-constructed core terms that have no source text.
    """

    def __init__(self, message, span=None):
        super().__init__(message)
        self.message = message
        self.span = span

    def __str__(self):
        if self.span is not None:
            return "{}: {}".format(self.span, self.message)
        return self.message


class SyntaxProblem(SpannedError):
    """A lexical or grammatical error in surface-language source text."""


class TypeProblem(SpannedError):
    """A violation of the type-and-effect system (Fig. 10/11).

    ``rule`` names the typing rule whose premise failed (e.g. ``"T-ASSIGN"``)
    so tests and diagnostics can pinpoint exactly which part of the formal
    system rejected the program.
    """

    def __init__(self, message, rule=None, span=None):
        super().__init__(message, span=span)
        self.rule = rule

    def __str__(self):
        base = super().__str__()
        if self.rule is not None:
            return "[{}] {}".format(self.rule, base)
        return base


class EffectProblem(TypeProblem):
    """A type error caused specifically by an effect-discipline violation.

    For example: render code assigning a global variable, or an event
    handler creating a box.  These are the errors that enforce the paper's
    model/view separation.
    """


class EvalError(ReproError):
    """A runtime failure in expression evaluation.

    Well-typed programs cannot raise this except through explicit partial
    operations (division by zero, out-of-range projection on a *list*,
    fuel exhaustion); the metatheory tests rely on that.
    """


class FuelExhausted(EvalError):
    """Evaluation exceeded its step budget (used to bound divergence)."""


class StuckExpression(EvalError):
    """A non-value expression admits no evaluation step in the current mode.

    The progress property of Section 4.3 says this never happens for
    well-typed expressions; the metatheory test-suite asserts exactly that.
    """


class SystemError_(ReproError):
    """An illegal system-level transition was requested (Fig. 9).

    Named with a trailing underscore to avoid shadowing the Python builtin
    ``SystemError``.
    """


class UpdateRejected(SystemError_):
    """A code update did not satisfy ``C' |- C'`` and was refused.

    The UPDATE transition of Fig. 9 requires the incoming program to be
    well-typed; ill-typed programs never replace the running code, which is
    what keeps the live view continuously available while the programmer
    types through intermediate broken states.
    """

    def __init__(self, message, problems=()):
        super().__init__(message)
        self.problems = tuple(problems)


class NativeError(EvalError):
    """A native (host-implemented) function failed."""


class DeadlineExceeded(EvalError):
    """A single transition consumed more virtual time than its budget.

    Raised by the supervision layer (``repro.resilience``) when a
    :class:`~repro.resilience.supervisor.Budget` carries a virtual-clock
    deadline and one handler or render charged more simulated latency
    than the deadline allows — the live system's answer to "slow I/O
    must not wedge a session forever".
    """


class InjectedFault(EvalError):
    """A fault deliberately injected by the chaos harness.

    Only ever raised by :mod:`repro.resilience.chaos` under a seeded
    :class:`~repro.resilience.chaos.FaultPlan`; seeing one outside a
    chaos test means an injector leaked into production wiring.
    """


class SessionQuarantined(ReproError):
    """The session's circuit breaker is open.

    A session that faults repeatedly is quarantined by the
    :class:`~repro.serve.host.SessionHost`: interactions are refused
    with this typed error while ``render`` keeps serving the last-good
    display (degraded, but never a dead session).  A successful
    ``edit_source`` — the programmer fixing the bug — closes the
    breaker again.
    """
