"""The pluggable evaluator API: one protocol, two machines.

Everything above the expression layer — the system transitions, live
sessions, the serve host, cluster workers — picks its evaluator through
an :class:`EvalBackend` instead of importing a machine class directly:

* **compile hook** — :meth:`EvalBackend.compile` builds an evaluator
  for one *code version* (the system calls it at construction and again
  on every UPDATE);
* **step hooks** — the returned evaluator satisfies the protocol the
  transitions consume: ``run_state(store, queue, expr, fuel=…)``,
  ``run_render(store, expr, fuel=…)`` and ``run_pure(store, expr,
  fuel=…)``.

Two backends ship.  ``"compiled"`` (the closure-compilation machine of
:mod:`repro.compile`) is the default: each code version is compiled once
per process and shared by every session that runs it, so its
``compile`` hook only binds the shared unit to the session.  ``"tree"``
is the CEK tree-walker of :mod:`repro.eval.machine`, kept selectable.
Neither is the oracle: ``faithful=True`` runs the small-step machine
whatever the backend.  Select one with the kw-only ``backend=`` option
on :class:`repro.api.LiveSession` / :class:`repro.api.SessionHost`, or
``--backend`` on ``repro run`` / ``repro serve`` (cluster serves pass it
through to every worker).
"""

from __future__ import annotations

from ..core.errors import ReproError
from ..obs.trace import NULL_TRACER
from .machine import BigStep
from .natives import EMPTY_NATIVES


class EvalBackend:
    """Base class (and documentation) of the backend protocol."""

    #: Registry key and the value persisted in saved images.
    name = None

    def compile(self, code, natives=EMPTY_NATIVES, services=None, memo=None,
                tracer=NULL_TRACER):
        """Build an evaluator for ``code`` (one call per code version)."""
        raise NotImplementedError

    def __repr__(self):
        return "<{} {!r}>".format(type(self).__name__, self.name)


class TreeBackend(EvalBackend):
    """The CEK tree-walking machine."""

    name = "tree"

    def compile(self, code, natives=EMPTY_NATIVES, services=None, memo=None,
                tracer=NULL_TRACER):
        return BigStep(
            code, natives=natives, services=services, memo=memo,
            tracer=tracer,
        )


class CompiledBackend(EvalBackend):
    """The default backend: closure compilation (:mod:`repro.compile`)."""

    name = "compiled"

    def compile(self, code, natives=EMPTY_NATIVES, services=None, memo=None,
                tracer=NULL_TRACER):
        from ..compile import Compiled

        return Compiled(
            code, natives=natives, services=services, memo=memo,
            tracer=tracer,
        )


#: The named backends ``resolve_backend`` accepts.
BACKENDS = {
    TreeBackend.name: TreeBackend(),
    CompiledBackend.name: CompiledBackend(),
}


def resolve_backend(spec):
    """Coerce ``spec`` to an :class:`EvalBackend`.

    Accepts ``None`` (the default compiled backend), a registered name, or
    an :class:`EvalBackend`-shaped instance (anything with a ``compile``
    hook — embedders can bring their own).
    """
    if spec is None:
        return BACKENDS["compiled"]
    if isinstance(spec, str):
        backend = BACKENDS.get(spec)
        if backend is None:
            raise ReproError(
                "unknown eval backend {!r} (expected one of: {})".format(
                    spec, ", ".join(sorted(BACKENDS))
                )
            )
        return backend
    if callable(getattr(spec, "compile", None)):
        return spec
    raise ReproError(
        "backend must be a name or an EvalBackend, got {!r}".format(spec)
    )
