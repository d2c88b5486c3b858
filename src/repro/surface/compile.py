"""The compile pipeline: source text → runnable core program.

    parse → resolve+typecheck (annotates the AST, infers effects)
          → lower (core calculus + extern signatures)
          → bind extern implementations (FFI)
          → check the core program against Fig. 10/11

Every code version is checked against the core rules exactly once, here.
The surface checker and the lowering are substantial, and the core
checker is tiny and rule-exact — if they ever disagree, compilation fails
loudly instead of producing a program whose UPDATE transition would later
be rejected.  The verdict stays with the lowered ``Code`` and the native
signatures it was reached under (:func:`repro.typing.program.
known_problems`), so the system that runs the program — constructed with
it, or switching to it by UPDATE — reuses it rather than checking again.

Code is immutable and kept apart from the store (σ = (C, D, S, P, Q);
UPDATE swaps only C), so one compiled program can serve every session
that runs the same source.  :func:`compile_source` keeps the last
:data:`INTERN_BOUND` programs it built in a per-process table keyed by
the source text and the host implementations: creating a session,
rehydrating or restoring one, and a live edit back to a version compiled
before all get the *same* :class:`CompiledProgram` — its ``Code``, core
verdict and the per-version facts cached on that ``Code`` (memo facts,
the compiled closures) included.  Nothing in a compiled program is
mutated after it is built, apart from those caches on its ``Code``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..core.errors import ReproError, TypeProblem
from ..eval.natives import NativeTable
from ..obs.trace import NULL_TRACER
from ..typing.program import code_problems
from .lower import lower_program
from .parser import parse
from .sourcemap import SourceMap, build_sourcemap
from .typecheck import typecheck_problems


@dataclass
class CompiledProgram:
    """Everything the runtime and the live IDE need about one program."""

    source: str
    program: object           # the annotated surface AST
    env: object               # ProgramEnv
    code: object              # core Code
    natives: NativeTable
    sourcemap: SourceMap
    generated_functions: tuple


#: How many compiled programs the per-process intern table keeps.  One
#: version of the paper's mortgage app holds ~300 KiB (front end plus
#: compiled closures), so the bound also caps what a long live-editing
#: session keeps: sessions share the versions they run, and a programmer
#: flipping between recent edits finds them here.
INTERN_BOUND = 8


class _InternTable:
    """A bounded LRU map, safe to share between a host's threads."""

    def __init__(self, bound):
        self.bound = bound
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._entries)

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key, entry):
        """Store ``entry`` unless a racing thread stored one first;
        returns the stored entry."""
        with self._lock:
            entry = self._entries.setdefault(key, entry)
            self._entries.move_to_end(key)
            while len(self._entries) > self.bound:
                self._entries.popitem(last=False)
            return entry

    def clear(self):
        with self._lock:
            self._entries.clear()


_INTERNED = _InternTable(INTERN_BOUND)


def compile_source(source, host_impls=None, tracer=NULL_TRACER):
    """Compile surface ``source`` to a :class:`CompiledProgram`.

    A source compiled before with the same host implementations (by
    identity) returns the interned program without running the
    pipeline; the tracer then records ``surface.intern_hits``.

    ``host_impls`` maps each declared ``extern fun`` name to its Python
    implementation ``impl(services, *args)``.  Raises
    :class:`~repro.core.errors.SyntaxProblem` or
    :class:`~repro.core.errors.TypeProblem` on the first error.

    ``tracer`` (repro.obs) records one span per pipeline phase —
    ``parse`` / ``typecheck`` / ``lower`` — so a live edit cycle can be
    broken down end to end.
    """
    impls = tuple(sorted((host_impls or {}).items()))
    # Identities key the table; the entry holds the implementations, so
    # no id can be reused while its entry is alive.
    key = (source, tuple((name, id(impl)) for name, impl in impls))
    entry = _INTERNED.get(key)
    if entry is None:
        entry = _INTERNED.put(
            key, (compile_fresh(source, host_impls, tracer), impls)
        )
    else:
        tracer.add("surface.intern_hits")
    return entry[0]


def compile_fresh(source, host_impls=None, tracer=NULL_TRACER):
    """The pipeline behind :func:`compile_source`, run unconditionally
    (what one novel keystroke costs); its result is not interned."""
    with tracer.span("parse"):
        program = parse(source)
    with tracer.span("typecheck"):
        env, problems = typecheck_problems(program)
    if problems:
        raise problems[0]
    with tracer.span("lower"):
        lowered = lower_program(program, env)
        natives = _bind_externs(lowered.extern_sigs, host_impls or {})
        core_issues = code_problems(lowered.code, natives)
        if core_issues:
            raise ReproError(
                "internal lowering error — the lowered program fails "
                "the core checker: {}".format(core_issues[0])
            )
    return CompiledProgram(
        source=source,
        program=program,
        env=env,
        code=lowered.code,
        natives=natives,
        sourcemap=build_sourcemap(program),
        generated_functions=tuple(lowered.generated_functions),
    )


def _bind_externs(extern_sigs, host_impls):
    natives = NativeTable()
    missing = []
    for sig in extern_sigs:
        impl = host_impls.get(sig.name)
        if impl is None:
            missing.append(sig.name)
            continue
        natives.register(sig, impl)
    if missing:
        raise TypeProblem(
            "extern function(s) without a host implementation: {}".format(
                ", ".join(sorted(missing))
            )
        )
    return natives
