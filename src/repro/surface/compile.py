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

A source the table does not hold is compiled one top-level declaration
at a time (:mod:`repro.surface.decls`): a declaration compiled before
with the same text, first box id and program interface is reused — its
annotated AST, core definitions (the same objects) and sourcemap entries
— so a live edit parses, checks and lowers only what it changed.  The
core check, the compiled unit and the memo facts of the new ``Code``
then reuse the per-definition work of every reused definition
(:func:`repro.core.defs.def_derived`): one changed declaration costs one
declaration's verdict, closures and digests.  A broken edit costs no
more: its syntax or type error is decided from the declarations parsed
now, and is the one the whole program raises.  :func:`compile_fresh`
stays the uncached whole-program pipeline — the reference, and the path
a source takes when its error is not decided per declaration
(``surface.fresh_fallbacks`` counts those), so diagnostics never depend
on what was compiled before.
"""

from __future__ import annotations

from ..core.defs import Code
from ..core.errors import ReproError, TypeProblem
from ..core.lru import LruTable
from ..eval.natives import NativeTable
from ..obs.trace import NULL_TRACER
from ..typing.program import code_problems
from . import decls
from .lower import lower_program
from .parser import parse
from .sourcemap import SourceMap, build_sourcemap
from .typecheck import typecheck_problems


class CompiledProgram:
    """Everything the runtime and the live IDE need about one program.

    ``code`` (core), ``natives``, ``sourcemap`` and the names of the
    ``generated_functions`` are what running and editing read.
    ``program`` (the annotated surface AST) and ``env`` (its
    :class:`~repro.surface.resolve.ProgramEnv`) serve tools such as
    probes; a program assembled from reused declarations builds them on
    first read (see :mod:`repro.surface.decls`).
    """

    def __init__(self, source, code, natives, sourcemap,
                 generated_functions, surface):
        self.source = source
        self.code = code
        self.natives = natives
        self.sourcemap = sourcemap
        self.generated_functions = generated_functions
        #: ``(program, env)``, or a function that builds the pair.
        self._surface = surface

    @property
    def program(self):
        return self._built_surface()[0]

    @property
    def env(self):
        return self._built_surface()[1]

    def _built_surface(self):
        surface = self._surface
        if callable(surface):
            # Racing first reads may both build it; either pair is whole.
            surface = self._surface = surface()
        return surface


#: How many compiled programs the per-process intern table keeps.  One
#: version of the paper's mortgage app holds ~300 KiB (front end plus
#: compiled closures), so the bound also caps what a long live-editing
#: session keeps: sessions share the versions they run, and a programmer
#: flipping between recent edits finds them here.
INTERN_BOUND = 8


_INTERNED = LruTable(INTERN_BOUND)


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
    broken down end to end, and counts the declarations the compile
    reused and compiled (``surface.decls_reused`` /
    ``surface.decls_compiled``, also set on the enclosing span) and the
    sources that fell back to :func:`compile_fresh`
    (``surface.fresh_fallbacks``).
    """
    impls = tuple(sorted((host_impls or {}).items()))
    # Identities key the table; the entry holds the implementations, so
    # no id can be reused while its entry is alive.
    key = (source, tuple((name, id(impl)) for name, impl in impls))
    entry = _INTERNED.get(key)
    if entry is None:
        entry = _INTERNED.put(
            key, (_compile_incremental(source, host_impls, tracer), impls)
        )
    else:
        tracer.add("surface.intern_hits")
    return entry[0]


def _compile_incremental(source, host_impls, tracer):
    """The pipeline, reusing every declaration compiled before in the
    same context (:mod:`repro.surface.decls`); a source whose error the
    declarations do not decide alone, or that does not split into
    declarations, goes to :func:`compile_fresh`."""
    front = decls.front_end(source, tracer)
    if front is None:
        tracer.add("surface.fresh_fallbacks")
        return compile_fresh(source, host_impls, tracer)
    with tracer.span("lower"):
        code = Code(front.definitions)
        natives = _bind_externs(front.extern_sigs, host_impls or {})
        _check_core(code, natives)
    tracer.add("surface.decls_reused", front.reused)
    tracer.add("surface.decls_compiled", front.compiled)
    tracer.annotate_current(
        decls_reused=front.reused, decls_compiled=front.compiled
    )
    return CompiledProgram(
        source=source,
        code=code,
        natives=natives,
        sourcemap=SourceMap(front.entries),
        generated_functions=tuple(front.generated),
        surface=front.surface,
    )


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
        _check_core(lowered.code, natives)
    return CompiledProgram(
        source=source,
        code=lowered.code,
        natives=natives,
        sourcemap=build_sourcemap(program),
        generated_functions=tuple(lowered.generated_functions),
        surface=(program, env),
    )


def _check_core(code, natives):
    core_issues = code_problems(code, natives)
    if core_issues:
        raise ReproError(
            "internal lowering error — the lowered program fails "
            "the core checker: {}".format(core_issues[0])
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
