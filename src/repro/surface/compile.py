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
"""

from __future__ import annotations

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


def compile_source(source, host_impls=None, tracer=NULL_TRACER):
    """Compile surface ``source`` to a :class:`CompiledProgram`.

    ``host_impls`` maps each declared ``extern fun`` name to its Python
    implementation ``impl(services, *args)``.  Raises
    :class:`~repro.core.errors.SyntaxProblem` or
    :class:`~repro.core.errors.TypeProblem` on the first error.

    ``tracer`` (repro.obs) records one span per pipeline phase —
    ``parse`` / ``typecheck`` / ``lower`` — so a live edit cycle can be
    broken down end to end.
    """
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
