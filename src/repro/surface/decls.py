"""The incremental front end: parse, check and lower per declaration.

A live edit usually changes one top-level declaration, yet a whole-source
compile re-parses, re-checks and re-lowers all of them.  This module
makes the declaration the unit of front-end work.  A source is split at
its column-0 declaration lines (the lexer closes every block at such a
line, so each declaration lexes and parses alone exactly as inside its
program), and each declaration's result — the parsed and annotated
surface declaration, its lowered core definitions and its sourcemap
entries — comes from a bounded per-process cache when the same text was
compiled before in the same context.

The context is everything the result depends on besides its text:

* the ``box_id`` of its first ``boxed`` statement (box ids are numbered
  across the whole program, and the lowered code carries them);
* the program *interface* — every record, global, function (with its
  inferred effect), extern and page signature — which is all that
  checking and lowering a declaration read of the others.  Lowering
  names fresh binders and loop functions per declaration, so nothing
  else leaks in.

Its position does not count: spans are the only position-dependent
part (the core code has none), and a result found at another line is
*rebased* — its sourcemap entries at once, its surface declaration (a
copy with every span shifted) only when a tool reads the program's AST
— rather than parsed again.  Cached surface ASTs are never mutated: a
declaration whose context changed is parsed again.

A broken edit costs only the declarations it did not hold either: its
syntax or type error is decided from the declarations parsed now (see
:func:`_samples` and :func:`_check`), and is the whole program's, bit
for bit.  Where a declaration alone cannot see what the whole program
sees, and for a source that does not split cleanly, :func:`front_end`
returns ``None`` and the caller runs the whole pipeline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..core.defs import context_token
from ..core.errors import ReproError, TypeProblem
from ..core.lru import LruTable
from . import surface_ast as S
from .lower import extern_signature, lower_decl
from .lexer import tokenize
from .parser import parse_decl
from .resolve import resolve
from .sourcemap import BoxedEntry, decl_entries
from .span import Pos, Span
from .typecheck import _DeclChecker, infer_effects

#: How many declaration results the per-process cache keeps.  The
#: mortgage app's live-edit loop (I1–I3 toggled, a global changing type)
#: reaches ~90 distinct (text, context) pairs.
DECL_BOUND = 128

#: A line that starts a declaration: anything at column 0 that is not
#: blank, indentation or a comment.
_DECL_LINE = re.compile(r"^(?=[^ \t\n/])", re.M)
#: What may precede the first declaration: blank and comment lines.
_PREAMBLE = re.compile(r"(?:[ \t]*(?://[^\n]*)?\n)*[ \t]*(?://[^\n]*)?")


@dataclass
class _DeclResult:
    """One declaration compiled in one context, at one position."""

    decl: object        # the annotated surface declaration
    start: Pos          # where it starts (column 0)
    end: Pos            # where its tokens stop: the next declaration
    box_count: int      # its ``boxed`` statements
    lowered: object     # its LoweredDecl (None until lowered)
    entries: tuple      # its sourcemap entries


@dataclass
class FrontEnd:
    """A whole program's front-end result, assembled per declaration."""

    definitions: list       # core definitions, in Code order
    generated: list         # names of the generated loop functions
    extern_sigs: list
    entries: list           # sourcemap entries
    surface: object         # builds (annotated Program, its ProgramEnv)
    reused: int             # declarations taken from the cache
    compiled: int           # declarations parsed, checked and lowered


#: Declaration results by ``(text, box_start, interface token)``.
_RESULTS = LruTable(DECL_BOUND)
#: Per text, one result whose declaration any compile may *read* — for
#: its signature and effects — before the interface is known.
_SAMPLES = LruTable(DECL_BOUND)
#: Inferred function effects, by the texts inference reads: those of the
#: function, global and extern declarations, in order.
_EFFECTS = LruTable(DECL_BOUND)


def front_end(source, tracer):
    """The front-end result of ``source``, per declaration.

    Raises the whole program's first syntax or type error when the
    declarations parsed now decide it, and returns ``None`` when the
    source does not split cleanly or its error is not decided per
    declaration (the caller then runs the whole pipeline).
    """
    chunks = _split(source)
    if not chunks:
        return None
    with tracer.span("parse"):
        samples = _samples(source, chunks)
    if samples is None:
        return None
    try:
        with tracer.span("typecheck"):
            env = resolve(S.Program([s.decl for s in samples], None))
            _infer_effects(env, chunks, samples)
            interface = context_token(_interface(env))
            results, fresh, problems = _check(
                source, chunks, samples, env, interface
            )
        if not problems:
            with tracer.span("lower"):
                _lower(results, fresh, env)
                return _assemble(chunks, results, env, len(fresh))
    except ReproError:
        # A resolve or effect error may carry the spans of a cached
        # declaration parsed at another position; and an error outside
        # the checks is the whole pipeline's to raise.
        return None
    raise problems[0]


def clear():
    """Empty the per-process declaration cache."""
    _RESULTS.clear()
    _SAMPLES.clear()
    _EFFECTS.clear()


def _split(source):
    """``[(text, start, line)]`` per declaration, or ``None``."""
    starts = [match.start() for match in _DECL_LINE.finditer(source)]
    if not starts or not _PREAMBLE.fullmatch(source, 0, starts[0]):
        return None
    chunks = []
    line = source.count("\n", 0, starts[0]) + 1
    for index, start in enumerate(starts):
        end = starts[index + 1] if index + 1 < len(starts) else len(source)
        text = source[start:end]
        chunks.append((text, start, line))
        line += text.count("\n")
    return chunks


def _lex(source, chunk):
    text, start, line = chunk
    return tokenize(source, start, start + len(text), line)


def _parse(tokens, box_start, last=True):
    """A declaration parsed by this compile: a result not yet checked or
    lowered (``None`` when its syntax error is not decided alone)."""
    parsed = parse_decl(tokens, box_start, last)
    if parsed is None:
        return None
    decl, box_count, end = parsed
    return _DeclResult(decl, decl.span.start, end, box_count, None, ())


def _samples(source, chunks):
    """A declaration AST per chunk: a cached one with the same text (only
    ever read), or one parsed now; ``None`` when a syntax error is not
    decided per declaration.

    Every chunk without a cached sample is lexed before any is parsed,
    so the first lexer error anywhere beats every parse error, as in the
    whole program; a cached text lexed and parsed cleanly before.  Then
    the first chunk in source order whose parse fails gives the error.
    """
    samples = [_SAMPLES.get(text) for text, _, _ in chunks]
    tokens = [
        _lex(source, chunk) if sample is None else None
        for chunk, sample in zip(chunks, samples)
    ]
    last = len(chunks) - 1
    box_start = 0
    for index, sample in enumerate(samples):
        if sample is None:
            sample = _parse(tokens[index], box_start, index == last)
            if sample is None:
                return None
            samples[index] = sample
        box_start += sample.box_count
    return samples


def _infer_effects(env, chunks, samples):
    """Set the effect of every function signature in ``env``, inferring
    only when the declarations the inference reads changed (an edit to a
    page, the usual live edit, reads none of them)."""
    key = tuple(
        text for (text, _, _), sample in zip(chunks, samples)
        if isinstance(sample.decl, (S.DFun, S.DGlobal, S.DExtern))
    )
    effects = _EFFECTS.get(key)
    if effects is None:
        infer_effects(env)
        effects = _EFFECTS.put(
            key, {name: sig.effect for name, sig in env.funs.items()}
        )
    for name, sig in env.funs.items():
        sig.effect = effects[name]


def _interface(env):
    """Everything checking or lowering one declaration reads of the
    others, as a hashable value."""
    return (
        tuple(sorted(
            (name, info.field_names, info.field_types)
            for name, info in env.records.items()
        )),
        tuple(sorted(
            (name, sig.stype) for name, sig in env.globals.items()
        )),
        tuple(sorted(
            (name, sig.param_names, sig.param_stypes, sig.return_stype,
             sig.effect)
            for table in (env.funs, env.externs)
            for name, sig in table.items()
        )),
        tuple(sorted(
            (name, sig.param_names, sig.param_stypes)
            for name, sig in env.pages.items()
        )),
    )


def _check(source, chunks, samples, env, interface):
    """Each chunk's result in this context — cached, or its sample parsed
    now and checked — the ``(index, key)`` of those not cached, and the
    type errors their checks raised, in source order.

    A result cached under this interface checked cleanly, so the first
    error here is the whole program's first.
    """
    results = []
    fresh = []
    problems = []
    checker = _DeclChecker(env)
    box_start = 0
    for chunk, sample in zip(chunks, samples):
        key = (chunk[0], box_start, interface)
        result = _RESULTS.get(key)
        if result is None:
            if sample.lowered is not None:  # cached: never annotated again
                sample = _parse(_lex(source, chunk), box_start)
            try:
                checker.check_decl(sample.decl)
            except TypeProblem as problem:
                problems.append(problem)
            fresh.append((len(results), key))
            result = sample
        results.append(result)
        box_start += result.box_count
    return results, fresh, problems


def _lower(results, fresh, env):
    """Lower and cache the checked declarations compiled now, in place."""
    for index, key in fresh:
        sample = results[index]
        decl = sample.decl
        if isinstance(decl, S.DFun):
            decl.effect = env.funs[decl.name].effect
        result = _RESULTS.put(key, _DeclResult(
            decl, sample.start, sample.end, sample.box_count,
            lower_decl(decl, env), tuple(decl_entries(decl)),
        ))
        _SAMPLES.put(key[0], result)
        results[index] = result


def _assemble(chunks, results, env, compiled):
    definitions = []
    generated = []
    extern_sigs = []
    entries = []
    for (text, start, line), result in zip(chunks, results):
        lines = line - result.start.line
        offset = start - result.start.offset
        if lines or offset:
            entries.extend(
                _shift_entry(entry, lines, offset)
                for entry in result.entries
            )
        else:
            entries.extend(result.entries)
        lowered = result.lowered
        if lowered.definition is not None:
            definitions.append(lowered.definition)
        if lowered.extern_sig is not None:
            extern_sigs.append(
                extern_signature(_shift(result.decl, lines, offset), env)
                if lines or offset else lowered.extern_sig
            )
        generated.extend(lowered.generated)
    return FrontEnd(
        definitions=definitions + generated,
        generated=[d.name for d in generated],
        extern_sigs=extern_sigs,
        entries=entries,
        surface=lambda: _surface(chunks, results, env),
        reused=len(results) - compiled,
        compiled=compiled,
    )


def _surface(chunks, results, env):
    """The annotated surface program as assembled, and its environment:
    each declaration rebased to where it sits in this source."""
    decls = [
        _shift(result.decl, line - result.start.line,
               start - result.start.offset)
        for (text, start, line), result in zip(chunks, results)
    ]
    last = results[-1]
    end = _shift_pos(last.end, chunks[-1][2] - last.start.line,
                     chunks[-1][1] - last.start.offset)
    program = S.Program(decls, Span(decls[0].span.start, end))
    # Resolving again makes the signatures name these declarations (and
    # spans); the effects are the ones inferred for the compile.
    final_env = resolve(program)
    for name, sig in final_env.funs.items():
        sig.effect = env.funs[name].effect
    return program, final_env


# -- rebasing -------------------------------------------------------------------

#: The surface AST node classes (spans live in these, and in tuples).
_NODES = frozenset(
    cls for cls in vars(S).values()
    if isinstance(cls, type)
    and issubclass(cls, (S.TypeExpr, S.Expr, S.Stmt, S.Block, S.Decl))
)


def _shift_pos(pos, lines, offset):
    return Pos(pos.line + lines, pos.column, pos.offset + offset)


def _shift_span(span, lines, offset):
    return Span(_shift_pos(span.start, lines, offset),
                _shift_pos(span.end, lines, offset))


def _shift(value, lines, offset):
    """A copy of surface AST ``value`` moved down ``lines`` lines and
    ``offset`` characters (declarations start at column 0, so columns
    stay); everything else is shared.  No move returns ``value``."""
    if not (lines or offset):
        return value
    kind = type(value)
    if kind is Span:
        return _shift_span(value, lines, offset)
    if kind in _NODES:
        copy = object.__new__(kind)
        copy.__dict__.update({
            name: _shift(field, lines, offset)
            for name, field in value.__dict__.items()
        })
        return copy
    if kind is list:
        return [_shift(item, lines, offset) for item in value]
    if kind is tuple:
        return tuple(_shift(item, lines, offset) for item in value)
    return value


def _shift_entry(entry, lines, offset):
    return BoxedEntry(
        box_id=entry.box_id,
        span=_shift_span(entry.span, lines, offset),
        body_span=_shift_span(entry.body_span, lines, offset),
        body_indent=entry.body_indent,
        attr_spans={
            attr: _shift_span(span, lines, offset)
            for attr, span in entry.attr_spans.items()
        },
        page=entry.page,
    )
