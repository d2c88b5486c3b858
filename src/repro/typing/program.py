"""Program typing ``C ⊢ C`` (Fig. 11, rules T-C-GLOBAL / T-C-FUN / T-C-PAGE).

A program is well-typed when

* no name is defined twice (the ``Defs(C')`` premises) — and, in this
  implementation, no program name shadows a registered native operator;
* every global has a →-free type and its initial value types (purely) at
  that type;
* every function body types purely at its declared arrow type;
* every page has a →-free argument type, an init body of type
  ``τ -s> ()`` and a render body of type ``τ -r> ()``;
* a ``start`` page exists (premise of T-SYS) and takes the unit argument,
  since the STARTUP transition pushes ``[push start ()]``.

:func:`code_problems` collects *all* violations (the live editor wants the
full list to display, not just the first), while :func:`check_code` raises
on the first.  ``C' ⊢ C'`` holding is exactly the first premise of the
UPDATE transition — see :mod:`repro.system.transitions`.

Each code version is checked once.  :func:`code_problems` remembers its
verdict on the :class:`~repro.core.defs.Code` value together with the
native signatures it was reached under, and :func:`known_problems` hands
that verdict back while the signatures are unchanged: the compile
pipeline checks the program it lowered, and the system built from it
(construction, UPDATE) reuses the result instead of checking again.
Code that never went through a check (hand-built, or checked under other
native signatures) has no known verdict and is checked as before.

Within a check, each definition's verdict reads only that definition and
the code's signature table (every definition's name, kind and declared
type, plus the native signatures), so it is kept per definition object
and table (:func:`~repro.core.defs.def_derived`): a new code version
that reuses a definition unchanged — the incremental front end hands
unchanged declarations over as the same objects — checks only the rest.
"""

from __future__ import annotations

from ..core import ast
from ..core.defs import (
    Code,
    FunDef,
    GlobalDef,
    PageDef,
    context_token,
    def_derived,
)
from ..core.effects import PURE, RENDER, STATE
from ..core.errors import TypeProblem
from ..core.names import START_PAGE
from ..core.prims import PRIM_SIGS
from ..core.types import FunType, UNIT, fun, is_subtype
from .checker import Checker


def code_problems(code, natives=None):
    """All reasons why ``C ⊢ C`` fails, as a list of :class:`TypeProblem`.

    An empty list means the program is well-typed.
    """
    problems = []
    if not isinstance(code, Code):
        return [TypeProblem("not a program: {!r}".format(code))]
    checker = Checker(code, natives)
    signatures = _signature_key(natives)
    # A definition's verdict reads nothing of the rest of the code but
    # its signature table, so a definition reused from an earlier code
    # version under the same table keeps its verdict.
    key = ("core_verdict", context_token(
        (_definition_types(code), signatures)
    ))

    def check(definition):
        return tuple(_check_def(checker, definition, natives))

    for definition in code:
        problems.extend(def_derived(definition, key, check))

    start = code.page(START_PAGE)
    if start is None:
        problems.append(
            TypeProblem(
                "no 'page start' definition — rule T-SYS requires one",
                rule="T-SYS",
            )
        )
    elif start.arg_type != UNIT:
        problems.append(
            TypeProblem(
                "page 'start' must take the unit argument (); STARTUP "
                "pushes [push start ()]",
                rule="T-SYS",
            )
        )
    code._verdict = (signatures, tuple(problems))
    return problems


def _definition_types(code):
    """What the checker reads of the code: each definition's name, kind
    and declared type."""
    return tuple(
        (d.name, type(d), d.arg_type if isinstance(d, PageDef) else d.type)
        for d in code
    )


def known_problems(code, natives=None):
    """The problems :func:`code_problems` found for ``code`` under the
    same native signatures, or ``None`` if it was not checked under them.

    The checker reads nothing but the code and the natives' signatures
    (implementations are invisible to it), so a remembered verdict is
    exactly what checking again would return.
    """
    verdict = getattr(code, "_verdict", None)
    if verdict is None or verdict[0] != _signature_key(natives):
        return None
    return list(verdict[1])


def _signature_key(natives):
    """Every native signature the checker may read, in a comparable form."""
    if natives is None:
        return ()
    return tuple(
        (name, natives.signature(name)) for name in sorted(natives.names())
    )


def _check_def(checker, definition, natives):
    problems = []
    name = definition.name
    if name in PRIM_SIGS or (
        natives is not None and natives.signature(name) is not None
    ):
        problems.append(
            TypeProblem(
                "definition '{}' shadows a built-in operator".format(name)
            )
        )
    if isinstance(definition, GlobalDef):
        if not definition.type.is_function_free():
            problems.append(
                TypeProblem(
                    "global '{}' has type {} which is not →-free — global "
                    "variables may not store functions (this is what keeps "
                    "stale code out of the store across updates)".format(
                        name, definition.type
                    ),
                    rule="T-C-GLOBAL",
                )
            )
        problems.extend(
            _check_body(
                checker,
                definition.init,
                definition.type,
                PURE,
                "initial value of global '{}'".format(name),
                "T-C-GLOBAL",
            )
        )
    elif isinstance(definition, FunDef):
        if not isinstance(definition.type, FunType):
            problems.append(
                TypeProblem(
                    "function '{}' declares non-function type {}".format(
                        name, definition.type
                    ),
                    rule="T-C-FUN",
                )
            )
        else:
            problems.extend(
                _check_body(
                    checker,
                    definition.body,
                    definition.type,
                    PURE,
                    "body of function '{}'".format(name),
                    "T-C-FUN",
                )
            )
    elif isinstance(definition, PageDef):
        if not definition.arg_type.is_function_free():
            problems.append(
                TypeProblem(
                    "page '{}' has argument type {} which is not →-free — "
                    "page arguments may not capture functions".format(
                        name, definition.arg_type
                    ),
                    rule="T-C-PAGE",
                )
            )
        problems.extend(
            _check_body(
                checker,
                definition.init,
                fun(definition.arg_type, UNIT, STATE),
                PURE,
                "init body of page '{}'".format(name),
                "T-C-PAGE",
            )
        )
        problems.extend(
            _check_body(
                checker,
                definition.render,
                fun(definition.arg_type, UNIT, RENDER),
                PURE,
                "render body of page '{}'".format(name),
                "T-C-PAGE",
            )
        )
    else:
        problems.append(
            TypeProblem("unknown definition kind: {!r}".format(definition))
        )
    return problems


def _check_body(checker, expr, expected, effect, what, rule):
    try:
        actual = checker.check(expr, effect, _empty_env())
    except TypeProblem as problem:
        return [
            TypeProblem(
                "{}: {}".format(what, problem.message),
                rule=problem.rule or rule,
                span=problem.span,
            )
        ]
    if not is_subtype(actual, expected):
        return [
            TypeProblem(
                "{} has type {}, expected {}".format(what, actual, expected),
                rule=rule,
            )
        ]
    return []


def _empty_env():
    from .context import TypeEnv

    return TypeEnv.empty()


def check_code(code, natives=None):
    """``C ⊢ C`` — raise the first :class:`TypeProblem`, if any."""
    problems = code_problems(code, natives)
    if problems:
        raise problems[0]
    return code


def is_well_typed(code, natives=None):
    """Boolean form of ``C ⊢ C``."""
    return not code_problems(code, natives)
