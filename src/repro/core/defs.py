"""Program definitions ``d`` and the code component ``C`` (Fig. 7).

    d ::= global g : τ = v
        | fun f : τ is e
        | page p(τ) init e1 render e2

    C ::= ε | C d

``Code`` is an immutable, insertion-ordered collection of definitions with
one shared namespace (rule T-C-* requires that no name is defined twice).
Live editing produces a *new* ``Code`` value on every keystroke; the UPDATE
transition of Fig. 9 then swaps it in wholesale — there is deliberately no
in-place mutation of a running program's code.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ast
from .effects import Effect, RENDER, STATE
from .errors import ReproError
from .types import FunType, Type, UNIT, fun


class Def:
    """Base class of program definitions."""

    __slots__ = ()


@dataclass(frozen=True)
class GlobalDef(Def):
    """``global g : τ = v`` — a model-state variable with its initial value.

    The initial value must be a *value* (Fig. 7) and the type must be
    →-free (rule T-C-GLOBAL) so that no closure can ever live in the store.
    """

    name: str
    type: Type
    init: ast.Expr
    __slots__ = ("name", "type", "init")

    def __post_init__(self):
        if not self.init.is_value():
            raise ReproError(
                "initial value of global '{}' must be a value".format(self.name)
            )


@dataclass(frozen=True)
class FunDef(Def):
    """``fun f : τ1 -µ> τ2 is e`` — a named, possibly recursive function.

    ``e`` is an expression (usually a lambda) that must type *purely* as
    the declared function type (rule T-C-FUN).  Recursion — and therefore
    every loop of the surface language — goes through this table via
    rule EP-FUN: ``f → e``.
    """

    name: str
    type: FunType
    body: ast.Expr
    __slots__ = ("name", "type", "body")

    def __post_init__(self):
        if not isinstance(self.type, FunType):
            raise ReproError(
                "function '{}' must declare a function type".format(self.name)
            )


@dataclass(frozen=True)
class PageDef(Def):
    """``page p(τ) init e1 render e2``.

    ``init`` types as ``τ -s> ()`` and runs once when the page is pushed
    (rule PUSH); ``render`` types as ``τ -r> ()`` and runs every time the
    display must be refreshed (rule RENDER).  The argument type ``τ`` must
    be →-free (rule T-C-PAGE) so page arguments survive code updates
    without retaining stale closures.
    """

    name: str
    arg_type: Type
    init: ast.Expr
    render: ast.Expr
    __slots__ = ("name", "arg_type", "init", "render")

    @property
    def init_type(self):
        return fun(self.arg_type, UNIT, STATE)

    @property
    def render_type(self):
        return fun(self.arg_type, UNIT, RENDER)


#: How many derived facts one :class:`Code` value caches (:meth:`Code.derived`).
DERIVED_BOUND = 8


class Code:
    """The program ``C``: an immutable named collection of definitions.

    Supports the paper's lookup forms — ``C(p) = (fi, fr)`` becomes
    :meth:`page`, ``fun f : τ is e ∈ C`` becomes :meth:`function`, and
    ``global g : τ = v ∈ C`` becomes :meth:`global_`.
    """

    #: ``_verdict`` caches the outcome of ``C ⊢ C`` for this value (see
    #: :func:`repro.typing.program.known_problems`) and ``_derived`` the
    #: facts computed from it once per code version (:meth:`derived`);
    #: neither is part of the program or affects equality.
    __slots__ = ("_defs", "_verdict", "_derived")

    def __init__(self, defs=()):
        table = {}
        for definition in defs:
            if not isinstance(definition, Def):
                raise ReproError(
                    "not a definition: {!r}".format(definition)
                )
            if definition.name in table:
                raise ReproError(
                    "duplicate definition of '{}'".format(definition.name)
                )
            table[definition.name] = definition
        self._defs = table
        self._verdict = None
        self._derived = {}

    # -- collection protocol ------------------------------------------------

    def __iter__(self):
        return iter(self._defs.values())

    def __len__(self):
        return len(self._defs)

    def __contains__(self, name):
        return name in self._defs

    def __eq__(self, other):
        return isinstance(other, Code) and self._defs == other._defs

    def __hash__(self):
        return hash(tuple(self._defs.items()))

    def __repr__(self):
        return "Code({} defs: {})".format(
            len(self._defs), ", ".join(self._defs)
        )

    def defined_names(self):
        """``Defs(C)`` of Fig. 11 — all defined names, in definition order."""
        return tuple(self._defs)

    # -- typed lookups --------------------------------------------------------

    def lookup(self, name):
        """Return the definition named ``name`` or ``None``."""
        return self._defs.get(name)

    def global_(self, name):
        """Return the :class:`GlobalDef` named ``name`` or ``None``."""
        definition = self._defs.get(name)
        return definition if isinstance(definition, GlobalDef) else None

    def function(self, name):
        """Return the :class:`FunDef` named ``name`` or ``None``."""
        definition = self._defs.get(name)
        return definition if isinstance(definition, FunDef) else None

    def page(self, name):
        """Return the :class:`PageDef` named ``name`` or ``None``."""
        definition = self._defs.get(name)
        return definition if isinstance(definition, PageDef) else None

    def globals(self):
        """All global-variable definitions, in definition order."""
        return tuple(d for d in self if isinstance(d, GlobalDef))

    def functions(self):
        """All function definitions, in definition order."""
        return tuple(d for d in self if isinstance(d, FunDef))

    def pages(self):
        """All page definitions, in definition order."""
        return tuple(d for d in self if isinstance(d, PageDef))

    # -- derived facts ----------------------------------------------------------

    def derived(self, key, build):
        """``build(self)``, computed once per code value and cached on it.

        Code is immutable, so anything computed from it alone — memo
        facts, compiled closures — can be shared by every session that
        runs this value.  Identity, not equality, is what shares:
        structurally equal programs may differ in ``box_id``s.  At most
        :data:`DERIVED_BOUND` facts are kept; past that the cache starts
        over (holders keep theirs).  Safe under threads: two racing
        builds may both run, and the first one stored is returned to
        both.
        """
        value = self._derived.get(key)
        if value is None:
            value = build(self)
            if len(self._derived) >= DERIVED_BOUND:
                self._derived.clear()
            value = self._derived.setdefault(key, value)
        return value

    # -- functional updates (used by the live editor) -------------------------

    def with_def(self, definition):
        """A new ``Code`` with ``definition`` added or replaced by name."""
        defs = [d for d in self if d.name != definition.name]
        defs.append(definition)
        return Code(defs)

    def without(self, name):
        """A new ``Code`` with any definition named ``name`` removed."""
        return Code(d for d in self if d.name != name)


#: The empty program ``ε``.
EMPTY_CODE = Code()
