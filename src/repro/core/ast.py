"""Expression syntax of the core calculus (Fig. 6).

    v ::= n | s | x | (v1, ..., vn) | λ(x : τ). e | [v1, ..., vn]
    e ::= v | e1 e2 | f | (e1, ..., en) | e.n | g | g := e
        | push p e | pop | boxed e | post e | box.a := e
        | if e then e else e | op(e1, ..., en)

Two conservative extensions over the paper's grammar (see DESIGN.md §2):

* ``if`` — the paper encodes conditionals with thunks ("conditionals via
  lambda abstractions and thunks", §4.1); we keep that encoding expressible
  but give the lowering a direct conditional so that lowered code stays
  readable.  The condition is a number; zero is false (there is no bool in
  Fig. 6's type grammar).
* ``op(e...)`` / list literals — primitive operators (arithmetic, string,
  list operations and effectful natives such as the simulated web).  Each
  operator carries a declared type signature *and effect* in
  ``repro.core.prims`` / the native registry, so the effect discipline is
  preserved.

Nodes are immutable (frozen dataclasses); structural equality is ``==``.
``Boxed`` additionally carries a non-compared ``box_id`` used by the IDE to
map boxes in the live view back to the boxed statement that created them
(Fig. 2's UI-code navigation); it is erased metadata as far as the calculus
is concerned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .effects import Effect
from .errors import ReproError
from .types import Type

_fresh_counter = itertools.count()


def fresh_name(base="x"):
    """Return a variable name guaranteed distinct from any source name.

    Fresh names contain ``%`` which the surface lexer never produces, so
    alpha-renaming cannot capture programmer-written variables.
    """
    return "{}%{}".format(base, next(_fresh_counter))


class Expr:
    """Base class of all expressions."""

    __slots__ = ()

    def is_value(self):
        """Is this expression a value ``v`` in the sense of Fig. 6?"""
        return False


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num(Expr):
    """Number literal ``n``."""

    value: float
    __slots__ = ("value",)

    def __post_init__(self):
        if isinstance(self.value, bool) or not isinstance(
            self.value, (int, float)
        ):
            raise ReproError("Num takes a number, got {!r}".format(self.value))
        object.__setattr__(self, "value", float(self.value))

    def is_value(self):
        return True


@dataclass(frozen=True)
class Str(Expr):
    """String literal ``s``."""

    value: str
    __slots__ = ("value",)

    def __post_init__(self):
        if not isinstance(self.value, str):
            raise ReproError("Str takes a string, got {!r}".format(self.value))

    def is_value(self):
        return True


@dataclass(frozen=True)
class Var(Expr):
    """Variable ``x`` (bound by a lambda)."""

    name: str
    __slots__ = ("name",)

    def is_value(self):
        return True


@dataclass(frozen=True)
class Tuple(Expr):
    """Tuple ``(e1, ..., en)``; a value when every component is a value.

    The empty tuple is the unit value ``()``.
    """

    items: tuple
    __slots__ = ("items",)

    def __post_init__(self):
        if not isinstance(self.items, tuple):
            object.__setattr__(self, "items", tuple(self.items))

    def is_value(self):
        return all(item.is_value() for item in self.items)


@dataclass(frozen=True)
class Lam(Expr):
    """Lambda ``λ(x : τ). e`` annotated with its latent effect ``µ``.

    Rule T-LAM types the body under an effect ``µ1`` that becomes the
    effect on the arrow; we carry that ``µ1`` as an annotation so type
    checking stays syntax-directed (inference would also be possible but
    the paper's surface language always knows the intended effect: handlers
    are ``s``, render thunks are ``r``).
    """

    param: str
    param_type: Type
    body: Expr
    effect: Effect
    __slots__ = ("param", "param_type", "body", "effect")

    def is_value(self):
        return True


@dataclass(frozen=True)
class ListLit(Expr):
    """List literal ``[e1, ..., en] : list τ``; a value when items are values.

    The element type annotation makes typing of the empty list
    syntax-directed.
    """

    items: tuple
    element_type: Type
    __slots__ = ("items", "element_type")

    def __post_init__(self):
        if not isinstance(self.items, tuple):
            object.__setattr__(self, "items", tuple(self.items))

    def is_value(self):
        return all(item.is_value() for item in self.items)


# ---------------------------------------------------------------------------
# Non-value expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class App(Expr):
    """Application ``e1 e2`` (EP-APP)."""

    fn: Expr
    arg: Expr
    __slots__ = ("fn", "arg")


@dataclass(frozen=True)
class FunRef(Expr):
    """Reference to a global function ``f`` (EP-FUN) or a registered native."""

    name: str
    __slots__ = ("name",)


@dataclass(frozen=True)
class Proj(Expr):
    """Projection ``e.n`` with 1-based index ``n`` (EP-TUPLE)."""

    tuple_expr: Expr
    index: int
    __slots__ = ("tuple_expr", "index")

    def __post_init__(self):
        if not isinstance(self.index, int) or self.index < 1:
            raise ReproError(
                "projection index must be a positive int, got {!r}".format(
                    self.index
                )
            )


@dataclass(frozen=True)
class GlobalRead(Expr):
    """Read of global variable ``g`` (EP-GLOBAL-1/2)."""

    name: str
    __slots__ = ("name",)


@dataclass(frozen=True)
class GlobalWrite(Expr):
    """Assignment ``g := e`` (ES-ASSIGN); only legal under effect ``s``."""

    name: str
    value: Expr
    __slots__ = ("name", "value")


@dataclass(frozen=True)
class Push(Expr):
    """``push p e`` — enqueue a push event for page ``p`` (ES-PUSH)."""

    page: str
    arg: Expr
    __slots__ = ("page", "arg")


@dataclass(frozen=True)
class Pop(Expr):
    """``pop`` — enqueue a pop event (ES-POP)."""

    __slots__ = ()


@dataclass(frozen=True)
class Boxed(Expr):
    """``boxed e`` — run ``e`` in a fresh box, nest it in the current one
    (ER-BOXED); only legal under effect ``r``.

    ``box_id`` identifies the boxed *statement* for the IDE's UI-code
    navigation; it does not participate in structural equality.
    """

    # No __slots__ here: a dataclass field default is implemented as a class
    # attribute, which conflicts with a same-named slot.
    body: Expr
    box_id: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Post(Expr):
    """``post e`` — append a value to the current box's content (ER-POST)."""

    value: Expr
    __slots__ = ("value",)


@dataclass(frozen=True)
class SetAttr(Expr):
    """``box.a := e`` — set attribute ``a`` of the current box (ER-ATTR)."""

    attr: str
    value: Expr
    __slots__ = ("attr", "value")


@dataclass(frozen=True)
class If(Expr):
    """``if e then e1 else e2`` over numbers; non-zero is true (extension)."""

    cond: Expr
    then_branch: Expr
    else_branch: Expr
    __slots__ = ("cond", "then_branch", "else_branch")


@dataclass(frozen=True)
class Prim(Expr):
    """Primitive/native operator application ``op(e1, ..., en)``.

    Pure operators (arithmetic, string, list) step under →p; natives with a
    state effect (e.g. the simulated web request) step under →s only.
    """

    op: str
    args: tuple
    __slots__ = ("op", "args")

    def __post_init__(self):
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))


#: The unit value ``()``.
UNIT_VALUE = Tuple(())


# ---------------------------------------------------------------------------
# Generic traversal
# ---------------------------------------------------------------------------


def children(expr):
    """Return the immediate sub-expressions of ``expr`` (left to right)."""
    if isinstance(expr, (Num, Str, Var, FunRef, Pop, GlobalRead)):
        return ()
    if isinstance(expr, Tuple):
        return expr.items
    if isinstance(expr, ListLit):
        return expr.items
    if isinstance(expr, Lam):
        return (expr.body,)
    if isinstance(expr, App):
        return (expr.fn, expr.arg)
    if isinstance(expr, Proj):
        return (expr.tuple_expr,)
    if isinstance(expr, GlobalWrite):
        return (expr.value,)
    if isinstance(expr, Push):
        return (expr.arg,)
    if isinstance(expr, Boxed):
        return (expr.body,)
    if isinstance(expr, Post):
        return (expr.value,)
    if isinstance(expr, SetAttr):
        return (expr.value,)
    if isinstance(expr, If):
        return (expr.cond, expr.then_branch, expr.else_branch)
    if isinstance(expr, Prim):
        return expr.args
    raise ReproError("unknown expression node: {!r}".format(expr))


def rebuild(expr, new_children):
    """Rebuild ``expr`` with ``new_children`` substituted for its children."""
    new_children = tuple(new_children)
    if isinstance(expr, (Num, Str, Var, FunRef, Pop, GlobalRead)):
        assert not new_children
        return expr
    if isinstance(expr, Tuple):
        return Tuple(new_children)
    if isinstance(expr, ListLit):
        return ListLit(new_children, expr.element_type)
    if isinstance(expr, Lam):
        (body,) = new_children
        return Lam(expr.param, expr.param_type, body, expr.effect)
    if isinstance(expr, App):
        fn, arg = new_children
        return App(fn, arg)
    if isinstance(expr, Proj):
        (tuple_expr,) = new_children
        return Proj(tuple_expr, expr.index)
    if isinstance(expr, GlobalWrite):
        (value,) = new_children
        return GlobalWrite(expr.name, value)
    if isinstance(expr, Push):
        (arg,) = new_children
        return Push(expr.page, arg)
    if isinstance(expr, Boxed):
        (body,) = new_children
        return Boxed(body, box_id=expr.box_id)
    if isinstance(expr, Post):
        (value,) = new_children
        return Post(value)
    if isinstance(expr, SetAttr):
        (value,) = new_children
        return SetAttr(expr.attr, value)
    if isinstance(expr, If):
        cond, then_branch, else_branch = new_children
        return If(cond, then_branch, else_branch)
    if isinstance(expr, Prim):
        return Prim(expr.op, new_children)
    raise ReproError("unknown expression node: {!r}".format(expr))


def walk(expr):
    """Yield ``expr`` and every descendant, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def free_vars(expr):
    """The set of free variable names of ``expr``."""
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Lam):
        return free_vars(expr.body) - {expr.param}
    result = set()
    for child in children(expr):
        result |= free_vars(child)
    return result


def subst(expr, name, value):
    """Capture-avoiding substitution ``expr[value/name]`` (EP-APP).

    ``value`` must be a value.  Alpha-renames binders whose parameter would
    capture a free variable of ``value``.
    """
    if not value.is_value():
        raise ReproError("substitution requires a value, got {!r}".format(value))
    return _subst(expr, name, value, free_vars(value))


def _subst(expr, name, value, value_free):
    if isinstance(expr, Var):
        return value if expr.name == name else expr
    if isinstance(expr, Lam):
        if expr.param == name:
            return expr  # shadowed; substitution stops here
        if expr.param in value_free:
            renamed = fresh_name(expr.param.split("%")[0])
            body = _subst(expr.body, expr.param, Var(renamed), {renamed})
            expr = Lam(renamed, expr.param_type, body, expr.effect)
        return Lam(
            expr.param,
            expr.param_type,
            _subst(expr.body, name, value, value_free),
            expr.effect,
        )
    kids = children(expr)
    if not kids:
        return expr
    new_kids = [_subst(child, name, value, value_free) for child in kids]
    if all(new is old for new, old in zip(new_kids, kids)):
        return expr
    return rebuild(expr, new_kids)


def is_closed(expr):
    """Does ``expr`` have no free variables?"""
    return not free_vars(expr)


def size(expr):
    """Number of AST nodes, used by benchmarks to bucket program sizes."""
    return sum(1 for _ in walk(expr))


def contains_lambda(expr):
    """Does any lambda occur in ``expr``?

    Used by tests for the "no stale code" guarantee: after an UPDATE the
    store and page stack must contain no function values (Section 4.2).
    """
    return any(isinstance(node, Lam) for node in walk(expr))
