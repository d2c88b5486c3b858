"""The type language ``τ`` of the calculus (Fig. 6).

    τ ::= number | string | (τ1, ..., τn) | list τ | τ -µ> τ

``list τ`` is a conservative extension over the paper's grammar: the running
example (Fig. 3) iterates over a collection of listings, which the paper's
higher-level surface syntax provides; we surface it in the core so the
lowering stays simple.  Lists are function-free whenever their element type
is, so the ``→-free`` side-conditions of T-C-GLOBAL and T-C-PAGE extend
unchanged.

Types are immutable and hash-consed-by-value via frozen dataclasses, so
structural equality is ``==`` and types can key dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .effects import Effect, subeffect
from .errors import ReproError


class Type:
    """Base class for all types.  Instances are immutable."""

    __slots__ = ()

    def is_function_free(self):
        """Is this type ``→-free`` (contains no function type anywhere)?

        Rules T-C-GLOBAL and T-C-PAGE require global variables and page
        arguments to have →-free types; this is what guarantees that no
        stale closure survives a code UPDATE (Section 4.2).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class NumberType(Type):
    """The type of numbers (floats; numerals in Fig. 6)."""

    __slots__ = ()

    def is_function_free(self):
        return True

    def __str__(self):
        return "number"


@dataclass(frozen=True)
class StringType(Type):
    """The type of strings."""

    __slots__ = ()

    def is_function_free(self):
        return True

    def __str__(self):
        return "string"


@dataclass(frozen=True)
class TupleType(Type):
    """``(τ1, ..., τn)`` with ``n >= 0``; the empty tuple is the unit type."""

    elements: tuple
    __slots__ = ("elements",)

    def __post_init__(self):
        if not isinstance(self.elements, tuple):
            object.__setattr__(self, "elements", tuple(self.elements))
        for element in self.elements:
            if not isinstance(element, Type):
                raise ReproError(
                    "tuple element is not a type: {!r}".format(element)
                )

    @property
    def arity(self):
        return len(self.elements)

    def is_function_free(self):
        return all(element.is_function_free() for element in self.elements)

    def __str__(self):
        return "({})".format(", ".join(str(e) for e in self.elements))


@dataclass(frozen=True)
class ListType(Type):
    """``list τ`` — homogeneous immutable lists (extension, see module doc)."""

    element: Type
    __slots__ = ("element",)

    def is_function_free(self):
        return self.element.is_function_free()

    def __str__(self):
        return "list {}".format(_atom_str(self.element))


@dataclass(frozen=True)
class FunType(Type):
    """``τ1 -µ> τ2`` — a function whose body may perform effect ``µ``."""

    param: Type
    result: Type
    effect: Effect
    __slots__ = ("param", "result", "effect")

    def is_function_free(self):
        return False

    def __str__(self):
        return "{} -{}> {}".format(
            _atom_str(self.param), self.effect, str(self.result)
        )


def _atom_str(type_):
    """Parenthesize function types when they appear in argument position."""
    text = str(type_)
    if isinstance(type_, FunType):
        return "({})".format(text)
    return text


#: Canonical instances for the base types.
NUMBER = NumberType()
STRING = StringType()
#: The unit type is the empty tuple ``()`` (Fig. 6: "empty tuples serve as
#: the unit value").
UNIT = TupleType(())


def tuple_of(*elements):
    """Convenience constructor: ``tuple_of(NUMBER, STRING)`` = ``(number, string)``."""
    return TupleType(tuple(elements))


def fun(param, result, effect):
    """Convenience constructor for :class:`FunType`."""
    return FunType(param, result, effect)


def list_of(element):
    """Convenience constructor for :class:`ListType`."""
    return ListType(element)


def is_subtype(lower, upper):
    """Structural subtyping generated by T-SUB.

    The only source of subtyping in the paper is rule T-SUB, which weakens
    a *pure* arrow to any effect:  ``τ1 -p> τ2  <:  τ1 -µ> τ2``.  We close
    it structurally: covariant in tuple/list components and function
    results, contravariant in function parameters, and ``⊑`` on effects.
    """
    if lower == upper:
        return True
    if isinstance(lower, TupleType) and isinstance(upper, TupleType):
        return lower.arity == upper.arity and all(
            is_subtype(l, u) for l, u in zip(lower.elements, upper.elements)
        )
    if isinstance(lower, ListType) and isinstance(upper, ListType):
        return is_subtype(lower.element, upper.element)
    if isinstance(lower, FunType) and isinstance(upper, FunType):
        return (
            subeffect(lower.effect, upper.effect)
            and is_subtype(upper.param, lower.param)
            and is_subtype(lower.result, upper.result)
        )
    return False


def check_is_type(value, what="type"):
    """Assert ``value`` is a :class:`Type`; returns it for chaining."""
    if not isinstance(value, Type):
        raise ReproError("{} expected, got {!r}".format(what, value))
    return value
