"""Primitive-operator implementations and the native-function registry.

Two kinds of operators flow through ``Prim`` nodes:

* **Built-in pure operators** — the arithmetic/string/list table of
  :mod:`repro.core.prims`.  Their implementations live here and are total
  except for the documented partial ones (``div`` by zero, ``sqrt`` of a
  negative, ``num_of_str`` of a non-number, out-of-range ``list_get`` /
  ``str_sub``), which raise :class:`EvalError`.  These are *defined runtime
  faults*, not stuckness; the metatheory's progress property is stated
  modulo them (exactly as real languages state progress modulo division).

* **Registered natives** — host-implemented functions with a declared
  signature *and effect*, e.g. the simulated web request of the running
  example (effect ``s``, so the type system already forbids calling it from
  render code).  Natives receive plain Python arguments and the ambient
  :class:`~repro.system.services.Services`; their results are converted
  back under their declared result type.
"""

from __future__ import annotations

import math

from ..core import ast
from ..core.errors import EvalError, NativeError, ReproError
from ..core.prims import PRIM_SIGS, PrimSig, match_signature
from ..core.effects import Effect, PURE
from .values import bool_value, from_python, to_python

_float_num = ast.float_num


class NativeTable:
    """Registry of host-implemented operators, keyed by name.

    The same table is consulted by the type checker (for signatures) and
    the machine (for implementations), so a native can never be invoked at
    an effect its declaration does not permit.
    """

    def __init__(self):
        self._entries = {}

    def register(self, sig, impl):
        """Register native ``sig`` with Python callable ``impl``.

        ``impl(services, *args)`` receives Python-converted arguments and
        must return Python data convertible at ``sig.result``.
        """
        if not isinstance(sig, PrimSig):
            raise ReproError("register expects a PrimSig")
        if sig.name in PRIM_SIGS:
            raise ReproError(
                "native '{}' would shadow a built-in operator".format(sig.name)
            )
        if sig.name in self._entries:
            raise ReproError("native '{}' already registered".format(sig.name))
        self._entries[sig.name] = (sig, impl)
        return sig

    def signature(self, name):
        """The :class:`PrimSig` for native ``name``, or ``None``."""
        entry = self._entries.get(name)
        return entry[0] if entry else None

    def implementation(self, name):
        entry = self._entries.get(name)
        return entry[1] if entry else None

    def names(self):
        return tuple(self._entries)

    def merged_with(self, other):
        """A new table containing both registries (collision-checked)."""
        merged = NativeTable()
        for name, (sig, impl) in self._entries.items():
            merged._entries[name] = (sig, impl)
        for name, (sig, impl) in other._entries.items():
            if name in merged._entries:
                raise ReproError("native '{}' registered twice".format(name))
            merged._entries[name] = (sig, impl)
        return merged


#: An immutable-by-convention empty table for contexts without natives.
EMPTY_NATIVES = NativeTable()


def operator_signature(op, natives=None):
    """Resolve ``op`` to its signature: built-ins first, then natives."""
    sig = PRIM_SIGS.get(op)
    if sig is None and natives is not None:
        sig = natives.signature(op)
    return sig


def _num(value, op):
    if not isinstance(value, ast.Num):
        raise EvalError("{}: expected a number, got {!r}".format(op, value))
    return value.value


def _str(value, op):
    if not isinstance(value, ast.Str):
        raise EvalError("{}: expected a string, got {!r}".format(op, value))
    return value.value


def _list(value, op):
    if not isinstance(value, ast.ListLit):
        raise EvalError("{}: expected a list, got {!r}".format(op, value))
    return value


def _index(value, op, length, allow_end=False):
    index = _num(value, op)
    if index != int(index):
        raise EvalError("{}: index {} is not an integer".format(op, index))
    index = int(index)
    limit = length + (1 if allow_end else 0)
    if not 0 <= index < limit:
        raise EvalError(
            "{}: index {} out of range for length {}".format(op, index, length)
        )
    return index


def _format_number(value):
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _impl_div(a, b):
    if b == 0.0:
        raise EvalError("div: division by zero")
    return a / b


def _impl_mod(a, b):
    if b == 0.0:
        raise EvalError("mod: modulo by zero")
    return math.fmod(math.fmod(a, b) + b, b)  # sign follows the divisor


def _impl_sqrt(a):
    if a < 0:
        raise EvalError("sqrt: negative argument")
    return math.sqrt(a)


def _impl_num_of_str(s):
    try:
        return float(s)
    except ValueError:
        raise EvalError("num_of_str: not a number: {!r}".format(s))


def _impl_num_format(value, decimals):
    if decimals != int(decimals) or decimals < 0:
        raise EvalError("num_format: bad decimal count {}".format(decimals))
    return "{:.{}f}".format(value, int(decimals))


def apply_prim(op, args, natives=None, services=None):
    """Evaluate ``op(args...)`` where every argument is an AST value.

    Pure built-ins are dispatched inline; anything else must be a
    registered native, whose implementation is run with Python-converted
    arguments and the ambient services.
    """
    # -- built-in pure operators --------------------------------------------
    if op in PRIM_SIGS:
        return _apply_builtin(op, args)
    # -- registered natives --------------------------------------------------
    if natives is not None:
        sig = natives.signature(op)
        if sig is not None:
            impl = natives.implementation(op)
            py_args = [to_python(arg) for arg in args]
            result_type = match_signature(
                sig, [_value_type_for_native(a, op) for a in args]
            )
            try:
                result = impl(services, *py_args)
            except (EvalError, NativeError):
                raise
            except Exception as exc:  # surface host bugs with context
                raise NativeError("native '{}' failed: {}".format(op, exc))
            return from_python(result, result_type)
    raise EvalError("unknown operator: {!r}".format(op))


def _value_type_for_native(value, op):
    from .values import value_type

    type_ = value_type(value)
    if type_ is None:
        raise EvalError(
            "{}: argument {!r} has no function-free type".format(op, value)
        )
    return type_


def _apply_builtin(op, args):
    a = args  # brevity below
    if op == "add":
        return _float_num(_num(a[0], op) + _num(a[1], op))
    if op == "sub":
        return _float_num(_num(a[0], op) - _num(a[1], op))
    if op == "mul":
        return _float_num(_num(a[0], op) * _num(a[1], op))
    if op == "div":
        return _float_num(_impl_div(_num(a[0], op), _num(a[1], op)))
    if op == "mod":
        return _float_num(_impl_mod(_num(a[0], op), _num(a[1], op)))
    if op == "pow":
        return ast.Num(float(_num(a[0], op) ** _num(a[1], op)))
    if op == "neg":
        return _float_num(-_num(a[0], op))
    if op == "floor":
        return ast.Num(float(math.floor(_num(a[0], op))))
    if op == "ceil":
        return ast.Num(float(math.ceil(_num(a[0], op))))
    if op == "round":
        # Round half away from zero, like TouchDevelop's math->round.
        value = _num(a[0], op)
        return ast.Num(float(math.floor(value + 0.5) if value >= 0
                             else math.ceil(value - 0.5)))
    if op == "abs":
        return _float_num(abs(_num(a[0], op)))
    if op == "sqrt":
        return ast.Num(_impl_sqrt(_num(a[0], op)))
    if op == "min":
        return _float_num(min(_num(a[0], op), _num(a[1], op)))
    if op == "max":
        return _float_num(max(_num(a[0], op), _num(a[1], op)))
    if op == "lt":
        return bool_value(_num(a[0], op) < _num(a[1], op))
    if op == "le":
        return bool_value(_num(a[0], op) <= _num(a[1], op))
    if op == "gt":
        return bool_value(_num(a[0], op) > _num(a[1], op))
    if op == "ge":
        return bool_value(_num(a[0], op) >= _num(a[1], op))
    if op == "eq":
        return bool_value(a[0] == a[1])
    if op == "ne":
        return bool_value(a[0] != a[1])
    if op == "and":
        return bool_value(_num(a[0], op) != 0.0 and _num(a[1], op) != 0.0)
    if op == "or":
        return bool_value(_num(a[0], op) != 0.0 or _num(a[1], op) != 0.0)
    if op == "not":
        return bool_value(_num(a[0], op) == 0.0)
    if op == "concat":
        return ast.Str(_str(a[0], op) + _str(a[1], op))
    if op == "str_of_num":
        return ast.Str(_format_number(_num(a[0], op)))
    if op == "num_of_str":
        return ast.Num(_impl_num_of_str(_str(a[0], op)))
    if op == "str_length":
        return ast.Num(float(len(_str(a[0], op))))
    if op == "str_sub":
        text = _str(a[0], op)
        start = _index(a[1], op, len(text), allow_end=True)
        end = _index(a[2], op, len(text), allow_end=True)
        return ast.Str(text[start:end])
    if op == "str_contains":
        return bool_value(_str(a[1], op) in _str(a[0], op))
    if op == "str_upper":
        return ast.Str(_str(a[0], op).upper())
    if op == "str_lower":
        return ast.Str(_str(a[0], op).lower())
    if op == "str_repeat":
        count = _num(a[1], op)
        if count < 0 or count != int(count):
            raise EvalError("str_repeat: bad count {}".format(count))
        return ast.Str(_str(a[0], op) * int(count))
    if op == "num_format":
        return ast.Str(_impl_num_format(_num(a[0], op), _num(a[1], op)))
    if op == "list_length":
        return ast.Num(float(len(_list(a[0], op).items)))
    if op == "list_get":
        lst = _list(a[0], op)
        return lst.items[_index(a[1], op, len(lst.items))]
    if op == "list_append":
        lst = _list(a[0], op)
        return ast.ListLit(lst.items + (a[1],), lst.element_type)
    if op == "list_concat":
        left, right = _list(a[0], op), _list(a[1], op)
        return ast.ListLit(left.items + right.items, left.element_type)
    if op == "list_reverse":
        lst = _list(a[0], op)
        return ast.ListLit(tuple(reversed(lst.items)), lst.element_type)
    if op == "list_slice":
        lst = _list(a[0], op)
        start = _index(a[1], op, len(lst.items), allow_end=True)
        end = _index(a[2], op, len(lst.items), allow_end=True)
        return ast.ListLit(lst.items[start:end], lst.element_type)
    if op == "list_range":
        from ..core.types import NUMBER

        start, end = _num(a[0], op), _num(a[1], op)
        if start != int(start) or end != int(end):
            raise EvalError("list_range: bounds must be integers")
        items = tuple(
            ast.Num(float(i)) for i in range(int(start), int(end))
        )
        return ast.ListLit(items, NUMBER)
    raise ReproError("builtin operator '{}' has no implementation".format(op))
