"""Per-function code digests — "did this function's code change?" as a hash.

A memo entry may only be replayed under new code if the function it
caches still *means* the same thing.  Structural equality of the stored
:class:`~repro.core.defs.FunDef` is too strict: the surface compiler
draws fresh names (``name%N``) and loop-function names
(``$for_<declaration>_N``) from per-declaration counters, so renaming a
function, or an edit earlier in its own body, renames what it
generated.  The digest therefore hashes a **canonical form** that is
invariant under those renamings:

* bound variables are alpha-normalized to binder-depth labels, so
  ``lam x%3. x%3`` and ``lam x%7. x%7`` digest identically;
* references to compiler-generated functions (names starting ``"$"``)
  are *inlined* — the generated body is canonicalized in place, with
  self/mutual recursion replaced by a stack-index marker — so the
  generated name itself never appears;
* references to user-written functions stay by name, and the digest of
  a function covers the canonical forms of every user function it can
  transitively reach (a change in a callee changes the caller's digest
  too — the entry caches the whole call's output);
* ``box_id``\\ s **are** included: they are baked into the cached box
  trees, and the Fig. 2 UI–code navigation dereferences them against
  the current sourcemap, so an entry whose boxes carry shifted ids must
  miss (a safe re-execution) rather than replay stale ids.

Everything else that could change behaviour — literals, effects,
parameter types, global names, primitive ops — is hashed verbatim.

A page's render body is digested the same way (:func:`page_digests`),
so RENDER's own call is keyed like a function call and its memo entry
survives every edit the page cannot reach.
"""

from __future__ import annotations

import hashlib

from ..core import ast
from ..core.defs import def_derived

#: Compiler-generated definitions (loop bodies) use this name prefix.
GENERATED_PREFIX = "$"


def _canon(expr, code, out, bound, depth, gen_stack):
    """Append the canonical tokens of ``expr`` to ``out``.

    ``bound`` maps in-scope variable names to binder labels, ``depth``
    counts binders seen on this path, and ``gen_stack`` is the chain of
    generated functions currently being inlined (for recursion markers).
    """
    if isinstance(expr, ast.Num):
        out.append("N{!r}".format(expr.value))
    elif isinstance(expr, ast.Str):
        out.append("S{!r}".format(expr.value))
    elif isinstance(expr, ast.Var):
        label = bound.get(expr.name)
        if label is None:
            out.append("free:{}".format(expr.name))
        else:
            out.append("b{}".format(label))
    elif isinstance(expr, ast.Lam):
        out.append(
            "L[{}:{}](".format(expr.param_type, expr.effect)
        )
        previous = bound.get(expr.param)
        bound[expr.param] = depth
        _canon(expr.body, code, out, bound, depth + 1, gen_stack)
        if previous is None:
            del bound[expr.param]
        else:
            bound[expr.param] = previous
        out.append(")")
    elif isinstance(expr, ast.Tuple):
        out.append("T(")
        for item in expr.items:
            _canon(item, code, out, bound, depth, gen_stack)
            out.append(",")
        out.append(")")
    elif isinstance(expr, ast.ListLit):
        out.append("list[{}](".format(expr.element_type))
        for item in expr.items:
            _canon(item, code, out, bound, depth, gen_stack)
            out.append(",")
        out.append(")")
    elif isinstance(expr, ast.App):
        out.append("A(")
        _canon(expr.fn, code, out, bound, depth, gen_stack)
        out.append(",")
        _canon(expr.arg, code, out, bound, depth, gen_stack)
        out.append(")")
    elif isinstance(expr, ast.FunRef):
        if expr.name.startswith(GENERATED_PREFIX):
            if expr.name in gen_stack:
                # Recursive generated function: a stack-relative marker
                # instead of the unstable name.
                out.append("R{}".format(gen_stack.index(expr.name)))
            else:
                definition = code.function(expr.name)
                if definition is None:
                    out.append("F?{}".format(expr.name))
                else:
                    out.append("G(")
                    # The generated body is closed (top-level defs have
                    # no free variables), so inline it under an empty
                    # binder environment.
                    _canon(
                        definition.body, code, out, {}, 0,
                        gen_stack + (expr.name,),
                    )
                    out.append(")")
        else:
            out.append("F:{}".format(expr.name))
    elif isinstance(expr, ast.Proj):
        out.append("proj{}(".format(expr.index))
        _canon(expr.tuple_expr, code, out, bound, depth, gen_stack)
        out.append(")")
    elif isinstance(expr, ast.GlobalRead):
        out.append("g:{}".format(expr.name))
    elif isinstance(expr, ast.GlobalWrite):
        out.append("g!{}(".format(expr.name))
        _canon(expr.value, code, out, bound, depth, gen_stack)
        out.append(")")
    elif isinstance(expr, ast.Push):
        out.append("push:{}(".format(expr.page))
        _canon(expr.arg, code, out, bound, depth, gen_stack)
        out.append(")")
    elif isinstance(expr, ast.Pop):
        out.append("pop")
    elif isinstance(expr, ast.Boxed):
        out.append("B#{}(".format(expr.box_id))
        _canon(expr.body, code, out, bound, depth, gen_stack)
        out.append(")")
    elif isinstance(expr, ast.Post):
        out.append("post(")
        _canon(expr.value, code, out, bound, depth, gen_stack)
        out.append(")")
    elif isinstance(expr, ast.SetAttr):
        out.append("attr:{}(".format(expr.attr))
        _canon(expr.value, code, out, bound, depth, gen_stack)
        out.append(")")
    elif isinstance(expr, ast.If):
        out.append("if(")
        _canon(expr.cond, code, out, bound, depth, gen_stack)
        out.append(",")
        _canon(expr.then_branch, code, out, bound, depth, gen_stack)
        out.append(",")
        _canon(expr.else_branch, code, out, bound, depth, gen_stack)
        out.append(")")
    elif isinstance(expr, ast.Prim):
        out.append("P:{}(".format(expr.op))
        for arg in expr.args:
            _canon(arg, code, out, bound, depth, gen_stack)
            out.append(",")
        out.append(")")
    else:
        # Future node types must opt in explicitly: digesting them wrong
        # would replay stale results, so fail closed with a unique token.
        out.append("?{!r}".format(expr))


def function_canon(name, code):
    """The canonical string of ``code``'s function ``name``.

    Raises ``KeyError`` for an undefined name — callers decide whether
    that is an error or simply "not memoizable".
    """
    definition = code.function(name)
    if definition is None:
        raise KeyError(name)
    out = ["fn[{}:{}]".format(definition.type.param, definition.type.effect)]
    _canon(definition.body, code, out, {}, 0, ())
    return "".join(out)


def page_canon(name, code):
    """The canonical string of the render body of ``code``'s page
    ``name`` — what RENDER evaluates, applied to the page argument.

    Canonicalized exactly as a function body (generated functions
    inlined, user functions by name), under a ``page`` tag so no function
    canon can equal it.  The init body is left out: RENDER never runs it.
    Raises ``KeyError`` for an undefined page.
    """
    page = code.page(name)
    if page is None:
        raise KeyError(name)
    out = ["page[{}]".format(page.arg_type)]
    _canon(page.render, code, out, {}, 0, ())
    return "".join(out)


class _Same:
    """A key part equal only to itself: identity, not structure."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __hash__(self):
        return id(self.obj)

    def __eq__(self, other):
        return type(other) is _Same and other.obj is self.obj


def _cached_canon(key, code, callees):
    """:func:`function_canon` of function ``key``, or :func:`page_canon`
    of page ``name`` for a ``("page", name)`` key, kept per definition
    object.

    The canon reads the definition's own body and the bodies of the
    generated functions it inlines, so those definitions (by identity)
    are the key: a function or page reused unchanged from an earlier
    code version with the same loop functions keeps its canon.
    """
    inlined = []
    seen = set()
    frontier = [key]
    while frontier:
        for callee in sorted(callees.get(frontier.pop(), ())):
            if callee.startswith(GENERATED_PREFIX) and callee not in seen:
                seen.add(callee)
                inlined.append((callee, _Same(code.function(callee))))
                frontier.append(callee)
    if type(key) is tuple:
        name = key[1]
        definition, canon = code.page(name), page_canon
    else:
        name = key
        definition, canon = code.function(name), function_canon
    if definition is None:
        raise KeyError(key)
    return def_derived(
        definition,
        ("canon", tuple(inlined)),
        lambda definition: canon(name, code),
    )


def _callee_graph(code):
    """name → the ``FunRef`` names in each function's body, and
    ``("page", name)`` → those in each page's render body."""
    graph = {
        definition.name: _fun_refs(definition.body)
        for definition in code.functions()
    }
    for page in code.pages():
        graph[("page", page.name)] = _fun_refs(page.render)
    return graph


def _fun_refs(expr):
    return {
        node.name for node in ast.walk(expr) if isinstance(node, ast.FunRef)
    }


def _reachable_user_functions(name, callees):
    """User-function names transitively reachable from ``name``'s body,
    looking *through* generated functions (whose bodies are inlined into
    the canon and therefore contribute their own user calls)."""
    reached = set()
    visited_generated = set()
    frontier = [name]
    while frontier:
        current = frontier.pop()
        for callee in callees.get(current, ()):
            if callee.startswith(GENERATED_PREFIX):
                if callee not in visited_generated:
                    visited_generated.add(callee)
                    frontier.append(callee)
            elif callee not in reached and callee != name:
                reached.add(callee)
                frontier.append(callee)
    return reached


def code_digests(code, callees=None):
    """``name → hex digest`` for every user-written function in ``code``.

    ``digest(f) = sha256(canon(f) · sorted (g, canon(g)) for g reachable
    from f)`` — so editing any function a call could execute changes the
    caller's digest, while edits elsewhere in the file (including ones
    that shift the compiler's fresh-name counters) leave it fixed.

    ``callees`` (name → ``FunRef`` names in that function's body) saves
    the walk over every body when the caller already collected it.
    """
    return _digests(
        code, callees,
        [
            definition.name for definition in code.functions()
            if not definition.name.startswith(GENERATED_PREFIX)
        ],
    )


def page_digests(code, callees=None):
    """``("page", name) → hex digest`` for every page of ``code``: the
    page's render canon followed by the canon of every user function it
    can reach, as :func:`code_digests` digests a function.  RENDER's own
    call is then one more memoizable call (:mod:`repro.eval.memo`).

    ``callees`` must hold the ``("page", name)`` rows too (see
    :func:`_callee_graph`).
    """
    return _digests(
        code, callees, [("page", page.name) for page in code.pages()]
    )


def _digests(code, callees, keys):
    if callees is None:
        callees = _callee_graph(code)
    canons = {}

    def canon_of(key):
        cached = canons.get(key)
        if cached is None:
            cached = canons[key] = _cached_canon(key, code, callees)
        return cached

    digests = {}
    for key in keys:
        hasher = hashlib.sha256()
        hasher.update(canon_of(key).encode("utf-8"))
        for callee in sorted(_reachable_user_functions(key, callees)):
            hasher.update(
                "|{}={}".format(callee, canon_of(callee)).encode("utf-8")
            )
        digests[key] = hasher.hexdigest()
    return digests
