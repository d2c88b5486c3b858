"""Calls on the compiled machine: trampolines, and an explicit stack.

Tail calls return a :class:`_TailCall` to a trampoline (:func:`_invoke`)
instead of growing the Python stack, so every surface loop — a
tail-recursive function — runs in constant stack.

Non-tail recursion needs more.  :func:`_recursive_components` finds the
strongly connected components of the direct-call (``FunRef``) graph in
which some member makes a non-tail call to a member.  Those functions
compile, through :class:`RecursionCompiler`, to *generator* bodies:
each call into the component is yielded to :func:`_run_stack` as a
:class:`_Call`, and that loop keeps the suspended callers on a list.  Depth is then
bounded by memory, as on the tree machine — no interpreter recursion
limit is touched and no second machine takes over.  Only sub-expressions
that make such a call become generators; the rest of a body stays plain
closures.
"""

from __future__ import annotations

from ..boxes.tree import Box
from ..core import ast
from ..core.effects import PURE, RENDER, STATE
from ..core.errors import StuckExpression
from ..core.prims import PRIM_SIGS
from ..eval.machine import _check_queue
from ..eval.memo import replay_items
from ..eval.natives import _apply_builtin, apply_prim
from ..eval.values import truthy
from ..resilience.supervisor import Budget

_UNIT = ast.UNIT_VALUE


class _TailCall:
    """A tail application, returned to the trampoline instead of made."""

    __slots__ = ("run", "env")

    def __init__(self, run, env):
        self.run = run
        self.env = env


class _Call:
    """A call into a recursive component, run by :func:`_run_stack`.

    Yielded by a non-tail call (the caller suspends until the loop
    sends the result back) and returned by a tail call (the loop runs
    the callee in the caller's place).
    """

    __slots__ = ("gen", "env")

    def __init__(self, gen, env):
        self.gen = gen
        self.env = env


def _invoke(run, rt, env):
    """The trampoline: bounce tail calls without growing the host stack."""
    result = run(rt, env)
    while type(result) is _TailCall:
        result = result.run(rt, result.env)
    return result


def _run_stack(gen, rt, env):
    """Run a recursive function's generator body on an explicit stack.

    Each yielded :class:`_Call` suspends its caller on ``stack`` and
    starts the callee; a finished body hands its value to the caller on
    top of the stack, or — returning a :class:`_Call` — is replaced by
    its tail callee.  The host stack stays flat however deep the
    recursion goes.
    """
    stack = []
    body = gen(rt, env)
    sent = None
    try:
        while True:
            try:
                call = body.send(sent)
            except StopIteration as finished:
                result = finished.value
                if type(result) is _Call:
                    body = result.gen(rt, result.env)
                    sent = None
                    continue
                while type(result) is _TailCall:
                    result = result.run(rt, result.env)
                if not stack:
                    return result
                body = stack.pop()
                sent = result
                continue
            stack.append(body)
            body = call.gen(rt, call.env)
            sent = None
    except BaseException:
        # Unwind the suspended callers innermost first, so their
        # ``finally`` blocks (a ``boxed`` body restoring the current
        # box) run in the order nested frames would have.
        for suspended in reversed(stack):
            suspended.close()
        raise


def _call_sites(expr, tail, out):
    """Append ``(callee, tail)`` for every direct ``f v`` in ``expr``.

    Mirrors the compiler's tail propagation; lambda *values* are not
    entered (their bodies are separate units).
    """
    if type(expr) is ast.Var or expr.is_value():
        return
    kind = type(expr)
    if kind is ast.App:
        fn = expr.fn
        if isinstance(fn, ast.FunRef):
            out.append((fn.name, tail))
            _call_sites(expr.arg, False, out)
        elif isinstance(fn, ast.Lam):
            _call_sites(expr.arg, False, out)
            _call_sites(fn.body, tail, out)
        else:
            _call_sites(fn, False, out)
            _call_sites(expr.arg, False, out)
    elif kind is ast.If:
        _call_sites(expr.cond, False, out)
        _call_sites(expr.then_branch, tail, out)
        _call_sites(expr.else_branch, tail, out)
    else:
        for child in ast.children(expr):
            _call_sites(child, False, out)


def _recursive_components(sites, eligible):
    """name → its call-graph component, for functions that need a stack.

    ``sites`` maps each function with a lambda body to the
    ``(callee, tail)`` call sites of that body (:func:`_call_sites`).  A
    strongly connected component of the direct-call graph needs the
    explicit stack when one of its members makes a non-tail call to a
    member — a memoized call counts as non-tail, since the render memo
    records the callee's boxes after it returns.  Components made only
    of tail calls (every surface loop) keep the plain trampoline.
    """
    edges = {
        name: [
            (callee, tail and callee not in eligible)
            for callee, tail in body_sites
            if callee in sites
        ]
        for name, body_sites in sites.items()
    }
    reach = {}
    for name in sites:
        seen = set()
        pending = [callee for callee, _ in edges[name]]
        while pending:
            callee = pending.pop()
            if callee not in seen:
                seen.add(callee)
                pending.extend(target for target, _ in edges[callee])
        reach[name] = seen
    components = {}
    for name in sites:
        if name in components or name not in reach[name]:
            continue
        members = frozenset(
            other for other in reach[name] if name in reach[other]
        )
        if any(
            not tail and callee in members
            for member in members
            for callee, tail in edges[member]
        ):
            for member in members:
                components[member] = members
    return components


def _tail_apply(lam, value, rt):
    """A lambda value applied in tail position: hand it to the trampoline."""
    if not isinstance(lam, ast.Lam):
        raise StuckExpression(
            "application of a non-function: {!r}".format(lam)
        )
    run, size = rt.unit._lam_unit(lam)
    rt.steps = steps = rt.steps + 1
    if steps > rt.fuel:
        Budget.charge(steps, rt.fuel, "compiled")
    env = [None] * size
    env[0] = value
    return _TailCall(run, env)


class RecursionCompiler:
    """The generator half of :class:`~repro.compile.machine.CompiledUnit`.

    Mixed into the unit, whose ``_compile`` (plain closures), function
    table, memo eligibility, global slots and operator signatures it
    uses; ``_scc`` is the component whose body is being compiled.
    """

    def _suspends(self, expr, tail):
        """Does ``expr`` make a call the stack loop must run — a non-tail
        (or memoized) call to a member of the component being compiled?"""
        if type(expr) is ast.Var or expr.is_value():
            return False
        kind = type(expr)
        if kind is ast.App:
            fn = expr.fn
            if isinstance(fn, ast.FunRef):
                definition = self._functions.get(fn.name)
                if definition is None:
                    return False  # stuck before the argument runs
                if (
                    isinstance(definition.body, ast.Lam)
                    and fn.name in self._scc
                    and (not tail or fn.name in self._eligible)
                ):
                    return True
                return self._suspends(expr.arg, False)
            if isinstance(fn, ast.Lam):
                return self._suspends(expr.arg, False) or self._suspends(
                    fn.body, tail
                )
            return self._suspends(fn, False) or self._suspends(
                expr.arg, False
            )
        if kind is ast.If:
            return (
                self._suspends(expr.cond, False)
                or self._suspends(expr.then_branch, tail)
                or self._suspends(expr.else_branch, tail)
            )
        return any(
            self._suspends(child, False) for child in ast.children(expr)
        )

    def _compile_deep(self, expr, scope, frame, tail):
        """Compile ``expr`` inside a recursive component's body.

        Returns ``(suspends, fn)``: a sub-expression that makes a call
        the stack loop must run compiles to a generator function (same
        ``fn(rt, env)`` shape, driven with ``yield from``); everything
        else compiles to the ordinary closure.
        """
        if not self._suspends(expr, tail):
            return False, self._compile(expr, scope, frame, tail)
        kind = type(expr)
        if kind is ast.App:
            return True, self._deep_app(expr, scope, frame, tail)
        if kind is ast.If:
            return True, self._deep_if(expr, scope, frame, tail)
        if kind is ast.Boxed:
            return True, self._deep_boxed(expr, scope, frame)
        return True, self._deep_strict(expr, scope, frame)

    def _deep_app(self, expr, scope, frame, tail):
        fn, arg = expr.fn, expr.arg
        arg_gen, arg_fn = self._compile_deep(arg, scope, frame, False)
        if isinstance(fn, ast.FunRef):
            if isinstance(self._functions[fn.name].body, ast.Lam):
                return self._deep_call(fn.name, arg_gen, arg_fn, tail)
        elif isinstance(fn, ast.Lam):
            index = frame.bind()
            shadowed = scope.get(fn.param)
            scope[fn.param] = index
            body_gen, body_fn = self._compile_deep(fn.body, scope, frame, tail)
            if shadowed is None:
                del scope[fn.param]
            else:
                scope[fn.param] = shadowed

            def run_let(rt, env):
                if arg_gen:
                    env[index] = yield from arg_fn(rt, env)
                else:
                    env[index] = arg_fn(rt, env)
                if body_gen:
                    return (yield from body_fn(rt, env))
                return body_fn(rt, env)

            return run_let
        fn_gen, fn_fn = self._compile_deep(fn, scope, frame, False)

        def run_app(rt, env):
            lam = (yield from fn_fn(rt, env)) if fn_gen else fn_fn(rt, env)
            value = (yield from arg_fn(rt, env)) if arg_gen else arg_fn(rt, env)
            if tail:
                return _tail_apply(lam, value, rt)
            return rt.unit._apply_lam(lam, value, rt)

        return run_app

    def _deep_call(self, name, arg_gen, arg_fn, tail):
        """``f v`` inside a recursive component (see :func:`_run_stack`)."""
        driven = name in self._scc

        def run_call(rt, env):
            value = (yield from arg_fn(rt, env)) if arg_gen else arg_fn(rt, env)
            rt.steps = steps = rt.steps + 1
            if steps > rt.fuel:
                Budget.charge(steps, rt.fuel, "compiled")
            run, size, gen = rt.units[name]
            env2 = [None] * size
            env2[0] = value
            if driven:
                if tail:
                    return _Call(gen, env2)
                return (yield _Call(gen, env2))
            if tail:
                return _TailCall(run, env2)
            return _invoke(run, rt, env2)

        if name not in self._eligible:
            return run_call

        def run_memo(rt, env):
            # _compile_memo_call with the callee run by the stack loop.
            memo = rt.memo
            if memo is None or rt.mode is not RENDER:
                return (yield from run_call(rt, env))
            value = (yield from arg_fn(rt, env)) if arg_gen else arg_fn(rt, env)
            rt.steps = steps = rt.steps + 1
            if steps > rt.fuel:
                Budget.charge(steps, rt.fuel, "compiled")
            entry = memo.probe(name, value, rt.store)
            box = rt.box
            if entry is not None:
                box._check_mutable()
                box.items.extend(replay_items(entry.items, rt.counters))
                return entry.value
            start = len(box.items)
            run, size, gen = rt.units[name]
            env2 = [None] * size
            env2[0] = value
            if driven:
                result = yield _Call(gen, env2)
            else:
                result = _invoke(run, rt, env2)
            memo.store_result(
                name, value, rt.store, box.items[start:], result
            )
            return result

        return run_memo

    def _deep_if(self, expr, scope, frame, tail):
        cond_gen, cond_fn = self._compile_deep(expr.cond, scope, frame, False)
        then_gen, then_fn = self._compile_deep(
            expr.then_branch, scope, frame, tail
        )
        else_gen, else_fn = self._compile_deep(
            expr.else_branch, scope, frame, tail
        )

        def run_if(rt, env):
            cond = (yield from cond_fn(rt, env)) if cond_gen else cond_fn(rt, env)
            if truthy(cond):
                if then_gen:
                    return (yield from then_fn(rt, env))
                return then_fn(rt, env)
            if else_gen:
                return (yield from else_fn(rt, env))
            return else_fn(rt, env)

        return run_if

    def _deep_boxed(self, expr, scope, frame):
        box_id = expr.box_id
        _, body_fn = self._compile_deep(expr.body, scope, frame, False)

        def run_boxed(rt, env):
            if rt.mode is not RENDER:
                raise StuckExpression("boxed outside render mode")
            child = Box(
                box_id=box_id, occurrence=rt.counters.next_for(box_id)
            )
            parent = rt.box
            rt.box = child
            try:
                value = yield from body_fn(rt, env)
            finally:
                rt.box = parent
            parent.append_child(child)
            return value

        return run_boxed

    def _deep_strict(self, expr, scope, frame):
        """A node that evaluates its children left to right, then acts.

        ``check`` is the mode test the ordinary closure makes *before*
        its operands run; ``finish`` is the node's action on the
        operand values.  Both mirror :meth:`_compile` exactly.
        """
        parts = tuple(
            self._compile_deep(child, scope, frame, False)
            for child in ast.children(expr)
        )
        check, finish = self._strict_action(expr)

        def run_strict(rt, env):
            if check is not None:
                check(rt)
            values = []
            for suspends, fn in parts:
                if suspends:
                    values.append((yield from fn(rt, env)))
                else:
                    values.append(fn(rt, env))
            return finish(rt, values)

        return run_strict

    def _strict_action(self, expr):
        kind = type(expr)
        if kind is ast.Prim:
            return None, self._prim_action(expr.op)
        if kind is ast.Tuple:
            return None, lambda rt, values: ast.Tuple(tuple(values))
        if kind is ast.ListLit:
            element_type = expr.element_type
            return None, lambda rt, values: ast.ListLit(
                tuple(values), element_type
            )
        if kind is ast.Proj:
            index = expr.index

            def project(rt, values):
                (value,) = values
                if not isinstance(value, ast.Tuple):
                    raise StuckExpression("projection from a non-tuple")
                if index > len(value.items):
                    raise StuckExpression(
                        "projection index {} out of range".format(index)
                    )
                return value.items[index - 1]

            return None, project
        if kind is ast.GlobalWrite:
            name = expr.name
            slot = self._slot_of.get(name)

            def check_write(rt):
                if rt.mode is not STATE:
                    raise StuckExpression(
                        "assignment to '{}' outside state mode".format(name)
                    )

            def write(rt, values):
                (value,) = values
                rt.store.assign(name, value)
                if slot is not None and rt.slots[slot] is not None:
                    rt.slots[slot] = value
                return _UNIT

            return check_write, write
        if kind is ast.Push:
            page = expr.page

            def check_push(rt):
                if rt.mode is not STATE:
                    raise StuckExpression("push outside state mode")

            def push(rt, values):
                from ..system.events import PushEvent

                _check_queue(rt.queue).enqueue(PushEvent(page, values[0]))
                return _UNIT

            return check_push, push
        if kind is ast.Post:
            def check_post(rt):
                if rt.mode is not RENDER:
                    raise StuckExpression("post outside render mode")

            def post(rt, values):
                rt.box.append_leaf(values[0])
                return _UNIT

            return check_post, post
        attr = expr.attr  # SetAttr: the last node kind with operands

        def check_attr(rt):
            if rt.mode is not RENDER:
                raise StuckExpression("box attribute set outside render mode")

        def set_attr(rt, values):
            rt.box.append_attr(attr, values[0])
            return _UNIT

        return check_attr, set_attr

    def _prim_action(self, op):
        """What a primitive does with its evaluated operands."""
        sig = self._signature(op)
        if sig is None:
            def unknown(rt, args):
                raise StuckExpression("unknown operator '{}'".format(op))

            return unknown
        effect = sig.effect
        builtin = op in PRIM_SIGS

        def apply(rt, args):
            if effect is not PURE and rt.mode is not effect:
                raise StuckExpression(
                    "operator '{}' has effect {} but mode is {}".format(
                        op, effect, rt.mode
                    )
                )
            if builtin:
                return _apply_builtin(op, tuple(args))
            return apply_prim(
                op, tuple(args), natives=rt.natives, services=rt.services
            )

        return apply
