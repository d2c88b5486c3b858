"""The expression machines (Fig. 8).

Two implementations of the evaluation relations →p / →s / →r:

* :class:`SmallStep` — the paper's rules, literally: decompose into an
  evaluation context and a redex, reduce the redex, plug.  Used by the
  metatheory test-suite (preservation is checked *per step*) and as the
  reference in differential tests.  O(depth) per step.

* :class:`BigStep` — a CEK-style abstract machine with an explicit frame
  stack.  Same values, same effects, same traps, but one pass and constant
  Python stack (tail calls — and therefore all surface-language loops,
  which lower to tail recursion — run in constant space).  This is the
  production evaluator used by the system runtime.

Both machines enforce the *effect discipline operationally*: a
``g := v`` redex in render mode is stuck, a ``boxed`` redex in standard
mode is stuck, exactly as Fig. 8 provides no rule for them.  Well-typed
programs never hit these traps (progress, §4.3) — the metatheory tests
check that, and the traps are what make the check meaningful.
"""

from __future__ import annotations

from ..boxes.tree import Box, make_root
from ..core import ast
from ..core.defs import Code
from ..core.effects import Effect, PURE, RENDER, STATE
from ..core.errors import (
    EvalError,
    FuelExhausted,
    ReproError,
    StuckExpression,
)
from ..core.prims import PRIM_SIGS
from ..obs.trace import NULL_TRACER
from . import contexts
from .memo import replay_items
from .natives import EMPTY_NATIVES, apply_prim
from .values import truthy

#: Default step budget for a single run.  Large enough for every workload in
#: the repository; small enough that an accidentally divergent program (the
#: paper: "the execution of user code may of course diverge") fails fast.
DEFAULT_FUEL = 10_000_000


class _OccurrenceCounter:
    """Assigns dynamic occurrence numbers to boxes per render pass.

    A ``boxed`` statement inside a loop creates many boxes; numbering them
    in execution order is what lets the IDE select "the 7th box made by
    this statement" (Fig. 2 selects all of them collectively).
    """

    def __init__(self):
        self._next = {}

    def next_for(self, box_id):
        count = self._next.get(box_id, 0)
        self._next[box_id] = count + 1
        return count


def _check_queue(queue):
    if queue is None:
        raise ReproError("state-mode evaluation requires an event queue")
    return queue


def _too_deep():
    # Each ``boxed`` level nests a run → step → reduce on the Python
    # stack; past the interpreter's limit the run is out of a resource,
    # like fuel.
    return FuelExhausted(
        "evaluation exceeded the small-step machine's stack depth "
        "(boxed statements nested too deep)"
    )


class SmallStep:
    """The faithful small-step machine: one →µ step at a time.

    Construction fixes the code ``C`` and the native table; the mutable
    components (store, queue, box) are passed per call, mirroring how the
    relations of Fig. 8 thread them.
    """

    def __init__(self, code, natives=EMPTY_NATIVES, services=None,
                 tracer=NULL_TRACER):
        if not isinstance(code, Code):
            raise ReproError("SmallStep expects Code")
        self.code = code
        self.natives = natives
        self.services = services
        self.tracer = tracer

    # -- single steps ---------------------------------------------------------

    def step(self, expr, mode, store, queue=None, box=None, counters=None):
        """Perform one →µ step on ``expr``; returns the stepped expression.

        Raises :class:`StuckExpression` when no rule applies (and the
        expression is not a value).  Render-mode ``boxed`` redexes perform
        their entire nested reduction inside this one step, exactly as rule
        ER-BOXED's premise does.
        """
        split = contexts.decompose(expr)
        if split is None:
            raise StuckExpression("cannot step a value")
        path, redex = split
        reduct = self._reduce(redex, mode, store, queue, box, counters)
        return contexts.plug(path, reduct)

    def _reduce(self, redex, mode, store, queue, box, counters):
        # -- pure rules (available in every mode) ------------------------------
        if isinstance(redex, ast.FunRef):  # EP-FUN
            definition = self.code.function(redex.name)
            if definition is None:
                raise StuckExpression(
                    "undefined function '{}'".format(redex.name)
                )
            return definition.body
        if isinstance(redex, ast.App):  # EP-APP
            if not isinstance(redex.fn, ast.Lam):
                raise StuckExpression(
                    "application of a non-function: {!r}".format(redex.fn)
                )
            return ast.subst(redex.fn.body, redex.fn.param, redex.arg)
        if isinstance(redex, ast.Proj):  # EP-TUPLE
            target = redex.tuple_expr
            if not isinstance(target, ast.Tuple):
                raise StuckExpression("projection from a non-tuple")
            if redex.index > len(target.items):
                raise StuckExpression(
                    "projection index {} out of range".format(redex.index)
                )
            return target.items[redex.index - 1]
        if isinstance(redex, ast.GlobalRead):  # EP-GLOBAL-1/2
            value = store.lookup(redex.name)
            if value is not None:
                return value
            definition = self.code.global_(redex.name)
            if definition is None:
                raise StuckExpression(
                    "undefined global '{}'".format(redex.name)
                )
            return definition.init
        if isinstance(redex, ast.If):  # extension: numeric conditional
            return (
                redex.then_branch if truthy(redex.cond) else redex.else_branch
            )
        if isinstance(redex, ast.Prim):
            sig = PRIM_SIGS.get(redex.op) or self.natives.signature(redex.op)
            if sig is None:
                raise StuckExpression("unknown operator '{}'".format(redex.op))
            if sig.effect is not PURE and mode is not sig.effect:
                raise StuckExpression(
                    "operator '{}' has effect {} but mode is {}".format(
                        redex.op, sig.effect, mode
                    )
                )
            return apply_prim(
                redex.op, redex.args, natives=self.natives,
                services=self.services,
            )
        # -- standard-mode rules ----------------------------------------------
        if isinstance(redex, ast.GlobalWrite):  # ES-ASSIGN
            if mode is not STATE:
                raise StuckExpression(
                    "assignment to '{}' outside state mode".format(redex.name)
                )
            store.assign(redex.name, redex.value)
            return ast.UNIT_VALUE
        if isinstance(redex, ast.Push):  # ES-PUSH
            if mode is not STATE:
                raise StuckExpression("push outside state mode")
            from ..system.events import PushEvent

            _check_queue(queue).enqueue(PushEvent(redex.page, redex.arg))
            return ast.UNIT_VALUE
        if isinstance(redex, ast.Pop):  # ES-POP
            if mode is not STATE:
                raise StuckExpression("pop outside state mode")
            from ..system.events import PopEvent

            _check_queue(queue).enqueue(PopEvent())
            return ast.UNIT_VALUE
        # -- render-mode rules --------------------------------------------------
        if isinstance(redex, ast.Post):  # ER-POST
            if mode is not RENDER:
                raise StuckExpression("post outside render mode")
            box.append_leaf(redex.value)
            return ast.UNIT_VALUE
        if isinstance(redex, ast.SetAttr):  # ER-ATTR
            if mode is not RENDER:
                raise StuckExpression("box attribute set outside render mode")
            box.append_attr(redex.attr, redex.value)
            return ast.UNIT_VALUE
        if isinstance(redex, ast.Boxed):  # ER-BOXED (nested reduction)
            if mode is not RENDER:
                raise StuckExpression("boxed outside render mode")
            counters = counters if counters is not None else _OccurrenceCounter()
            child = Box(
                box_id=redex.box_id,
                occurrence=counters.next_for(redex.box_id),
            )
            value = self.run(
                redex.body, RENDER, store, box=child, counters=counters
            )
            box.append_child(child)
            return value
        raise StuckExpression("no rule for {!r}".format(redex))

    # -- multi-step drivers ----------------------------------------------------

    def run(self, expr, mode, store, queue=None, box=None, counters=None,
            fuel=DEFAULT_FUEL):
        """Reduce ``expr`` to a value under →µ*, threading the components."""
        from ..resilience.supervisor import Budget

        steps = 0
        try:
            while not expr.is_value():
                steps += 1
                if steps > fuel:
                    Budget.charge(steps, fuel, "small-step")
                expr = self.step(expr, mode, store, queue, box, counters)
        finally:
            # One counter update per run, not per step — the faithful
            # machine is slow enough without per-step bookkeeping.
            self.tracer.add("eval_steps", steps)
        return expr

    # -- Evaluator protocol (what system.transitions consumes) ------------------

    def run_state(self, store, queue, expr, fuel=DEFAULT_FUEL):
        """``(C, S, Q, e) →s* (C, S', Q', v)`` — returns the final value."""
        try:
            return self.run(expr, STATE, store, queue=queue, fuel=fuel)
        except RecursionError:
            raise _too_deep() from None

    def run_render(self, store, expr, fuel=DEFAULT_FUEL):
        """``(C, S, ε, e) →r* (C, S, B, v)`` — returns the root box.

        The root is the paper's implicit top-level box: render code may set
        attributes before entering any ``boxed`` statement.
        """
        root = make_root()
        try:
            self.run(
                expr, RENDER, store, box=root,
                counters=_OccurrenceCounter(), fuel=fuel,
            )
            return root.freeze()
        except RecursionError:
            raise _too_deep() from None

    def run_pure(self, store, expr, fuel=DEFAULT_FUEL):
        """``(C, S, e) →p* (C, S, v)``."""
        return self.run(expr, PURE, store, fuel=fuel)


# ---------------------------------------------------------------------------
# The CEK machine
# ---------------------------------------------------------------------------

# Frame tags.  Frames are plain tuples for speed; the first element is the
# tag, the rest is frame payload.
_F_APP_FN = 0       # (tag, arg_expr)           — evaluating the function
_F_APP_ARG = 1      # (tag, fn_value)           — evaluating the argument
_F_TUPLE = 2        # (tag, done, rest)         — evaluating tuple items
_F_LIST = 3         # (tag, done, rest, elem_t) — evaluating list items
_F_PROJ = 4         # (tag, index)
_F_WRITE = 5        # (tag, global_name)
_F_PUSH = 6         # (tag, page_name)
_F_POST = 7         # (tag,)
_F_ATTR = 8         # (tag, attr_name)
_F_IF = 9           # (tag, then_expr, else_expr)
_F_PRIM = 10        # (tag, op, done, rest)
_F_BOXED = 11       # (tag, parent_box)
_F_MEMO_ARG = 12    # (tag, fun_name, store)   — evaluating a memo call's arg
_F_MEMO_CAP = 13    # (tag, key, box, start)   — capturing a memo call's output


class BigStep:
    """CEK-style evaluator: same semantics as :class:`SmallStep`, one pass.

    Differential tests (``tests/eval/test_differential.py``) assert the two
    machines agree on result values, final stores, queue contents and box
    trees on randomized programs.

    ``memo`` optionally enables render-function memoization (the §5
    self-adjusting-computation sketch; see :mod:`repro.eval.memo`) —
    observable box trees stay structurally identical, asserted by
    ``tests/eval/test_memo.py``.
    """

    def __init__(self, code, natives=EMPTY_NATIVES, services=None, memo=None,
                 tracer=NULL_TRACER):
        if not isinstance(code, Code):
            raise ReproError("BigStep expects Code")
        self.code = code
        self.natives = natives
        self.services = services
        self.memo = memo
        self.tracer = tracer

    def _run(self, expr, mode, store, queue, box, counters, fuel):
        """The machine loop.  ``box`` is the current box in render mode."""
        stack = []
        control = expr
        is_value = control.is_value()
        steps = 0
        try:
            while True:
                steps += 1
                if steps > fuel:
                    from ..resilience.supervisor import Budget

                    Budget.charge(steps, fuel, "big-step")
                if not is_value:
                    control, is_value, box = self._eval(
                        control, mode, store, queue, box, counters, stack
                    )
                    continue
                if not stack:
                    return control
                control, is_value, box = self._apply_frame(
                    stack, control, mode, store, queue, box, counters
                )
        finally:
            # One counter update per machine run keeps the hot loop free
            # of instrumentation (the NullTracer call is a no-op anyway).
            self.tracer.add("eval_steps", steps)

    # -- eval dispatch: control is a non-value expression ------------------------

    def _eval(self, expr, mode, store, queue, box, counters, stack):
        if isinstance(expr, ast.App):
            if (
                self.memo is not None
                and mode is RENDER
                and isinstance(expr.fn, ast.FunRef)
                and self.memo.eligible(expr.fn.name)
            ):
                stack.append((_F_MEMO_ARG, expr.fn.name, store))
                return expr.arg, expr.arg.is_value(), box
            stack.append((_F_APP_FN, expr.arg))
            return expr.fn, expr.fn.is_value(), box
        if isinstance(expr, ast.FunRef):
            definition = self.code.function(expr.name)
            if definition is None:
                raise StuckExpression(
                    "undefined function '{}'".format(expr.name)
                )
            body = definition.body
            return body, body.is_value(), box
        if isinstance(expr, ast.Tuple):
            return self._start_sequence(
                expr.items, (_F_TUPLE,), stack, box
            )
        if isinstance(expr, ast.ListLit):
            return self._start_sequence(
                expr.items, (_F_LIST, expr.element_type), stack, box
            )
        if isinstance(expr, ast.Proj):
            stack.append((_F_PROJ, expr.index))
            target = expr.tuple_expr
            return target, target.is_value(), box
        if isinstance(expr, ast.GlobalRead):
            value = store.lookup(expr.name)
            if value is None:
                definition = self.code.global_(expr.name)
                if definition is None:
                    raise StuckExpression(
                        "undefined global '{}'".format(expr.name)
                    )
                value = definition.init
            return value, True, box
        if isinstance(expr, ast.GlobalWrite):
            if mode is not STATE:
                raise StuckExpression(
                    "assignment to '{}' outside state mode".format(expr.name)
                )
            stack.append((_F_WRITE, expr.name))
            return expr.value, expr.value.is_value(), box
        if isinstance(expr, ast.Push):
            if mode is not STATE:
                raise StuckExpression("push outside state mode")
            stack.append((_F_PUSH, expr.page))
            return expr.arg, expr.arg.is_value(), box
        if isinstance(expr, ast.Pop):
            if mode is not STATE:
                raise StuckExpression("pop outside state mode")
            from ..system.events import PopEvent

            _check_queue(queue).enqueue(PopEvent())
            return ast.UNIT_VALUE, True, box
        if isinstance(expr, ast.Post):
            if mode is not RENDER:
                raise StuckExpression("post outside render mode")
            stack.append((_F_POST,))
            return expr.value, expr.value.is_value(), box
        if isinstance(expr, ast.SetAttr):
            if mode is not RENDER:
                raise StuckExpression("box attribute set outside render mode")
            stack.append((_F_ATTR, expr.attr))
            return expr.value, expr.value.is_value(), box
        if isinstance(expr, ast.Boxed):
            if mode is not RENDER:
                raise StuckExpression("boxed outside render mode")
            child = Box(
                box_id=expr.box_id,
                occurrence=counters.next_for(expr.box_id),
            )
            stack.append((_F_BOXED, box))
            return expr.body, expr.body.is_value(), child
        if isinstance(expr, ast.If):
            stack.append((_F_IF, expr.then_branch, expr.else_branch))
            return expr.cond, expr.cond.is_value(), box
        if isinstance(expr, ast.Prim):
            return self._start_sequence(
                expr.args, (_F_PRIM, expr.op), stack, box, mode=mode
            )
        raise StuckExpression("no rule for {!r}".format(expr))

    def _start_sequence(self, items, frame_head, stack, box, mode=None):
        """Begin left-to-right evaluation of ``items`` (tuple/list/prim args)."""
        done = []
        rest = list(items)
        while rest and rest[0].is_value():
            done.append(rest.pop(0))
        if not rest:
            # Everything is already a value: finish immediately.
            value, box2 = self._finish_sequence(
                frame_head, done, None, mode, box
            )
            return value, True, box2
        first = rest.pop(0)
        stack.append(frame_head + (done, rest))
        return first, False, box

    def _finish_sequence(self, frame_head, done, queue, mode, box):
        tag = frame_head[0]
        if tag == _F_TUPLE:
            return ast.Tuple(tuple(done)), box
        if tag == _F_LIST:
            return ast.ListLit(tuple(done), frame_head[1]), box
        if tag == _F_PRIM:
            op = frame_head[1]
            sig = PRIM_SIGS.get(op) or self.natives.signature(op)
            if sig is None:
                raise StuckExpression("unknown operator '{}'".format(op))
            if sig.effect is not PURE and mode is not sig.effect:
                raise StuckExpression(
                    "operator '{}' has effect {} but mode is {}".format(
                        op, sig.effect, mode
                    )
                )
            result = apply_prim(
                op, tuple(done), natives=self.natives, services=self.services
            )
            return result, box
        raise ReproError("bad sequence frame {!r}".format(frame_head))

    # -- continuation dispatch: control is a value ---------------------------------

    def _apply_frame(self, stack, value, mode, store, queue, box, counters):
        frame = stack.pop()
        tag = frame[0]
        if tag == _F_APP_FN:
            arg = frame[1]
            stack.append((_F_APP_ARG, value))
            return arg, arg.is_value(), box
        if tag == _F_APP_ARG:
            fn = frame[1]
            if not isinstance(fn, ast.Lam):
                raise StuckExpression(
                    "application of a non-function: {!r}".format(fn)
                )
            body = ast.subst(fn.body, fn.param, value)
            return body, body.is_value(), box
        if tag in (_F_TUPLE, _F_LIST, _F_PRIM):
            head = frame[: -2]
            done, rest = frame[-2], frame[-1]
            done = done + [value]
            while rest and rest[0].is_value():
                done.append(rest.pop(0))
            if rest:
                first = rest.pop(0)
                stack.append(head + (done, rest))
                return first, False, box
            result, box2 = self._finish_sequence(head, done, queue, mode, box)
            return result, True, box2
        if tag == _F_PROJ:
            index = frame[1]
            if not isinstance(value, ast.Tuple):
                raise StuckExpression("projection from a non-tuple")
            if index > len(value.items):
                raise StuckExpression(
                    "projection index {} out of range".format(index)
                )
            result = value.items[index - 1]
            return result, True, box
        if tag == _F_WRITE:
            store.assign(frame[1], value)
            return ast.UNIT_VALUE, True, box
        if tag == _F_PUSH:
            from ..system.events import PushEvent

            _check_queue(queue).enqueue(PushEvent(frame[1], value))
            return ast.UNIT_VALUE, True, box
        if tag == _F_POST:
            box.append_leaf(value)
            return ast.UNIT_VALUE, True, box
        if tag == _F_ATTR:
            box.append_attr(frame[1], value)
            return ast.UNIT_VALUE, True, box
        if tag == _F_IF:
            branch = frame[1] if truthy(value) else frame[2]
            return branch, branch.is_value(), box
        if tag == _F_BOXED:
            parent = frame[1]
            parent.append_child(box)
            return value, True, parent
        if tag == _F_MEMO_ARG:
            name = frame[1]
            entry = self.memo.probe(name, value, frame[2])
            if entry is not None:
                box._check_mutable()
                box.items.extend(replay_items(entry.items, counters))
                return entry.value, True, box
            definition = self.code.function(name)
            if definition is None:
                raise StuckExpression(
                    "undefined function '{}'".format(name)
                )
            stack.append(
                (_F_MEMO_CAP, name, value, frame[2], box, len(box.items))
            )
            # Re-enter the normal path with the FunRef already resolved,
            # so this call is not intercepted a second time.
            call = ast.App(definition.body, value)
            return call, False, box
        if tag == _F_MEMO_CAP:
            _tag, name, arg, call_store, captured_box, start = frame
            self.memo.store_result(
                name, arg, call_store, captured_box.items[start:], value
            )
            return value, True, box
        raise ReproError("unknown frame tag {!r}".format(tag))

    # -- Evaluator protocol -------------------------------------------------------

    def run_state(self, store, queue, expr, fuel=DEFAULT_FUEL):
        """``(C, S, Q, e) →s* (C, S', Q', v)`` — returns the final value."""
        return self._run(
            expr, STATE, store, queue, None, _OccurrenceCounter(), fuel
        )

    def run_render(self, store, expr, fuel=DEFAULT_FUEL):
        """``(C, S, ε, e) →r* (C, S, B, v)`` — returns the root box."""
        root = make_root()
        self._run(
            expr, RENDER, store, None, root, _OccurrenceCounter(), fuel
        )
        return root.freeze()

    def run_pure(self, store, expr, fuel=DEFAULT_FUEL):
        """``(C, S, e) →p* (C, S, v)``."""
        return self._run(
            expr, PURE, store, None, None, _OccurrenceCounter(), fuel
        )

