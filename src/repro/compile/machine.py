"""The closure-compiled evaluator — the production machine.

A code version is compiled **once per process**: :func:`compiled_unit`
caches one :class:`CompiledUnit` on the immutable
:class:`~repro.core.defs.Code` value (per native-implementation map),
and every session running that value shares it.  Within a unit, each
definition's closures are kept per definition object and the context
they read — the global slot layout, the native signatures, the
definition's recursive component and the facts of the functions it
names — so a new version reuses the closures of every definition an
edit left alone.  A :class:`Compiled`
evaluator is the thin per-session binding: the shared unit plus the
session's natives, services, memo view and tracer.  Compilation lowers
every expression to a Python closure ``fn(rt, env) -> value`` where

* ``env`` is a flat list — every lambda parameter and let-binder was
  resolved to an integer index at compile time;
* ``rt`` is the per-run mutable context (mode, store, queue, current
  box, occurrence counters, the global *slot cache*, the step/fuel
  accounting shared with the tree machines via
  :meth:`~repro.resilience.supervisor.Budget.charge`, and the session's
  natives, services and memo view).  Closures capture nothing per
  session and no reference back to their unit, so a unit is shared
  without locks and freed by reference counting.

Global reads resolve to integer slots: the first read of a run goes
through :meth:`~repro.system.state.Store.lookup` (so provenance read
logs and write-version stamps are identical to the tree machines) and
caches the value; later reads are a list index.  Writes go through
:meth:`~repro.system.state.Store.assign` (identical version ticks) and
refresh the cache only when a read already populated it — keeping the
run's *first-read* order, and therefore the deduplicated provenance
read set, byte-identical to the tree-walker's.

Tail calls — which every surface-language loop lowers to — return a
:class:`_TailCall` sentinel unwound by a trampoline, so compiled loops
run in constant Python stack exactly like the CEK machine.  Non-tail
calls between functions of one recursive component of the ``FunRef``
call graph (``sum(k) = k + sum(k - 1)``, mutual recursion) run on an
explicit continuation stack instead: those functions compile to
generators that *yield* each such call to a loop (:func:`_run_stack`),
which keeps the suspended callers in a list.  Recursion depth is then
bounded by memory, not by the interpreter's stack, as in the tree
machines.  Every other function compiles to plain closures.  Runtime
values are the closed AST values of :mod:`repro.core.ast` (never a
separate representation): a tuple of locals is built straight from the
env slots, and a lambda value is rebuilt by substituting all its
captured environment values into the original ``Lam`` node in one pass,
which — because whole-program evaluation only ever substitutes *closed*
values, where capture-avoidance never renames — yields the exact AST
the substitution machines produce.  That is what makes
renders, stores, handlers crossing runs through box attributes, and
memo entries indistinguishable across machines.

Faults keep exact parity: every ``StuckExpression`` / ``EvalError``
message matches the tree machines character-for-character (primitive
application defers to the same ``_apply_builtin`` / ``apply_prim``).
The one documented divergence is the *step count* behind
``FuelExhausted``: this machine charges one step per function
application (the only recursion source), so a divergent program still
exhausts any fuel budget, but at a different count than the per-node
machines — differential tests compare fault *types* for fuel and exact
messages for everything else.  Recursion that passes through lambda
*values* (a recursive function handing itself to a higher-order one)
still nests Python frames; past the interpreter's limit it ends in
``FuelExhausted``, never a bare ``RecursionError``.
"""

from __future__ import annotations

from operator import itemgetter

from ..boxes.tree import Box, make_root
from ..core import ast
from ..core.defs import Code, FunDef, PageDef, context_token, def_derived
from ..core.effects import PURE, RENDER, STATE
from ..core.errors import FuelExhausted, ReproError, StuckExpression
from ..core.prims import PRIM_SIGS
from ..eval.machine import DEFAULT_FUEL, _check_queue, _OccurrenceCounter
from ..eval.memo import memo_facts, replay_items
from ..eval.natives import EMPTY_NATIVES, _apply_builtin, apply_prim
from ..eval.values import truthy
from ..obs.trace import NULL_TRACER
from ..resilience.supervisor import Budget
from .calls import (
    RecursionCompiler,
    _Call,
    _call_sites,
    _run_stack,
    _invoke,
    _recursive_components,
    _tail_apply,
    _TailCall,
)

_UNIT = ast.UNIT_VALUE
_Num = ast.Num
_float_num = ast.float_num


class _Run:
    """Mutable per-run context threaded through every compiled closure."""

    __slots__ = (
        "mode", "store", "queue", "box", "counters", "slots", "steps", "fuel",
        "unit", "units", "natives", "services", "memo",
    )

    def __init__(self, mode, store, queue, box, counters, fuel, evaluator):
        unit = evaluator.unit
        self.mode = mode
        self.store = store
        self.queue = queue
        self.box = box
        self.counters = counters
        self.slots = [None] * unit.n_slots
        self.steps = 0
        self.fuel = fuel
        self.unit = unit
        self.units = unit.units
        self.natives = evaluator.natives
        self.services = evaluator.services
        self.memo = evaluator.memo


class _Frame:
    """Compile-time frame layout: allocates env indices for one unit."""

    __slots__ = ("size",)

    def __init__(self, size=0):
        self.size = size

    def bind(self):
        index = self.size
        self.size += 1
        return index

def _definition_shape(definition):
    """What building a unit needs of one definition alone, in one walk.

    Returns ``(lams, refs, bare, sites)``: its lambda nodes by id, the
    names its ``FunRef``\\ s name, whether a ``FunRef`` appears other
    than as a callee (its unit then captures the referenced body itself),
    and — for a function with a lambda body — its direct call sites.
    """
    lams = {}
    refs = set()
    funrefs = calls = 0
    for expr in (
        getattr(definition, field) for field in definition.__slots__
    ):
        if isinstance(expr, ast.Expr):
            for node in ast.walk(expr):
                kind = type(node)
                if kind is ast.Lam:
                    lams[id(node)] = node
                elif kind is ast.FunRef:
                    refs.add(node.name)
                    funrefs += 1
                elif kind is ast.App and type(node.fn) is ast.FunRef:
                    calls += 1
    sites = None
    body = getattr(definition, "body", None)
    if isinstance(definition, FunDef) and isinstance(body, ast.Lam):
        sites = []
        _call_sites(body.body, True, sites)
    return lams, frozenset(refs), funrefs > calls, sites


def compiled_unit(code, natives=EMPTY_NATIVES):
    """The :class:`CompiledUnit` of ``code`` under these native
    implementations — built once, then shared (cached on ``code``)."""
    key = ("compiled",) + tuple(
        (name, id(natives.implementation(name)))
        for name in sorted(natives.names())
    )
    return code.derived(key, lambda code: CompiledUnit(code, natives))


class CompiledUnit(RecursionCompiler):
    """One code version compiled to closures, shared by its sessions.

    Construction compiles every function body and page init/render
    lambda of ``code``; evaluation then never inspects AST nodes on the
    hot path (values are still AST, but flow through untouched).  Only
    native *signatures* are read here; implementations, services and the
    memo view come from each run's context.  The function units never
    change after construction; the code's own lambdas are compiled on
    first application and kept (see :meth:`_lam_unit`).
    """

    def __init__(self, code, natives=EMPTY_NATIVES):
        if not isinstance(code, Code):
            raise ReproError("Compiled expects Code")
        self.natives = natives
        # The unit keeps the definitions, not the ``Code`` value that
        # caches it, so it is not part of a reference cycle.
        self._functions = {d.name: d for d in code.functions()}
        # Global slots: name → integer index, plus the compile-time
        # fallback initializer (EP-GLOBAL-2 reads it when the store has
        # no entry yet — global inits are values by construction).
        self._slot_of = {}
        self._init_of = {}
        for index, definition in enumerate(code.globals()):
            self._slot_of[definition.name] = index
            self._init_of[definition.name] = definition.init
        self.n_slots = len(self._slot_of)
        self._eligible = memo_facts(code).eligible
        #: Function name → ``(run, frame_size, gen)``; ``gen`` is the
        #: generator body of a function in a recursive component (and
        #: ``run`` drives it), else ``None``.
        self.units = {}
        #: The lambda nodes of the code itself (page bodies, handlers
        #: without captures), by identity: the only lambda values whose
        #: units are worth keeping.  Lambdas built at run time (a handler
        #: closing over locals, an edit thunk) are new objects on every
        #: render or keystroke, so their units are compiled per use.
        self._code_lams = {}
        #: id(lam) → (run, frame_size) for applied code lambdas.  Bounded
        #: by the code; written without a lock, since racing threads
        #: compile equivalent units and ``setdefault`` keeps one.
        self._dyn_units = {}
        #: The recursive component whose body is being compiled (only
        #: ever set during construction).
        self._scc = None
        shapes = {
            definition.name: def_derived(
                definition, "unit_shape", _definition_shape
            )
            for definition in code
        }
        components = _recursive_components(
            {
                name: shape[3]
                for name, shape in shapes.items()
                if shape[3] is not None
            },
            self._eligible,
        )
        # A definition's units read the global slot layout, the native
        # signatures, its recursive component and a few facts about the
        # functions it names — so a definition reused from an earlier
        # code version keeps its units while those are unchanged.
        layout = context_token((
            tuple(self._init_of.items()),
            tuple(
                (name, natives.signature(name))
                for name in sorted(natives.names())
            ),
        ))
        for definition in code:
            lams, refs, bare, sites = shapes[definition.name]
            self._code_lams.update(lams)
            if sites is not None:
                component = components.get(definition.name)
                key = ("function_unit", layout, component,
                       self._callee_facts(refs))

                def build(definition, component=component):
                    return self._function_unit(definition.body, component)
            elif isinstance(definition, PageDef):
                key = ("page_units", layout, self._callee_facts(refs))
                build = self._page_units
            else:
                continue
            built = build(definition) if bare else def_derived(
                definition, key, build
            )
            if sites is not None:
                self.units[definition.name] = built
            else:
                self._dyn_units.update(built)

    def _callee_facts(self, names):
        """What compiling a call reads of each named function: whether it
        exists with a lambda body, and whether calls to it are memoized."""
        facts = []
        for name in sorted(names):
            definition = self._functions.get(name)
            facts.append((
                name,
                None if definition is None
                else isinstance(definition.body, ast.Lam),
                name in self._eligible,
            ))
        return tuple(facts)

    def _page_units(self, page):
        """The units of a page's init and render lambdas, by id."""
        return {
            id(lam): self._compile_lam(lam)
            for lam in (page.init, page.render)
            if isinstance(lam, ast.Lam)
        }

    # -- compiled-unit management ---------------------------------------------

    def _function_unit(self, lam, component):
        """Compile one function body (a lambda) to its unit."""
        frame = _Frame(1)
        scope = {lam.param: 0}
        if component is None:
            run = self._compile(lam.body, scope, frame, True)
            return run, frame.size, None
        self._scc = component
        try:
            suspends, body = self._compile_deep(lam.body, scope, frame, True)
        finally:
            self._scc = None
        if suspends:
            gen = body
        else:
            def gen(rt, env):
                return body(rt, env)
                yield  # pragma: no cover - makes this a generator

        def run_driven(rt, env):
            return _run_stack(gen, rt, env)

        return run_driven, frame.size, gen

    def _lam_unit(self, lam):
        """The compiled unit for a lambda *value*.

        A lambda of the code is compiled once and kept, by identity —
        not equality: structurally equal ``Boxed`` nodes can carry
        different ``box_id``s (``box_id`` is ``compare=False``), so
        equal-looking lambdas must not share a unit.
        """
        key = id(lam)
        hit = self._dyn_units.get(key)
        if hit is not None:
            return hit
        unit = self._compile_lam(lam)
        if self._code_lams.get(key) is lam:
            unit = self._dyn_units.setdefault(key, unit)
        return unit

    def _compile_lam(self, lam):
        frame = _Frame(1)
        scope = {lam.param: 0}
        return self._compile(lam.body, scope, frame, True), frame.size

    def _apply_lam(self, lam, value, rt):
        """Apply a lambda value (trampolined; charges one application)."""
        if not isinstance(lam, ast.Lam):
            raise StuckExpression(
                "application of a non-function: {!r}".format(lam)
            )
        run, size = self._lam_unit(lam)
        rt.steps = steps = rt.steps + 1
        if steps > rt.fuel:
            Budget.charge(steps, rt.fuel, "compiled")
        env = [None] * size
        env[0] = value
        return _invoke(run, rt, env)

    # -- the compiler -----------------------------------------------------------

    def _compile(self, expr, scope, frame, tail):
        """Compile ``expr`` to a closure ``fn(rt, env) -> value``.

        ``scope`` maps in-scope variable names to env indices; ``frame``
        allocates indices for let-binders.  Only closures compiled with
        ``tail=True`` may return a :class:`_TailCall`; non-tail
        sub-expressions always trampoline internally.
        """
        if type(expr) is ast.Var:
            index = scope.get(expr.name)
            if index is None:
                # An open variable is a value to the tree machines (the
                # enclosing application substitutes it before it is
                # reached); unbound here means genuinely open — return
                # the node itself, exactly as they would.
                return lambda rt, env: expr
            return lambda rt, env: env[index]
        if expr.is_value():
            return self._compile_value(expr, scope)
        kind = type(expr)
        if kind is ast.App:
            return self._compile_app(expr, scope, frame, tail)
        if kind is ast.GlobalRead:
            return self._compile_read(expr.name)
        if kind is ast.Prim:
            return self._compile_prim(expr, scope, frame)
        if kind is ast.If:
            cond_fn = self._compile(expr.cond, scope, frame, False)
            then_fn = self._compile(expr.then_branch, scope, frame, tail)
            else_fn = self._compile(expr.else_branch, scope, frame, tail)

            def run_if(rt, env):
                if truthy(cond_fn(rt, env)):
                    return then_fn(rt, env)
                return else_fn(rt, env)

            return run_if
        if kind is ast.FunRef:
            return self._compile_funref(expr.name)
        if kind is ast.Proj:
            target_fn = self._compile(expr.tuple_expr, scope, frame, False)
            index = expr.index

            def run_proj(rt, env):
                value = target_fn(rt, env)
                if not isinstance(value, ast.Tuple):
                    raise StuckExpression("projection from a non-tuple")
                if index > len(value.items):
                    raise StuckExpression(
                        "projection index {} out of range".format(index)
                    )
                return value.items[index - 1]

            return run_proj
        if kind is ast.Tuple or kind is ast.ListLit:
            return self._compile_items(expr, scope, frame)
        if kind is ast.GlobalWrite:
            return self._compile_write(expr, scope, frame)
        if kind is ast.Push:
            page = expr.page
            arg_fn = self._compile(expr.arg, scope, frame, False)

            def run_push(rt, env):
                if rt.mode is not STATE:
                    raise StuckExpression("push outside state mode")
                arg = arg_fn(rt, env)
                from ..system.events import PushEvent

                _check_queue(rt.queue).enqueue(PushEvent(page, arg))
                return _UNIT

            return run_push
        if kind is ast.Pop:
            def run_pop(rt, env):
                if rt.mode is not STATE:
                    raise StuckExpression("pop outside state mode")
                from ..system.events import PopEvent

                _check_queue(rt.queue).enqueue(PopEvent())
                return _UNIT

            return run_pop
        if kind is ast.Post:
            value_fn = self._compile(expr.value, scope, frame, False)

            def run_post(rt, env):
                if rt.mode is not RENDER:
                    raise StuckExpression("post outside render mode")
                rt.box.append_leaf(value_fn(rt, env))
                return _UNIT

            return run_post
        if kind is ast.SetAttr:
            attr = expr.attr
            value_fn = self._compile(expr.value, scope, frame, False)

            def run_attr(rt, env):
                if rt.mode is not RENDER:
                    raise StuckExpression(
                        "box attribute set outside render mode"
                    )
                rt.box.append_attr(attr, value_fn(rt, env))
                return _UNIT

            return run_attr
        if kind is ast.Boxed:
            return self._compile_boxed(expr, scope, frame)

        def run_stuck(rt, env):
            raise StuckExpression("no rule for {!r}".format(expr))

        return run_stuck

    def _compile_value(self, expr, scope):
        """A value: constant unless it captures in-scope variables.

        Values may contain free variables (a tuple of locals, a lambda
        body's inner lambda): the tree machines would have substituted
        them by the time the node is reached, so the compiled machine
        fills in the captured environment values here.  A tuple or list
        is built directly from its items — a tuple of locals, such as a
        loop's state or a call's arguments, straight from the env slots.
        A lambda is rebuilt by one :func:`~repro.core.ast.subst_closed`
        pass over all its captured names.  All runtime values are closed,
        so nothing is alpha-renamed and the result is the exact AST the
        substitution machines build one name at a time.
        """
        free = ast.free_vars(expr)
        if not any(name in scope for name in free):
            return lambda rt, env: expr
        kind = type(expr)
        if kind is ast.Tuple:
            slots = [
                scope.get(item.name) for item in expr.items
                if type(item) is ast.Var
            ]
            if len(slots) == len(expr.items) and None not in slots:
                if len(slots) == 1:
                    (slot,) = slots
                    return lambda rt, env: ast.Tuple((env[slot],))
                pick = itemgetter(*slots)
                return lambda rt, env: ast.Tuple(pick(env))
        if kind is ast.Tuple or kind is ast.ListLit:
            return self._compile_items(expr, scope, None)
        captured = tuple(
            (name, scope[name]) for name in free if name in scope
        )

        def run_capture(rt, env):
            return ast.subst_closed(
                expr, {name: env[index] for name, index in captured}
            )

        return run_capture

    def _compile_items(self, expr, scope, frame):
        """A tuple or list literal, built from its items' closures (a
        value's items are values, which never bind, so ``frame`` may
        be None)."""
        item_fns = tuple(
            self._compile(item, scope, frame, False) for item in expr.items
        )
        if type(expr) is ast.Tuple:
            def run_tuple(rt, env):
                return ast.Tuple(tuple(fn(rt, env) for fn in item_fns))

            return run_tuple
        element_type = expr.element_type

        def run_list(rt, env):
            return ast.ListLit(
                tuple(fn(rt, env) for fn in item_fns), element_type
            )

        return run_list

    def _compile_read(self, name):
        slot = self._slot_of.get(name)
        if slot is None:
            # Not declared in this code version: the store may still
            # hold it (EP-GLOBAL-1), otherwise the read is stuck.
            def run_read_unknown(rt, env):
                value = rt.store.lookup(name)
                if value is None:
                    raise StuckExpression(
                        "undefined global '{}'".format(name)
                    )
                return value

            return run_read_unknown
        init = self._init_of[name]

        def run_read(rt, env):
            slots = rt.slots
            value = slots[slot]
            if value is None:
                # First read of this run: go through the store so the
                # provenance read log sees it, then cache.
                value = rt.store.lookup(name)
                if value is None:
                    value = init
                slots[slot] = value
            return value

        return run_read

    def _compile_write(self, expr, scope, frame):
        name = expr.name
        slot = self._slot_of.get(name)
        value_fn = self._compile(expr.value, scope, frame, False)

        def run_write(rt, env):
            if rt.mode is not STATE:
                raise StuckExpression(
                    "assignment to '{}' outside state mode".format(name)
                )
            value = value_fn(rt, env)
            rt.store.assign(name, value)
            if slot is not None and rt.slots[slot] is not None:
                # Refresh only a cache a read already populated — a
                # write must not suppress the *first* read's store
                # lookup, or the provenance read set would shrink.
                rt.slots[slot] = value
            return _UNIT

        return run_write

    def _compile_boxed(self, expr, scope, frame):
        box_id = expr.box_id
        body_fn = self._compile(expr.body, scope, frame, False)

        def run_boxed(rt, env):
            if rt.mode is not RENDER:
                raise StuckExpression("boxed outside render mode")
            child = Box(
                box_id=box_id, occurrence=rt.counters.next_for(box_id)
            )
            parent = rt.box
            rt.box = child
            try:
                value = body_fn(rt, env)
            finally:
                rt.box = parent
            # Reached only on success: a faulting body abandons the
            # child unappended, exactly like the tree machines.
            parent.append_child(child)
            return value

        return run_boxed

    def _compile_funref(self, name):
        """A bare function reference evaluates to its (lambda) body."""
        definition = self._functions.get(name)
        if definition is None:
            def run_undefined(rt, env):
                raise StuckExpression(
                    "undefined function '{}'".format(name)
                )

            return run_undefined
        body = definition.body
        if body.is_value():
            return lambda rt, env: body
        # A non-value body (e.g. an alias FunRef) is its own closed unit.
        frame = _Frame(0)
        run = self._compile(body, {}, frame, False)
        size = frame.size

        def run_funref(rt, env):
            return run(rt, [None] * size)

        return run_funref

    def _compile_app(self, expr, scope, frame, tail):
        fn, arg = expr.fn, expr.arg
        arg_fn = self._compile(arg, scope, frame, False)
        if isinstance(fn, ast.FunRef):
            name = fn.name
            definition = self._functions.get(name)
            if definition is None:
                # The callee is resolved before the argument runs, so
                # the argument's effects must not happen (EP-FUN parity).
                def run_undefined(rt, env):
                    raise StuckExpression(
                        "undefined function '{}'".format(name)
                    )

                return run_undefined
            if isinstance(definition.body, ast.Lam):
                plain = self._compile_fn_call(name, arg_fn, tail)
                if name in self._eligible:
                    return self._compile_memo_call(name, arg_fn, plain)
                return plain
        if isinstance(fn, ast.Lam):
            # A syntactic let: bind the parameter in the current frame —
            # no lambda value is ever built, no substitution happens.
            index = frame.bind()
            shadowed = scope.get(fn.param)
            scope[fn.param] = index
            body_fn = self._compile(fn.body, scope, frame, tail)
            if shadowed is None:
                del scope[fn.param]
            else:
                scope[fn.param] = shadowed

            def run_let(rt, env):
                env[index] = arg_fn(rt, env)
                return body_fn(rt, env)

            return run_let
        fn_fn = self._compile(fn, scope, frame, False)
        if tail:
            def run_app_tail(rt, env):
                return _tail_apply(fn_fn(rt, env), arg_fn(rt, env), rt)

            return run_app_tail

        def run_app(rt, env):
            lam = fn_fn(rt, env)
            value = arg_fn(rt, env)
            return rt.unit._apply_lam(lam, value, rt)

        return run_app

    def _compile_fn_call(self, name, arg_fn, tail):
        """A direct call ``f v`` to a declared function with a Lam body."""
        if tail and self._scc is not None and name in self._scc:
            # A tail call inside a recursive component: the stack loop runs
            # the callee in this body's place.
            def run_call_driven(rt, env):
                value = arg_fn(rt, env)
                rt.steps = steps = rt.steps + 1
                if steps > rt.fuel:
                    Budget.charge(steps, rt.fuel, "compiled")
                run, size, gen = rt.units[name]
                env2 = [None] * size
                env2[0] = value
                return _Call(gen, env2)

            return run_call_driven

        if tail:
            def run_call_tail(rt, env):
                value = arg_fn(rt, env)
                rt.steps = steps = rt.steps + 1
                if steps > rt.fuel:
                    Budget.charge(steps, rt.fuel, "compiled")
                run, size, _ = rt.units[name]
                env2 = [None] * size
                env2[0] = value
                return _TailCall(run, env2)

            return run_call_tail

        def run_call(rt, env):
            value = arg_fn(rt, env)
            rt.steps = steps = rt.steps + 1
            if steps > rt.fuel:
                Budget.charge(steps, rt.fuel, "compiled")
            run, size, _ = rt.units[name]
            env2 = [None] * size
            env2[0] = value
            return _invoke(run, rt, env2)

        return run_call

    def _compile_memo_call(self, name, arg_fn, plain):
        """Memo interception for an eligible render-function call site.

        Mirrors the CEK machine's ``_F_MEMO_ARG`` / ``_F_MEMO_CAP``
        frames: probe after the argument is evaluated; on a hit replay
        the cached box items (renumbered through this run's occurrence
        counters); on a miss run the body and capture the items it
        appended to the current box.  Never a tail call — the capture
        happens after the body returns.  Runs without a memo view (a
        probe's private evaluator) take the plain call.
        """
        def run_memo(rt, env):
            memo = rt.memo
            if memo is None or rt.mode is not RENDER:
                return plain(rt, env)
            value = arg_fn(rt, env)
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
            run, size, _ = rt.units[name]
            env2 = [None] * size
            env2[0] = value
            result = _invoke(run, rt, env2)
            memo.store_result(
                name, value, rt.store, box.items[start:], result
            )
            return result

        return run_memo

    def _compile_prim(self, expr, scope, frame):
        op = expr.op
        arg_fns = tuple(
            self._compile(arg, scope, frame, False) for arg in expr.args
        )
        sig = self._signature(op)
        if sig is None:
            # Unknown operator: still evaluate the arguments first, as
            # the sequence machinery of the tree machines does.
            def run_unknown(rt, env):
                for fn in arg_fns:
                    fn(rt, env)
                raise StuckExpression("unknown operator '{}'".format(op))

            return run_unknown
        effect = sig.effect
        if op in PRIM_SIGS:
            fast = _FAST_BUILTINS.get(op)
            if fast is not None and len(arg_fns) == 2 and effect is PURE:
                first_fn, second_fn = arg_fns

                def run_fast(rt, env):
                    return fast(first_fn(rt, env), second_fn(rt, env))

                return run_fast

            if effect is PURE:
                return _pure_builtin(op, arg_fns)

            def run_builtin_effect(rt, env):
                args = tuple(fn(rt, env) for fn in arg_fns)
                if rt.mode is not effect:
                    raise StuckExpression(
                        "operator '{}' has effect {} but mode is {}".format(
                            op, effect, rt.mode
                        )
                    )
                return _apply_builtin(op, args)

            return run_builtin_effect
        def run_native(rt, env):
            args = tuple(fn(rt, env) for fn in arg_fns)
            if effect is not PURE and rt.mode is not effect:
                raise StuckExpression(
                    "operator '{}' has effect {} but mode is {}".format(
                        op, effect, rt.mode
                    )
                )
            return apply_prim(
                op, args, natives=rt.natives, services=rt.services
            )

        return run_native

    def _signature(self, op):
        return PRIM_SIGS.get(op) or self.natives.signature(op)


def _pure_builtin(op, arg_fns):
    """The closure of a pure builtin application: one per arity up to
    three, so a call builds its argument tuple without a generator."""
    if len(arg_fns) == 1:
        (only_fn,) = arg_fns

        def run_builtin(rt, env):
            return _apply_builtin(op, (only_fn(rt, env),))
    elif len(arg_fns) == 2:
        first_fn, second_fn = arg_fns

        def run_builtin(rt, env):
            return _apply_builtin(op, (first_fn(rt, env),
                                       second_fn(rt, env)))
    elif len(arg_fns) == 3:
        first_fn, second_fn, third_fn = arg_fns

        def run_builtin(rt, env):
            return _apply_builtin(op, (first_fn(rt, env), second_fn(rt, env),
                                       third_fn(rt, env)))
    else:
        def run_builtin(rt, env):
            return _apply_builtin(op, tuple([fn(rt, env) for fn in arg_fns]))
    return run_builtin


class Compiled:
    """The compiled machine for one session: same evaluator protocol,
    closures not trees.

    Construction looks up (or, the first time, builds) the shared
    :class:`CompiledUnit` of ``code`` and binds it to this session's
    natives, services, memo view and tracer; each run hands those to the
    closures through its :class:`_Run` context.
    """

    def __init__(self, code, natives=EMPTY_NATIVES, services=None, memo=None,
                 tracer=NULL_TRACER):
        if not isinstance(code, Code):
            raise ReproError("Compiled expects Code")
        self.code = code
        self.unit = compiled_unit(code, natives)
        self.natives = natives
        self.services = services
        self.memo = memo
        self.tracer = tracer

    def _run(self, expr, mode, store, queue, box, counters, fuel):
        rt = _Run(mode, store, queue, box, counters, fuel, self)
        unit = self.unit
        try:
            # The system's entry shapes are `App(lam, value)` (THUNK /
            # PUSH / RENDER all apply a page or handler lambda), which
            # hits the identity-cached unit for the lambda.  Anything
            # else (probes, tests) compiles as a one-shot unit.
            if (
                type(expr) is ast.App
                and isinstance(expr.fn, ast.Lam)
                and expr.arg.is_value()
            ):
                return unit._apply_lam(expr.fn, expr.arg, rt)
            frame = _Frame(0)
            run = unit._compile(expr, {}, frame, False)
            return _invoke(run, rt, [None] * frame.size)
        except RecursionError:
            # Recursion through lambda values nests Python frames; past
            # the interpreter's limit the run is out of a resource, like
            # fuel.
            raise FuelExhausted(
                "evaluation exceeded the compiled machine's stack depth "
                "(recursion through lambda values too deep)"
            ) from None
        finally:
            self.tracer.add("eval_steps", rt.steps)

    # -- Evaluator protocol -----------------------------------------------------

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


def _make_fast_builtins():
    """Inline bodies for the hottest pure binary builtins.

    Each fast path handles the well-typed case and falls back to
    ``_apply_builtin`` for anything else, so error messages (and any
    future semantics tweaks to the slow path) stay authoritative.
    """
    from ..eval.natives import bool_value

    def fast_add(a, b):
        if type(a) is _Num and type(b) is _Num:
            return _float_num(a.value + b.value)
        return _apply_builtin("add", (a, b))

    def fast_sub(a, b):
        if type(a) is _Num and type(b) is _Num:
            return _float_num(a.value - b.value)
        return _apply_builtin("sub", (a, b))

    def fast_mul(a, b):
        if type(a) is _Num and type(b) is _Num:
            return _float_num(a.value * b.value)
        return _apply_builtin("mul", (a, b))

    def fast_lt(a, b):
        if type(a) is _Num and type(b) is _Num:
            return bool_value(a.value < b.value)
        return _apply_builtin("lt", (a, b))

    def fast_le(a, b):
        if type(a) is _Num and type(b) is _Num:
            return bool_value(a.value <= b.value)
        return _apply_builtin("le", (a, b))

    def fast_gt(a, b):
        if type(a) is _Num and type(b) is _Num:
            return bool_value(a.value > b.value)
        return _apply_builtin("gt", (a, b))

    def fast_ge(a, b):
        if type(a) is _Num and type(b) is _Num:
            return bool_value(a.value >= b.value)
        return _apply_builtin("ge", (a, b))

    def fast_concat(a, b):
        if type(a) is ast.Str and type(b) is ast.Str:
            return ast.Str(a.value + b.value)
        return _apply_builtin("concat", (a, b))

    return {
        "add": fast_add,
        "sub": fast_sub,
        "mul": fast_mul,
        "lt": fast_lt,
        "le": fast_le,
        "gt": fast_gt,
        "ge": fast_ge,
        "concat": fast_concat,
    }


_FAST_BUILTINS = _make_fast_builtins()
