"""Lowering: annotated surface programs → the core calculus of Fig. 6.

This implements exactly the desugaring the paper describes for its own
surface syntax (§4.1): "Loops are expressible in our calculus via
recursion through global functions, conditionals via lambda abstractions
and thunks."  Concretely:

* **statement sequencing** becomes let-chains
  (``let _ = e1 in e2`` ≡ ``(λ_. e2) e1``);
* **mutable locals** become shadowing lets in straight-line code and
  *loop-carried tuple components* across loops and conditionals;
* **every loop** (``while``, ``for-in``, ``for-range``) becomes a
  generated, tail-recursive global function whose parameter tuple carries
  the loop state — the free locals it reads plus the locals it mutates;
  the CEK machine runs these in constant stack;
* **records** erase to tuples, field access to 1-based projection;
* **handlers** (``on tap``/``on edit``) become ``box.ontap := λ…`` with a
  state-effect lambda — closing over the surrounding locals by value,
  which is why the checker freezes outer locals inside handler bodies;
* **function calls** pass a single argument tuple (the calculus has
  unary functions; "we use tuples to simplify the passing of multiple
  values").

The output is checked by the core Fig. 10 checker, so any lowering bug
surfaces as a core type error rather than silent misbehaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import ast as C
from ..core.defs import Code, FunDef, GlobalDef, PageDef
from ..core.effects import PURE, RENDER, STATE
from ..core.errors import ReproError
from ..core.names import ATTR_EDITABLE, ATTR_ONEDIT, ATTR_ONTAP
from ..core.types import FunType, STRING, TupleType, UNIT
from . import surface_ast as S


@dataclass
class LoweredProgram:
    """Result of lowering: core code plus the extern signatures."""

    code: Code
    extern_sigs: list  # of repro.core.prims.PrimSig
    generated_functions: list  # names of synthesized loop functions


@dataclass
class LoweredDecl:
    """One declaration's share of a :class:`LoweredProgram`."""

    definition: object  # its core Def; None for records and externs
    generated: tuple    # the loop functions it generated, in order
    extern_sig: object  # its PrimSig for an extern, else None


def lower_program(program, env):
    """Lower a *typechecked* surface program.

    ``env`` must be the :class:`~repro.surface.resolve.ProgramEnv` the
    checker annotated the AST against.  The program's definitions come
    in declaration order, followed by every generated loop function.
    """
    defs = []
    generated = []
    extern_sigs = []
    for decl in program.decls:
        lowered = lower_decl(decl, env)
        if lowered.definition is not None:
            defs.append(lowered.definition)
        if lowered.extern_sig is not None:
            extern_sigs.append(lowered.extern_sig)
        generated.extend(lowered.generated)
    return LoweredProgram(
        Code(defs + generated),
        extern_sigs,
        [d.name for d in generated],
    )


def lower_decl(decl, env):
    """Lower one typechecked declaration against ``env``.

    Fresh binders and loop-function names are drawn per declaration (a
    loop function is named after its declaration), so the result depends
    on this declaration and ``env`` alone: an edit elsewhere in the
    program renames nothing here.
    """
    ctx = _Lowerer(env, getattr(decl, "name", ""))
    definition = extern_sig = None
    if isinstance(decl, S.DGlobal):
        definition = ctx.lower_global(decl)
    elif isinstance(decl, S.DFun):
        definition = ctx.lower_fun(decl)
    elif isinstance(decl, S.DPage):
        definition = ctx.lower_page(decl)
    elif isinstance(decl, S.DExtern):
        extern_sig = extern_signature(decl, env)
    elif not isinstance(decl, S.DRecord):  # records erase entirely
        raise ReproError("cannot lower {!r}".format(decl))
    return LoweredDecl(definition, tuple(ctx.generated), extern_sig)


def extern_signature(decl, env):
    """The native signature an ``extern fun`` declaration declares."""
    from ..core.prims import PrimSig

    sig = env.externs[decl.name]
    return PrimSig(
        decl.name,
        tuple(t.to_core(env.records) for t in sig.param_stypes),
        sig.return_stype.to_core(env.records),
        sig.effect,
        doc="extern fun declared at {}".format(decl.span),
    )


# ---------------------------------------------------------------------------
# free/assigned local analysis (drives loop-state construction)
# ---------------------------------------------------------------------------


def _expr_local_reads(expr, bound, acc):
    if isinstance(expr, S.EVar):
        if expr.resolution == "local" and expr.name not in bound:
            if expr.name not in acc:
                acc.append(expr.name)
        return
    for child in _children_of(expr):
        _expr_local_reads(child, bound, acc)


def _children_of(expr):
    if isinstance(expr, S.ECall):
        return expr.args
    if isinstance(expr, S.EField):
        return (expr.target,)
    if isinstance(expr, S.EBinOp):
        return (expr.left, expr.right)
    if isinstance(expr, S.EUnOp):
        return (expr.operand,)
    if isinstance(expr, S.EListLit):
        return expr.items
    return ()


def _block_local_reads(block, bound, acc):
    bound = set(bound)
    for stmt in block.stmts:
        _stmt_local_reads(stmt, bound, acc)


def _stmt_local_reads(stmt, bound, acc):
    if isinstance(stmt, S.SVarDecl):
        _expr_local_reads(stmt.value, bound, acc)
        bound.add(stmt.name)
    elif isinstance(stmt, S.SAssign):
        _expr_local_reads(stmt.value, bound, acc)
        if stmt.resolution == "local" and stmt.name not in bound:
            # The loop must carry a local it writes even if it never
            # reads it: the updated value flows out through the state
            # tuple.
            if stmt.name not in acc:
                acc.append(stmt.name)
    elif isinstance(stmt, S.SIf):
        _expr_local_reads(stmt.cond, bound, acc)
        _block_local_reads(stmt.then_block, bound, acc)
        if stmt.else_block is not None:
            _block_local_reads(stmt.else_block, bound, acc)
    elif isinstance(stmt, S.SForIn):
        _expr_local_reads(stmt.list_expr, bound, acc)
        _block_local_reads(stmt.body, bound | {stmt.var}, acc)
    elif isinstance(stmt, S.SForRange):
        _expr_local_reads(stmt.from_expr, bound, acc)
        _expr_local_reads(stmt.to_expr, bound, acc)
        _block_local_reads(stmt.body, bound | {stmt.var}, acc)
    elif isinstance(stmt, S.SWhile):
        _expr_local_reads(stmt.cond, bound, acc)
        _block_local_reads(stmt.body, bound, acc)
    elif isinstance(stmt, S.SBoxed):
        _block_local_reads(stmt.body, bound, acc)
    elif isinstance(stmt, (S.SPost, S.SSetAttr, S.SExprStmt)):
        _expr_local_reads(stmt.value, bound, acc)
    elif isinstance(stmt, S.SHandler):
        handler_bound = bound | ({stmt.param} if stmt.param else set())
        _block_local_reads(stmt.body, handler_bound, acc)
    elif isinstance(stmt, S.SPush):
        for arg in stmt.args:
            _expr_local_reads(arg, bound, acc)
    elif isinstance(stmt, S.SReturn):
        if stmt.value is not None:
            _expr_local_reads(stmt.value, bound, acc)
    elif isinstance(stmt, (S.SPop, S.SEditable)):
        pass
    else:
        raise ReproError("cannot analyze {!r}".format(stmt))


def _block_assigned_outer(block, bound, acc):
    """Locals assigned in ``block`` that are declared outside it."""
    bound = set(bound)
    for stmt in block.stmts:
        if isinstance(stmt, S.SVarDecl):
            bound.add(stmt.name)
        elif isinstance(stmt, S.SAssign):
            if stmt.resolution == "local" and stmt.name not in bound:
                if stmt.name not in acc:
                    acc.append(stmt.name)
        elif isinstance(stmt, S.SIf):
            _block_assigned_outer(stmt.then_block, bound, acc)
            if stmt.else_block is not None:
                _block_assigned_outer(stmt.else_block, bound, acc)
        elif isinstance(stmt, (S.SForIn, S.SForRange, S.SWhile)):
            loop_bound = bound | {getattr(stmt, "var", None)} - {None}
            _block_assigned_outer(stmt.body, loop_bound, acc)
        elif isinstance(stmt, S.SBoxed):
            _block_assigned_outer(stmt.body, bound, acc)
        # Handler bodies cannot assign outer locals (checker freezes them).
    return acc


# ---------------------------------------------------------------------------
# the lowerer
# ---------------------------------------------------------------------------


class _LowerScope:
    """Tracks surface locals in scope with their core types."""

    def __init__(self):
        self._frames = [{}]

    def push(self):
        self._frames.append({})

    def pop(self):
        self._frames.pop()

    def declare(self, name, core_type):
        self._frames[-1][name] = core_type

    def core_type(self, name):
        for frame in reversed(self._frames):
            if name in frame:
                return frame[name]
        raise ReproError("local '{}' not in lowering scope".format(name))


class _Lowerer:
    def __init__(self, env, owner):
        self.env = env
        self.records = env.records
        self.owner = owner
        self.generated = []
        self._loop_counter = 0
        self._name_counter = 0

    def _fresh(self, base):
        """Deterministic fresh names: compiling the same source twice
        yields structurally identical core code (the fix-and-continue
        baseline and the reuse optimization both rely on comparing
        compiled artifacts).  The ``%`` keeps them disjoint from source
        identifiers, like :func:`repro.core.ast.fresh_name`."""
        self._name_counter += 1
        return "{}%{}".format(base, self._name_counter)

    # -- helpers -------------------------------------------------------------

    def core(self, stype):
        return stype.to_core(self.records)

    def _let(self, name, bound, bound_type, body, effect):
        """``let name : bound_type = bound in body`` via EP-APP."""
        return C.App(C.Lam(name, bound_type, body, effect), bound)

    def _discard(self, bound, bound_type, body, effect):
        return self._let(self._fresh("seq"), bound, bound_type, body, effect)

    def _param_tuple_type(self, stypes):
        return TupleType(tuple(self.core(t) for t in stypes))

    def _bind_params(self, arg_var, names, stypes, body, effect):
        """Prefix ``body`` with ``let p_i = arg.i`` bindings."""
        for index in reversed(range(len(names))):
            body = self._let(
                names[index],
                C.Proj(C.Var(arg_var), index + 1),
                self.core(stypes[index]),
                body,
                effect,
            )
        return body

    # -- declarations -------------------------------------------------------------

    def lower_global(self, decl):
        sig = self.env.globals[decl.name]
        value = self.lower_const(decl.init)
        return GlobalDef(decl.name, self.core(sig.stype), value)

    def lower_const(self, expr):
        """Lower a constant initializer to a core *value* (folds unary minus)."""
        if isinstance(expr, S.EUnOp) and expr.op == "-":
            inner = self.lower_const(expr.operand)
            if isinstance(inner, C.Num):
                return C.Num(-inner.value)
            raise ReproError("non-constant negation in initializer")
        value = self.lower_expr(expr, _LowerScope(), PURE)
        if not value.is_value():
            raise ReproError(
                "initializer did not lower to a value: {!r}".format(expr)
            )
        return value

    def lower_fun(self, decl):
        sig = self.env.funs[decl.name]
        effect = sig.effect or PURE
        arg_type = self._param_tuple_type(sig.param_stypes)
        return_type = self.core(sig.return_stype)
        scope = _LowerScope()
        for name, stype in zip(sig.param_names, sig.param_stypes):
            scope.declare(name, self.core(stype))
        arg_var = self._fresh("args")
        body = self.lower_block(decl.body, scope, effect, C.UNIT_VALUE)
        body = self._bind_params(
            arg_var, sig.param_names, sig.param_stypes, body, effect
        )
        lam = C.Lam(arg_var, arg_type, body, effect)
        return FunDef(decl.name, FunType(arg_type, return_type, effect), lam)

    def lower_page(self, decl):
        sig = self.env.pages[decl.name]
        arg_type = self._param_tuple_type(sig.param_stypes)

        def page_body(block, effect):
            scope = _LowerScope()
            for name, stype in zip(sig.param_names, sig.param_stypes):
                scope.declare(name, self.core(stype))
            arg_var = self._fresh("page")
            if block is None:
                body = C.UNIT_VALUE
            else:
                body = self.lower_block(block, scope, effect, C.UNIT_VALUE)
            body = self._bind_params(
                arg_var, sig.param_names, sig.param_stypes, body, effect
            )
            return C.Lam(arg_var, arg_type, body, effect)

        return PageDef(
            decl.name,
            arg_type,
            page_body(decl.init_block, STATE),
            page_body(decl.render_block, RENDER),
        )

    # -- statements ------------------------------------------------------------------

    def lower_block(self, block, scope, effect, k):
        """Lower ``block`` with continuation ``k`` (evaluated afterwards)."""
        scope.push()
        try:
            return self._lower_stmts(block.stmts, scope, effect, k)
        finally:
            scope.pop()

    def _lower_stmts(self, stmts, scope, effect, k):
        if not stmts:
            return k
        head = stmts[0]
        # ``return`` consumes the continuation; the checker guarantees it
        # is the final statement of a function body.
        if isinstance(head, S.SReturn):
            if head.value is None:
                return C.UNIT_VALUE
            return self.lower_expr(head.value, scope, effect)
        rest = lambda: self._lower_stmts(stmts[1:], scope, effect, k)
        return self._lower_stmt(head, scope, effect, rest)

    def _lower_stmt(self, stmt, scope, effect, rest):
        if isinstance(stmt, S.SVarDecl):
            value = self.lower_expr(stmt.value, scope, effect)
            core_type = self.core(stmt.value.stype)
            scope.declare(stmt.name, core_type)
            return self._let(stmt.name, value, core_type, rest(), effect)
        if isinstance(stmt, S.SAssign):
            value = self.lower_expr(stmt.value, scope, effect)
            if stmt.resolution == "local":
                core_type = scope.core_type(stmt.name)
                return self._let(stmt.name, value, core_type, rest(), effect)
            return self._discard(
                C.GlobalWrite(stmt.name, value), UNIT, rest(), effect
            )
        if isinstance(stmt, S.SExprStmt):
            value = self.lower_expr(stmt.value, scope, effect)
            return self._discard(
                value, self.core(stmt.value.stype), rest(), effect
            )
        if isinstance(stmt, S.SPost):
            return self._discard(
                C.Post(self.lower_expr(stmt.value, scope, effect)),
                UNIT, rest(), effect,
            )
        if isinstance(stmt, S.SSetAttr):
            return self._discard(
                C.SetAttr(
                    stmt.attr, self.lower_expr(stmt.value, scope, effect)
                ),
                UNIT, rest(), effect,
            )
        if isinstance(stmt, S.SBoxed):
            # Assignments to outer locals inside the boxed body must flow
            # out.  Rule ER-BOXED returns the body's value (``E[v]``), so
            # the body yields the tuple of mutated locals, which is
            # rebound around the continuation — same strategy as ``if``.
            mutated = []
            _block_assigned_outer(stmt.body, set(), mutated)
            if not mutated:
                inner = self.lower_block(
                    stmt.body, scope, effect, C.UNIT_VALUE
                )
                return self._discard(
                    C.Boxed(inner, box_id=stmt.box_id), UNIT, rest(), effect
                )
            result_type = TupleType(
                tuple(scope.core_type(name) for name in mutated)
            )
            inner = self.lower_block(
                stmt.body, scope, effect,
                C.Tuple(tuple(C.Var(name) for name in mutated)),
            )
            return self._rebind_from_tuple(
                C.Boxed(inner, box_id=stmt.box_id),
                result_type, mutated, scope, effect, rest(),
            )
        if isinstance(stmt, S.SEditable):
            # Desugar ``editable g`` (see surface_ast.SEditable): display
            # the global, mark the box editable, and register an onedit
            # handler writing the parsed text back.
            sig = self.env.globals[stmt.name]
            is_number = sig.stype == S.S_NUMBER
            text_var = self._fresh("t")
            new_value = (
                C.Prim("num_of_str", (C.Var(text_var),))
                if is_number
                else C.Var(text_var)
            )
            handler = C.Lam(
                text_var, STRING,
                C.GlobalWrite(stmt.name, new_value), STATE,
            )
            pieces = rest()
            for piece in (
                C.SetAttr(ATTR_ONEDIT, handler),
                C.SetAttr(ATTR_EDITABLE, C.Num(1)),
                C.Post(C.GlobalRead(stmt.name)),
            ):
                pieces = self._discard(piece, UNIT, pieces, effect)
            return pieces
        if isinstance(stmt, S.SHandler):
            if stmt.kind == "tap":
                attr, param, param_type = ATTR_ONTAP, self._fresh("u"), UNIT
            else:
                attr, param, param_type = ATTR_ONEDIT, stmt.param, STRING
            scope.push()
            try:
                if stmt.kind == "edit":
                    scope.declare(param, STRING)
                body = self.lower_block(stmt.body, scope, STATE, C.UNIT_VALUE)
            finally:
                scope.pop()
            handler = C.Lam(param, param_type, body, STATE)
            return self._discard(
                C.SetAttr(attr, handler), UNIT, rest(), effect
            )
        if isinstance(stmt, S.SPush):
            args = C.Tuple(
                tuple(
                    self.lower_expr(arg, scope, effect) for arg in stmt.args
                )
            )
            return self._discard(
                C.Push(stmt.page, args), UNIT, rest(), effect
            )
        if isinstance(stmt, S.SPop):
            return self._discard(C.Pop(), UNIT, rest(), effect)
        if isinstance(stmt, S.SIf):
            return self._lower_if(stmt, scope, effect, rest)
        if isinstance(stmt, S.SWhile):
            return self._lower_loop(
                stmt, scope, effect, rest, kind="while"
            )
        if isinstance(stmt, S.SForRange):
            return self._lower_loop(
                stmt, scope, effect, rest, kind="range"
            )
        if isinstance(stmt, S.SForIn):
            return self._lower_loop(
                stmt, scope, effect, rest, kind="forin"
            )
        raise ReproError("cannot lower statement {!r}".format(stmt))

    # -- conditionals --------------------------------------------------------------

    def _lower_if(self, stmt, scope, effect, rest):
        cond = self.lower_expr(stmt.cond, scope, effect)
        mutated = []
        _block_assigned_outer(stmt.then_block, set(), mutated)
        if stmt.else_block is not None:
            _block_assigned_outer(stmt.else_block, set(), mutated)
        if not mutated:
            then_branch = self.lower_block(
                stmt.then_block, scope, effect, C.UNIT_VALUE
            )
            else_branch = (
                self.lower_block(stmt.else_block, scope, effect, C.UNIT_VALUE)
                if stmt.else_block is not None
                else C.UNIT_VALUE
            )
            return self._discard(
                C.If(cond, then_branch, else_branch), UNIT, rest(), effect
            )
        # Branches mutate outer locals: each branch yields the tuple of
        # their final values, which is rebound around the continuation.
        result_vars = tuple(C.Var(name) for name in mutated)
        result_type = TupleType(
            tuple(scope.core_type(name) for name in mutated)
        )
        then_branch = self.lower_block(
            stmt.then_block, scope, effect, C.Tuple(result_vars)
        )
        else_branch = (
            self.lower_block(
                stmt.else_block, scope, effect, C.Tuple(result_vars)
            )
            if stmt.else_block is not None
            else C.Tuple(result_vars)
        )
        joined = C.If(cond, then_branch, else_branch)
        return self._rebind_from_tuple(
            joined, result_type, mutated, scope, effect, rest()
        )

    def _rebind_from_tuple(
        self, tuple_expr, tuple_type, names, scope, effect, continuation,
        offset=0,
    ):
        """``let t = tuple_expr in let n_i = t.(i+offset) in continuation``."""
        temp = self._fresh("st")
        body = continuation
        for index in reversed(range(len(names))):
            body = self._let(
                names[index],
                C.Proj(C.Var(temp), index + 1 + offset),
                tuple_type.elements[index + offset],
                body,
                effect,
            )
        return self._let(temp, tuple_expr, tuple_type, body, effect)

    # -- loops -------------------------------------------------------------------------

    def _fresh_loop_name(self, kind):
        self._loop_counter += 1
        return "${}_{}_{}".format(kind, self.owner, self._loop_counter)

    def _loop_state(self, stmt, scope, kind):
        """The loop-carried surface locals: free reads ∪ mutated, ordered."""
        reads = []
        mutated = []
        body_bound = set()
        if kind == "while":
            _expr_local_reads(stmt.cond, set(), reads)
        elif kind == "range":
            body_bound = {stmt.var}
        elif kind == "forin":
            body_bound = {stmt.var}
        _block_local_reads(stmt.body, body_bound, reads)
        _block_assigned_outer(stmt.body, body_bound, mutated)
        state = list(reads)
        for name in mutated:
            if name not in state:
                state.append(name)
        return state, mutated

    def _lower_loop(self, stmt, scope, effect, rest, kind):
        """Generate the tail-recursive global function for one loop.

        State tuple layout: ``(controls..., locals...)`` where controls are
        the loop's own counters (none for ``while``; ``(i, limit)`` for
        ranges; ``(i, xs)`` for for-in) and locals are the carried surface
        variables.  The function returns the final state tuple; mutated
        locals are rebound from it around the continuation.
        """
        fun_name = self._fresh_loop_name(kind)
        state_names, mutated = self._loop_state(stmt, scope, kind)
        local_types = [scope.core_type(name) for name in state_names]

        if kind == "while":
            control_names = []
            control_types = []
        elif kind == "range":
            control_names = [stmt.var, self._fresh("limit")]
            control_types = [
                self.core(S.S_NUMBER), self.core(S.S_NUMBER),
            ]
        else:  # forin
            control_names = [self._fresh("idx"), self._fresh("xs")]
            list_core = self.core(stmt.list_expr.stype)
            control_types = [self.core(S.S_NUMBER), list_core]

        all_names = control_names + state_names
        all_types = control_types + local_types
        state_type = TupleType(tuple(all_types))
        fun_type = FunType(state_type, state_type, effect)

        # --- build the generated function's body -------------------------
        body_scope = _LowerScope()
        for name, core_type in zip(all_names, all_types):
            body_scope.declare(name, core_type)

        def current_state(next_controls):
            return C.Tuple(
                tuple(next_controls)
                + tuple(C.Var(name) for name in state_names)
            )

        if kind == "while":
            cond = self.lower_expr(stmt.cond, body_scope, effect)
            tail = C.App(C.FunRef(fun_name), current_state([]))
            body = self.lower_block(stmt.body, body_scope, effect, tail)
            stop = current_state([])
        elif kind == "range":
            loop_var, limit_var = control_names
            cond = C.Prim("le", (C.Var(loop_var), C.Var(limit_var)))
            tail = C.App(
                C.FunRef(fun_name),
                current_state(
                    [
                        C.Prim("add", (C.Var(loop_var), C.Num(1))),
                        C.Var(limit_var),
                    ]
                ),
            )
            body = self.lower_block(stmt.body, body_scope, effect, tail)
            stop = current_state([C.Var(loop_var), C.Var(limit_var)])
        else:  # forin
            idx_var, xs_var = control_names
            cond = C.Prim(
                "lt",
                (C.Var(idx_var), C.Prim("list_length", (C.Var(xs_var),))),
            )
            tail = C.App(
                C.FunRef(fun_name),
                current_state(
                    [
                        C.Prim("add", (C.Var(idx_var), C.Num(1))),
                        C.Var(xs_var),
                    ]
                ),
            )
            body_scope.push()
            element_type = self.core(stmt.list_expr.stype.element)
            body_scope.declare(stmt.var, element_type)
            inner = self.lower_block(stmt.body, body_scope, effect, tail)
            body_scope.pop()
            body = self._let(
                stmt.var,
                C.Prim("list_get", (C.Var(xs_var), C.Var(idx_var))),
                element_type,
                inner,
                effect,
            )
            stop = current_state([C.Var(idx_var), C.Var(xs_var)])

        state_var = self._fresh("state")
        fn_body = C.If(cond, body, stop)
        for index in reversed(range(len(all_names))):
            fn_body = self._let(
                all_names[index],
                C.Proj(C.Var(state_var), index + 1),
                all_types[index],
                fn_body,
                effect,
            )
        self.generated.append(
            FunDef(
                fun_name,
                fun_type,
                C.Lam(state_var, state_type, fn_body, effect),
            )
        )

        # --- the call site ------------------------------------------------
        if kind == "while":
            initial_controls = []
        elif kind == "range":
            initial_controls = [
                self.lower_expr(stmt.from_expr, scope, effect),
                self.lower_expr(stmt.to_expr, scope, effect),
            ]
        else:
            initial_controls = [
                C.Num(0),
                self.lower_expr(stmt.list_expr, scope, effect),
            ]
        initial = C.Tuple(
            tuple(initial_controls)
            + tuple(C.Var(name) for name in state_names)
        )
        call = C.App(C.FunRef(fun_name), initial)
        if not mutated:
            return self._discard(call, state_type, rest(), effect)
        # Rebind every mutated local from its position in the final state.
        offset = len(control_names)
        positions = [state_names.index(name) for name in mutated]
        temp = self._fresh("st")
        body = rest()
        for name, position in reversed(list(zip(mutated, positions))):
            body = self._let(
                name,
                C.Proj(C.Var(temp), offset + position + 1),
                local_types[position],
                body,
                effect,
            )
        return self._let(temp, call, state_type, body, effect)

    # -- expressions ---------------------------------------------------------------------

    def lower_expr(self, expr, scope, effect):
        if isinstance(expr, S.ENum):
            return C.Num(expr.value)
        if isinstance(expr, S.EStr):
            return C.Str(expr.value)
        if isinstance(expr, S.EBool):
            return C.Num(1.0 if expr.value else 0.0)
        if isinstance(expr, S.EVar):
            if expr.resolution == "local":
                return C.Var(expr.name)
            if expr.resolution == "global":
                return C.GlobalRead(expr.name)
            raise ReproError(
                "unresolved variable '{}' (typecheck first)".format(expr.name)
            )
        if isinstance(expr, S.ECall):
            args = tuple(
                self.lower_expr(arg, scope, effect) for arg in expr.args
            )
            if expr.target_kind == "record":
                return C.Tuple(args)
            if expr.target_kind == "fun":
                return C.App(C.FunRef(expr.name), C.Tuple(args))
            if expr.target_kind in ("builtin", "extern"):
                return C.Prim(expr.core_op, args)
            raise ReproError(
                "unresolved call '{}' (typecheck first)".format(expr.name)
            )
        if isinstance(expr, S.EField):
            target = self.lower_expr(expr.target, scope, effect)
            if expr.index is None:
                raise ReproError("unresolved field access (typecheck first)")
            return C.Proj(target, expr.index)
        if isinstance(expr, S.EBinOp):
            left = self.lower_expr(expr.left, scope, effect)
            right = self.lower_expr(expr.right, scope, effect)
            if expr.core_op == "concat":
                left = self._coerce_to_string(left, expr.left)
                right = self._coerce_to_string(right, expr.right)
            return C.Prim(expr.core_op, (left, right))
        if isinstance(expr, S.EUnOp):
            return C.Prim(
                expr.core_op, (self.lower_expr(expr.operand, scope, effect),)
            )
        if isinstance(expr, S.EListLit):
            element = self.core(expr.stype.element)
            return C.ListLit(
                tuple(
                    self.lower_expr(item, scope, effect)
                    for item in expr.items
                ),
                element,
            )
        if isinstance(expr, S.ENil):
            return C.ListLit((), self.core(expr.stype.element))
        raise ReproError("cannot lower expression {!r}".format(expr))

    def _coerce_to_string(self, lowered, surface_expr):
        if surface_expr.stype == S.S_NUMBER:
            return C.Prim("str_of_num", (lowered,))
        return lowered
