"""Surface-level type and effect checking.

This is the "continuously type-checked" phase of the live editor (Fig. 2):
it validates a parsed program, annotates the AST in place (expression
types, name resolutions, record field indices, inferred function effects),
and reports problems with source spans.  The lowering then translates the
annotated program into the core calculus, where the Fig. 10 checker
re-verifies everything — lowering bugs cannot silently produce ill-typed
core code.

Function effects are *inferred* by a fixpoint over the call graph: each
body's statements demand effects (``boxed``/``post``/``box.a :=``/handler
registration demand ``r``; global assignment/``push``/``pop``/state
externs demand ``s``), handler bodies are excluded (they are separate
``s`` closures), and a function that demands both ``r`` and ``s`` is
rejected — the surface manifestation of the paper's model/view
separation.
"""

from __future__ import annotations

from ..boxes.attributes import ATTRIBUTE_ENV, handler_attributes
from ..core.effects import Effect, PURE, RENDER, STATE, join, subeffect
from ..core.errors import TypeProblem
from . import surface_ast as S
from .resolve import ProgramEnv, resolve

# Surface builtin signatures: name → (param stypes, result, core op).
# ``None`` parameters/results mark the polymorphic list builtins, handled
# ad hoc in :meth:`_check_builtin`.
_N, _S = S.S_NUMBER, S.S_STRING
BUILTIN_SIGS = {
    "floor": ((_N,), _N, "floor"),
    "ceil": ((_N,), _N, "ceil"),
    "round": ((_N,), _N, "round"),
    "abs": ((_N,), _N, "abs"),
    "sqrt": ((_N,), _N, "sqrt"),
    "min": ((_N, _N), _N, "min"),
    "max": ((_N, _N), _N, "max"),
    "mod": ((_N, _N), _N, "mod"),
    "pow": ((_N, _N), _N, "pow"),
    "to_string": ((_N,), _S, "str_of_num"),
    "parse_number": ((_S,), _N, "num_of_str"),
    "format": ((_N, _N), _S, "num_format"),
    "count": ((_S,), _N, "str_length"),
    "substring": ((_S, _N, _N), _S, "str_sub"),
    "contains": ((_S, _S), _N, "str_contains"),
    "upper": ((_S,), _S, "str_upper"),
    "lower": ((_S,), _S, "str_lower"),
    "repeat": ((_S, _N), _S, "str_repeat"),
    "range": ((_N, _N), S.SList(_N), "list_range"),
}
#: Polymorphic list builtins: name → core op (shapes handled in code).
LIST_BUILTINS = {
    "length": "list_length",
    "get": "list_get",
    "append": "list_append",
    "reverse": "list_reverse",
    "slice": "list_slice",
}

_ARITH_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod"}
_COMPARE_OPS = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


class _Local:
    __slots__ = ("stype", "mutable")

    def __init__(self, stype, mutable):
        self.stype = stype
        self.mutable = mutable


class _Scope:
    """Nested block scopes for locals and parameters."""

    def __init__(self):
        self._frames = [{}]

    def push(self):
        self._frames.append({})

    def pop(self):
        self._frames.pop()

    def declare(self, name, stype, mutable, span):
        if self.lookup(name) is not None:
            raise TypeProblem(
                "'{}' is already defined in this scope".format(name),
                span=span,
            )
        self._frames[-1][name] = _Local(stype, mutable)

    def lookup(self, name):
        for frame in reversed(self._frames):
            if name in frame:
                return frame[name]
        return None

    def frozen_copy(self):
        """All visible locals, flattened and made immutable.

        Handler bodies check against this: handlers close over the
        surrounding locals *by value* (the core lambda captures them via
        substitution), so assigning one would silently update a copy —
        the checker rejects it instead.
        """
        frozen = _Scope()
        merged = {}
        for frame in self._frames:
            merged.update(frame)
        for name, local in merged.items():
            frozen._frames[0][name] = _Local(local.stype, False)
        return frozen


def typecheck(program):
    """Check ``program``; returns its :class:`ProgramEnv`.

    Raises the first :class:`TypeProblem`.  The AST is annotated in place.
    """
    env, problems = typecheck_problems(program)
    if problems:
        raise problems[0]
    return env


def typecheck_problems(program):
    """Collect-all variant: returns ``(env_or_None, problems)``.

    Checking continues across declarations after a failure (the live
    editor shows every broken definition), but stops within one.
    """
    try:
        env = resolve(program)
    except TypeProblem as problem:
        return None, [problem]
    problems = []
    try:
        infer_effects(env)
    except TypeProblem as problem:
        return env, [problem]
    for sig in env.funs.values():
        sig.decl.effect = sig.effect
    checker = _DeclChecker(env)
    for decl in program.decls:
        try:
            checker.check_decl(decl)
        except TypeProblem as problem:
            problems.append(problem)
    return env, problems


# ---------------------------------------------------------------------------
# Effect inference (fixpoint over the call graph)
# ---------------------------------------------------------------------------


def infer_effects(env):
    """Set every function signature's ``effect`` in ``env`` by the
    fixpoint; reads the declarations' bodies and annotates nothing."""
    for sig in env.funs.values():
        sig.effect = PURE
    changed = True
    while changed:
        changed = False
        for sig in env.funs.values():
            demanded = _block_effect(sig.decl.body, env, sig.decl.name)
            if demanded != sig.effect:
                sig.effect = demanded
                changed = True


def _block_effect(block, env, where):
    effect = PURE
    for stmt in block.stmts:
        effect = _join_or_fail(effect, _stmt_effect(stmt, env, where), stmt)
    return effect


def _join_or_fail(left, right, node):
    joined = join(left, right)
    if joined is None:
        raise TypeProblem(
            "this code demands both render and state effects — render "
            "code builds the view, handlers/init mutate the model, and "
            "the two cannot mix (Section 3)",
            rule="EFFECT",
            span=node.span,
        )
    return joined


def _stmt_effect(stmt, env, where):
    if isinstance(stmt, (S.SBoxed,)):
        return _join_or_fail(
            RENDER, _block_effect(stmt.body, env, where), stmt
        )
    if isinstance(stmt, S.SEditable):
        return RENDER  # sugar over post/box.editable/on edit
    if isinstance(stmt, (S.SPost, S.SSetAttr, S.SHandler)):
        # Handler bodies are separate state closures; they do not force
        # the enclosing function away from render.
        effect = RENDER
        if isinstance(stmt, S.SPost):
            effect = _join_or_fail(effect, _expr_effect(stmt.value, env), stmt)
        if isinstance(stmt, S.SSetAttr):
            effect = _join_or_fail(effect, _expr_effect(stmt.value, env), stmt)
        return effect
    if isinstance(stmt, (S.SPush, S.SPop)):
        effect = STATE
        if isinstance(stmt, S.SPush):
            for arg in stmt.args:
                effect = _join_or_fail(effect, _expr_effect(arg, env), stmt)
        return effect
    if isinstance(stmt, S.SAssign):
        # Locals shadowing globals are rejected later, so a global name
        # here really is a global write.
        effect = _expr_effect(stmt.value, env)
        if stmt.name in env.globals:
            effect = _join_or_fail(effect, STATE, stmt)
        return effect
    if isinstance(stmt, S.SVarDecl):
        return _expr_effect(stmt.value, env)
    if isinstance(stmt, S.SIf):
        effect = _expr_effect(stmt.cond, env)
        effect = _join_or_fail(
            effect, _block_effect(stmt.then_block, env, where), stmt
        )
        if stmt.else_block is not None:
            effect = _join_or_fail(
                effect, _block_effect(stmt.else_block, env, where), stmt
            )
        return effect
    if isinstance(stmt, S.SForIn):
        effect = _expr_effect(stmt.list_expr, env)
        return _join_or_fail(
            effect, _block_effect(stmt.body, env, where), stmt
        )
    if isinstance(stmt, S.SForRange):
        effect = _join_or_fail(
            _expr_effect(stmt.from_expr, env),
            _expr_effect(stmt.to_expr, env),
            stmt,
        )
        return _join_or_fail(
            effect, _block_effect(stmt.body, env, where), stmt
        )
    if isinstance(stmt, S.SWhile):
        effect = _expr_effect(stmt.cond, env)
        return _join_or_fail(
            effect, _block_effect(stmt.body, env, where), stmt
        )
    if isinstance(stmt, S.SReturn):
        return _expr_effect(stmt.value, env) if stmt.value else PURE
    if isinstance(stmt, S.SExprStmt):
        return _expr_effect(stmt.value, env)
    raise TypeProblem(
        "unknown statement {!r}".format(stmt), span=stmt.span
    )


def _expr_effect(expr, env):
    if isinstance(expr, S.ECall):
        effect = PURE
        if expr.name in env.funs:
            effect = env.funs[expr.name].effect or PURE
        elif expr.name in env.externs:
            effect = env.externs[expr.name].effect
        for arg in expr.args:
            effect = _join_or_fail(effect, _expr_effect(arg, env), expr)
        return effect
    effect = PURE
    for child in _expr_children(expr):
        effect = _join_or_fail(effect, _expr_effect(child, env), expr)
    return effect


def _expr_children(expr):
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


# ---------------------------------------------------------------------------
# Declaration checking
# ---------------------------------------------------------------------------


class _DeclChecker:
    def __init__(self, env):
        self.env = env

    # -- declarations --------------------------------------------------------

    def check_decl(self, decl):
        if isinstance(decl, S.DGlobal):
            self._check_global(decl)
        elif isinstance(decl, S.DFun):
            self._check_fun(decl)
        elif isinstance(decl, S.DPage):
            self._check_page(decl)
        elif isinstance(decl, (S.DRecord, S.DExtern)):
            pass  # fully handled by resolution
        else:
            raise TypeProblem(
                "unknown declaration {!r}".format(decl), span=decl.span
            )

    def _check_global(self, decl):
        sig = self.env.globals[decl.name]
        self._require_constant(decl.init, decl.name)
        scope = _Scope()
        actual = self.check_expr(decl.init, scope, PURE)
        if actual != sig.stype:
            raise TypeProblem(
                "global '{}' is declared {} but initialized with "
                "{}".format(decl.name, sig.stype, actual),
                span=decl.init.span,
            )

    def _require_constant(self, expr, name):
        """Global initial values must be *values* (Fig. 7's ``= v``)."""
        if isinstance(expr, (S.ENum, S.EStr, S.EBool, S.ENil)):
            return
        if isinstance(expr, S.EListLit):
            for item in expr.items:
                self._require_constant(item, name)
            return
        if isinstance(expr, S.ECall) and expr.name in self.env.records:
            for arg in expr.args:
                self._require_constant(arg, name)
            return
        if isinstance(expr, S.EUnOp) and expr.op == "-":
            self._require_constant(expr.operand, name)
            return
        raise TypeProblem(
            "the initial value of global '{}' must be a constant "
            "(Fig. 7: global g : τ = v)".format(name),
            span=expr.span,
        )

    def _check_fun(self, decl):
        sig = self.env.funs[decl.name]
        scope = _Scope()
        for name, stype in zip(sig.param_names, sig.param_stypes):
            scope.declare(name, stype, mutable=False, span=decl.span)
        self._check_block(
            decl.body, scope, sig.effect or PURE,
            return_stype=sig.return_stype, fun_name=decl.name,
        )

    def _check_page(self, decl):
        sig = self.env.pages[decl.name]
        if decl.name == "start" and sig.param_stypes:
            raise TypeProblem(
                "page 'start' cannot take parameters — STARTUP pushes "
                "[push start ()]",
                span=decl.span,
            )
        for block, effect, what in (
            (decl.init_block, STATE, "init"),
            (decl.render_block, RENDER, "render"),
        ):
            if block is None:
                continue
            scope = _Scope()
            for name, stype in zip(sig.param_names, sig.param_stypes):
                scope.declare(name, stype, mutable=False, span=decl.span)
            self._check_block(block, scope, effect, what=what)

    # -- blocks & statements -----------------------------------------------------

    def _check_block(
        self, block, scope, effect, return_stype=None, fun_name=None,
        what=None,
    ):
        scope.push()
        try:
            for index, stmt in enumerate(block.stmts):
                is_last = index == len(block.stmts) - 1
                if isinstance(stmt, S.SReturn):
                    if fun_name is None:
                        raise TypeProblem(
                            "'return' is only allowed in function bodies "
                            "(not in {} code)".format(what or "page"),
                            span=stmt.span,
                        )
                    if not is_last:
                        raise TypeProblem(
                            "'return' must be the final statement",
                            span=stmt.span,
                        )
                    actual = (
                        self.check_expr(stmt.value, scope, effect)
                        if stmt.value is not None
                        else S.S_UNIT
                    )
                    if actual != return_stype:
                        raise TypeProblem(
                            "function '{}' returns {} but is declared "
                            "{}".format(fun_name, actual, return_stype),
                            span=stmt.span,
                        )
                else:
                    self.check_stmt(stmt, scope, effect)
            if (
                fun_name is not None
                and return_stype not in (None, S.S_UNIT)
                and not (
                    block.stmts and isinstance(block.stmts[-1], S.SReturn)
                )
            ):
                raise TypeProblem(
                    "function '{}' must end with 'return' (declared "
                    "return type {})".format(fun_name, return_stype),
                    span=block.span,
                )
        finally:
            scope.pop()
        # Nested function bodies re-enter via check_decl; a plain block
        # never propagates returns outward.

    def check_stmt(self, stmt, scope, effect):
        env = self.env
        if isinstance(stmt, S.SVarDecl):
            if stmt.name in env.globals:
                raise TypeProblem(
                    "local 'var {}' would shadow the global of the same "
                    "name".format(stmt.name),
                    span=stmt.span,
                )
            stype = self.check_expr(stmt.value, scope, effect)
            scope.declare(stmt.name, stype, mutable=True, span=stmt.span)
            return
        if isinstance(stmt, S.SAssign):
            value_stype = self.check_expr(stmt.value, scope, effect)
            local = scope.lookup(stmt.name)
            if local is not None:
                if not local.mutable:
                    raise TypeProblem(
                        "'{}' is not assignable (parameters and loop "
                        "variables are immutable)".format(stmt.name),
                        span=stmt.span,
                    )
                if value_stype != local.stype:
                    raise TypeProblem(
                        "assigning {} to '{}' of type {}".format(
                            value_stype, stmt.name, local.stype
                        ),
                        span=stmt.span,
                    )
                stmt.resolution = "local"
                return
            if stmt.name in env.globals:
                if effect is not STATE:
                    raise TypeProblem(
                        "assignment to global '{}' requires state code — "
                        "render code can only read globals".format(
                            stmt.name
                        ),
                        rule="T-ASSIGN",
                        span=stmt.span,
                    )
                declared = env.globals[stmt.name].stype
                if value_stype != declared:
                    raise TypeProblem(
                        "assigning {} to global '{}' of type {}".format(
                            value_stype, stmt.name, declared
                        ),
                        span=stmt.span,
                    )
                stmt.resolution = "global"
                return
            raise TypeProblem(
                "assignment to undefined variable '{}'".format(stmt.name),
                span=stmt.span,
            )
        if isinstance(stmt, S.SIf):
            self._expect_number(stmt.cond, scope, effect, "if-condition")
            self._check_block(stmt.then_block, scope, effect)
            if stmt.else_block is not None:
                self._check_block(stmt.else_block, scope, effect)
            return
        if isinstance(stmt, S.SForIn):
            list_stype = self.check_expr(stmt.list_expr, scope, effect)
            if not isinstance(list_stype, S.SList):
                raise TypeProblem(
                    "'for … in' needs a list, got {}".format(list_stype),
                    span=stmt.list_expr.span,
                )
            scope.push()
            try:
                scope.declare(
                    stmt.var, list_stype.element, mutable=False,
                    span=stmt.span,
                )
                self._check_block(stmt.body, scope, effect)
            finally:
                scope.pop()
            return
        if isinstance(stmt, S.SForRange):
            self._expect_number(stmt.from_expr, scope, effect, "range start")
            self._expect_number(stmt.to_expr, scope, effect, "range end")
            scope.push()
            try:
                scope.declare(
                    stmt.var, S.S_NUMBER, mutable=False, span=stmt.span
                )
                self._check_block(stmt.body, scope, effect)
            finally:
                scope.pop()
            return
        if isinstance(stmt, S.SWhile):
            self._expect_number(stmt.cond, scope, effect, "while-condition")
            self._check_block(stmt.body, scope, effect)
            return
        if isinstance(stmt, S.SBoxed):
            self._require_render(effect, stmt, "boxed")
            self._check_block(stmt.body, scope, effect)
            return
        if isinstance(stmt, S.SPost):
            self._require_render(effect, stmt, "post")
            self.check_expr(stmt.value, scope, effect)
            return
        if isinstance(stmt, S.SSetAttr):
            self._require_render(effect, stmt, "box.{} :=".format(stmt.attr))
            spec = ATTRIBUTE_ENV.get(stmt.attr)
            if spec is None:
                raise TypeProblem(
                    "unknown box attribute '{}'".format(stmt.attr),
                    rule="T-ATTR",
                    span=stmt.span,
                )
            if stmt.attr in handler_attributes():
                raise TypeProblem(
                    "handlers are registered with 'on tap do' / "
                    "'on edit(x) do', not by assigning '{}'".format(
                        stmt.attr
                    ),
                    span=stmt.span,
                )
            value_stype = self.check_expr(stmt.value, scope, effect)
            expected = (
                S.S_NUMBER if spec.type.__class__.__name__ == "NumberType"
                else S.S_STRING
            )
            if value_stype != expected:
                raise TypeProblem(
                    "attribute '{}' takes {}, got {}".format(
                        stmt.attr, expected, value_stype
                    ),
                    rule="T-ATTR",
                    span=stmt.span,
                )
            return
        if isinstance(stmt, S.SEditable):
            self._require_render(effect, stmt, "editable")
            sig = env.globals.get(stmt.name)
            if sig is None:
                raise TypeProblem(
                    "'editable {}' needs a global of that name".format(
                        stmt.name
                    ),
                    span=stmt.span,
                )
            if sig.stype not in (S.S_NUMBER, S.S_STRING):
                raise TypeProblem(
                    "'editable' works on number/string globals; "
                    "'{}' has type {}".format(stmt.name, sig.stype),
                    span=stmt.span,
                )
            return
        if isinstance(stmt, S.SHandler):
            self._require_render(effect, stmt, "on {}".format(stmt.kind))
            handler_scope = scope.frozen_copy()
            if stmt.kind == "edit":
                handler_scope.declare(
                    stmt.param, S.S_STRING, mutable=False, span=stmt.span
                )
            self._check_block(stmt.body, handler_scope, STATE)
            return
        if isinstance(stmt, S.SPush):
            self._require_state(effect, stmt, "push")
            sig = env.pages.get(stmt.page)
            if sig is None:
                raise TypeProblem(
                    "push of undefined page '{}'".format(stmt.page),
                    rule="T-PUSH",
                    span=stmt.span,
                )
            if len(stmt.args) != len(sig.param_stypes):
                raise TypeProblem(
                    "page '{}' takes {} argument(s), got {}".format(
                        stmt.page, len(sig.param_stypes), len(stmt.args)
                    ),
                    span=stmt.span,
                )
            for arg, expected in zip(stmt.args, sig.param_stypes):
                actual = self.check_expr(arg, scope, effect)
                if actual != expected:
                    raise TypeProblem(
                        "page '{}' argument has type {}, expected "
                        "{}".format(stmt.page, actual, expected),
                        span=arg.span,
                    )
            return
        if isinstance(stmt, S.SPop):
            self._require_state(effect, stmt, "pop")
            return
        if isinstance(stmt, S.SExprStmt):
            self.check_expr(stmt.value, scope, effect)
            return
        if isinstance(stmt, S.SReturn):
            raise TypeProblem(
                "'return' must be the final statement of a function body",
                span=stmt.span,
            )
        raise TypeProblem(
            "unknown statement {!r}".format(stmt), span=stmt.span
        )

    def _require_render(self, effect, stmt, what):
        if effect is not RENDER:
            raise TypeProblem(
                "'{}' is render code, but this context is {} — only "
                "render bodies build the view".format(
                    what, "state" if effect is STATE else "pure"
                ),
                rule="EFFECT",
                span=stmt.span,
            )

    def _require_state(self, effect, stmt, what):
        if effect is not STATE:
            raise TypeProblem(
                "'{}' mutates program state, but this context is {} — "
                "use an event handler or init code".format(
                    what, "render" if effect is RENDER else "pure"
                ),
                rule="EFFECT",
                span=stmt.span,
            )

    def _expect_number(self, expr, scope, effect, what):
        actual = self.check_expr(expr, scope, effect)
        if actual != S.S_NUMBER:
            raise TypeProblem(
                "{} has type {}, expected number".format(what, actual),
                span=expr.span,
            )

    # -- expressions ------------------------------------------------------------

    def check_expr(self, expr, scope, effect):
        stype = self._check_expr(expr, scope, effect)
        expr.stype = stype
        return stype

    def _check_expr(self, expr, scope, effect):
        env = self.env
        if isinstance(expr, S.ENum):
            return S.S_NUMBER
        if isinstance(expr, S.EStr):
            return S.S_STRING
        if isinstance(expr, S.EBool):
            return S.S_NUMBER
        if isinstance(expr, S.EVar):
            local = scope.lookup(expr.name)
            if local is not None:
                expr.resolution = "local"
                return local.stype
            if expr.name in env.globals:
                expr.resolution = "global"
                return env.globals[expr.name].stype
            raise TypeProblem(
                "undefined name '{}'".format(expr.name), span=expr.span
            )
        if isinstance(expr, S.ECall):
            return self._check_call(expr, scope, effect)
        if isinstance(expr, S.EField):
            target_stype = self.check_expr(expr.target, scope, effect)
            if not isinstance(target_stype, S.SRec):
                raise TypeProblem(
                    "field access '.{}' on non-record type {}".format(
                        expr.name, target_stype
                    ),
                    span=expr.span,
                )
            info = env.records[target_stype.name]
            index = info.field_index(expr.name)
            if index is None:
                raise TypeProblem(
                    "record '{}' has no field '{}'".format(
                        target_stype.name, expr.name
                    ),
                    span=expr.span,
                )
            expr.index = index
            return info.field_types[index - 1]
        if isinstance(expr, S.EBinOp):
            return self._check_binop(expr, scope, effect)
        if isinstance(expr, S.EUnOp):
            operand = self.check_expr(expr.operand, scope, effect)
            if operand != S.S_NUMBER:
                raise TypeProblem(
                    "'{}' needs a number, got {}".format(expr.op, operand),
                    span=expr.span,
                )
            expr.core_op = "neg" if expr.op == "-" else "not"
            return S.S_NUMBER
        if isinstance(expr, S.EListLit):
            if not expr.items:
                raise TypeProblem(
                    "empty list literals need a type: use nil(τ)",
                    span=expr.span,
                )
            first = self.check_expr(expr.items[0], scope, effect)
            for item in expr.items[1:]:
                other = self.check_expr(item, scope, effect)
                if other != first:
                    raise TypeProblem(
                        "list items disagree: {} vs {}".format(first, other),
                        span=item.span,
                    )
            return S.SList(first)
        if isinstance(expr, S.ENil):
            from .resolve import resolve_type

            return S.SList(resolve_type(expr.element, env))
        raise TypeProblem(
            "unknown expression {!r}".format(expr), span=expr.span
        )

    def _check_call(self, expr, scope, effect):
        env = self.env
        name = expr.name
        arg_stypes = [
            self.check_expr(arg, scope, effect) for arg in expr.args
        ]
        if name in env.records:
            info = env.records[name]
            expr.target_kind = "record"
            self._check_args(
                name, info.field_types, arg_stypes, expr,
                what="record constructor",
            )
            return S.SRec(name)
        if name in env.funs:
            sig = env.funs[name]
            callee_effect = sig.effect or PURE
            if not subeffect(callee_effect, effect):
                raise TypeProblem(
                    "function '{}' has effect {} and cannot be called "
                    "from {} code".format(name, callee_effect, effect),
                    rule="EFFECT",
                    span=expr.span,
                )
            expr.target_kind = "fun"
            self._check_args(name, sig.param_stypes, arg_stypes, expr)
            return sig.return_stype
        if name in env.externs:
            sig = env.externs[name]
            if not subeffect(sig.effect, effect):
                raise TypeProblem(
                    "extern '{}' has effect {} and cannot be called from "
                    "{} code".format(name, sig.effect, effect),
                    rule="EFFECT",
                    span=expr.span,
                )
            expr.target_kind = "extern"
            expr.core_op = name
            self._check_args(name, sig.param_stypes, arg_stypes, expr)
            return sig.return_stype
        return self._check_builtin(expr, arg_stypes)

    def _check_args(self, name, expected, actual, expr, what="function"):
        if len(expected) != len(actual):
            raise TypeProblem(
                "{} '{}' takes {} argument(s), got {}".format(
                    what, name, len(expected), len(actual)
                ),
                span=expr.span,
            )
        for index, (exp, act) in enumerate(zip(expected, actual)):
            if exp != act:
                raise TypeProblem(
                    "{} '{}' argument {} has type {}, expected {}".format(
                        what, name, index + 1, act, exp
                    ),
                    span=expr.args[index].span,
                )

    def _check_builtin(self, expr, arg_stypes):
        name = expr.name
        if name in BUILTIN_SIGS:
            params, result, core_op = BUILTIN_SIGS[name]
            expr.target_kind = "builtin"
            expr.core_op = core_op
            self._check_args(name, params, arg_stypes, expr, what="builtin")
            return result
        if name in LIST_BUILTINS:
            expr.target_kind = "builtin"
            expr.core_op = LIST_BUILTINS[name]
            return self._check_list_builtin(expr, arg_stypes)
        raise TypeProblem(
            "unknown function '{}'".format(name), span=expr.span
        )

    def _check_list_builtin(self, expr, arg_stypes):
        name = expr.name
        if not arg_stypes or not isinstance(arg_stypes[0], S.SList):
            raise TypeProblem(
                "builtin '{}' needs a list as its first argument".format(
                    name
                ),
                span=expr.span,
            )
        list_stype = arg_stypes[0]
        shapes = {
            "length": (1, S.S_NUMBER),
            "get": (2, list_stype.element),
            "append": (2, list_stype),
            "reverse": (1, list_stype),
            "slice": (3, list_stype),
        }
        arity, result = shapes[name]
        if len(arg_stypes) != arity:
            raise TypeProblem(
                "builtin '{}' takes {} argument(s), got {}".format(
                    name, arity, len(arg_stypes)
                ),
                span=expr.span,
            )
        if name == "get" and arg_stypes[1] != S.S_NUMBER:
            raise TypeProblem("'get' index must be a number", span=expr.span)
        if name == "append" and arg_stypes[1] != list_stype.element:
            raise TypeProblem(
                "'append' element has type {}, the list holds {}".format(
                    arg_stypes[1], list_stype.element
                ),
                span=expr.span,
            )
        if name == "slice" and (
            arg_stypes[1] != S.S_NUMBER or arg_stypes[2] != S.S_NUMBER
        ):
            raise TypeProblem(
                "'slice' bounds must be numbers", span=expr.span
            )
        return result

    def _check_binop(self, expr, scope, effect):
        left = self.check_expr(expr.left, scope, effect)
        right = self.check_expr(expr.right, scope, effect)
        op = expr.op
        if op in _ARITH_OPS:
            if left != S.S_NUMBER or right != S.S_NUMBER:
                raise TypeProblem(
                    "'{}' needs numbers, got {} and {}".format(
                        op, left, right
                    ),
                    span=expr.span,
                )
            expr.core_op = _ARITH_OPS[op]
            return S.S_NUMBER
        if op in _COMPARE_OPS:
            if left != S.S_NUMBER or right != S.S_NUMBER:
                raise TypeProblem(
                    "'{}' compares numbers, got {} and {}".format(
                        op, left, right
                    ),
                    span=expr.span,
                )
            expr.core_op = _COMPARE_OPS[op]
            return S.S_NUMBER
        if op in ("==", "!="):
            if left != right:
                raise TypeProblem(
                    "'{}' compares equal types, got {} and {}".format(
                        op, left, right
                    ),
                    span=expr.span,
                )
            expr.core_op = "eq" if op == "==" else "ne"
            return S.S_NUMBER
        if op == "||":
            # The paper's string concatenation coerces numbers
            # ("… * 100) || \"\"" in Section 3.1); the lowering inserts
            # str_of_num around number operands.
            for side, what in ((left, "left"), (right, "right")):
                if side not in (S.S_NUMBER, S.S_STRING):
                    raise TypeProblem(
                        "'||' joins strings/numbers; the {} operand is "
                        "{}".format(what, side),
                        span=expr.span,
                    )
            expr.core_op = "concat"
            return S.S_STRING
        if op in ("and", "or"):
            if left != S.S_NUMBER or right != S.S_NUMBER:
                raise TypeProblem(
                    "'{}' needs booleans (numbers), got {} and {}".format(
                        op, left, right
                    ),
                    span=expr.span,
                )
            expr.core_op = op
            return S.S_NUMBER
        raise TypeProblem(
            "unknown operator '{}'".format(op), span=expr.span
        )
