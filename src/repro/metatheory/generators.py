"""Hypothesis strategies for random *well-typed* core programs.

The metatheory properties quantify over all well-typed expressions and
programs; these strategies generate them by construction — every
generated expression carries a target type and effect and only rules that
preserve typability are applied.  Partial primitives (division, parsing,
indexing) are deliberately excluded so preservation runs cannot trap;
progress-with-faults is exercised by dedicated tests instead.

Generated programs always terminate.  :func:`programs` and
:func:`live_programs` keep the call graph acyclic;
:func:`recursive_programs` recurses (self or mutual, calls in non-tail
positions) but every call passes ``k - 1`` under a ``k > 0`` guard — so
property tests can fully reduce everything they generate.
"""

from __future__ import annotations

from hypothesis import strategies as st

from ..core import ast
from ..core.defs import Code, GlobalDef, PageDef
from ..core.effects import PURE, RENDER, STATE
from ..core.names import ATTR_MARGIN
from ..core.types import (
    FunType,
    ListType,
    NUMBER,
    STRING,
    TupleType,
    UNIT,
    fun,
)

_IDENT_POOL = ("g_num", "g_str", "g_pair", "g_list")


def function_free_types(max_depth=2):
    """Strategy for →-free types (legal global/page-argument types)."""
    base = st.sampled_from((NUMBER, STRING, UNIT))
    if max_depth <= 0:
        return base
    inner = function_free_types(max_depth - 1)
    return st.one_of(
        base,
        st.lists(inner, min_size=1, max_size=3).map(
            lambda elems: TupleType(tuple(elems))
        ),
        inner.map(ListType),
    )


@st.composite
def values_of(draw, type_):
    """Strategy for closed AST *values* of ``type_``."""
    if type_ == NUMBER:
        return ast.Num(float(draw(st.integers(-99, 99))))
    if type_ == STRING:
        return ast.Str(draw(st.text(alphabet="abcxyz", max_size=5)))
    if isinstance(type_, TupleType):
        return ast.Tuple(
            tuple(draw(values_of(elem)) for elem in type_.elements)
        )
    if isinstance(type_, ListType):
        items = tuple(
            draw(values_of(type_.element))
            for _ in range(draw(st.integers(0, 3)))
        )
        return ast.ListLit(items, type_.element)
    if isinstance(type_, FunType):
        body = draw(values_of(type_.result))
        return ast.Lam(
            ast.fresh_name("gen"), type_.param, body, type_.effect
        )
    raise AssertionError("no value strategy for {!r}".format(type_))


@st.composite
def expressions_of(draw, code, gamma, type_, effect, depth=3):
    """Strategy for expressions with ``C; Γ ⊢effect e : type_``.

    ``gamma`` is a dict name → type of in-scope lambda variables.
    """
    leafs = ["value"]
    for name, var_type in gamma.items():
        if var_type == type_:
            leafs.append(("var", name))
    for definition in code.globals():
        if definition.type == type_:
            leafs.append(("global", definition.name))

    if depth <= 0:
        choice = draw(st.sampled_from(leafs))
    else:
        options = list(leafs) + ["if", "let", "tuple_proj"]
        options.extend(_prim_options(type_))
        from ..core.effects import subeffect

        for definition in code.functions():
            if definition.type.result == type_ and subeffect(
                definition.type.effect, effect
            ):
                options.append(("call", definition.name))
        if isinstance(type_, TupleType):
            options.append("tuple")
        if isinstance(type_, ListType):
            options.append("list")
        if effect is STATE and type_ == UNIT and code.globals():
            options.append("assign")
        if effect is RENDER:
            options.append("boxed")
            if type_ == UNIT:
                options.extend(["post", "setattr"])
        choice = draw(st.sampled_from(options))

    recur = lambda t, d=depth - 1, e=effect, g=gamma: draw(
        expressions_of(code, g, t, e, d)
    )

    if choice == "value":
        return draw(values_of(type_))
    if isinstance(choice, tuple) and choice[0] == "var":
        return ast.Var(choice[1])
    if isinstance(choice, tuple) and choice[0] == "global":
        return ast.GlobalRead(choice[1])
    if isinstance(choice, tuple) and choice[0] == "call":
        definition = code.function(choice[1])
        return ast.App(ast.FunRef(choice[1]), recur(definition.type.param))
    if choice == "if":
        return ast.If(recur(NUMBER), recur(type_), recur(type_))
    if choice == "let":
        bound_type = draw(st.sampled_from((NUMBER, STRING, UNIT)))
        var = ast.fresh_name("let")
        inner_gamma = dict(gamma)
        inner_gamma[var] = bound_type
        body = draw(
            expressions_of(code, inner_gamma, type_, effect, depth - 1)
        )
        return ast.App(
            ast.Lam(var, bound_type, body, effect), recur(bound_type)
        )
    if choice == "tuple_proj":
        width = draw(st.integers(1, 3))
        position = draw(st.integers(1, width))
        elements = [
            draw(st.sampled_from((NUMBER, STRING))) for _ in range(width)
        ]
        elements[position - 1] = type_
        tuple_expr = ast.Tuple(
            tuple(
                recur(element_type) for element_type in elements
            )
        )
        return ast.Proj(tuple_expr, position)
    if choice == "tuple":
        return ast.Tuple(tuple(recur(elem) for elem in type_.elements))
    if choice == "list":
        items = tuple(
            recur(type_.element) for _ in range(draw(st.integers(0, 2)))
        )
        return ast.ListLit(items, type_.element)
    if choice == "assign":
        target = draw(st.sampled_from(code.globals()))
        return ast.GlobalWrite(target.name, recur(target.type))
    if choice == "boxed":
        return ast.Boxed(recur(type_), box_id=draw(st.integers(0, 9)))
    if choice == "post":
        payload = draw(st.sampled_from((NUMBER, STRING)))
        return ast.Post(recur(payload))
    if choice == "setattr":
        return ast.SetAttr(ATTR_MARGIN, recur(NUMBER))
    # Primitive operators.
    op, arg_types = choice
    return ast.Prim(op, tuple(recur(arg) for arg in arg_types))


def _prim_options(type_):
    """Total primitives producing ``type_`` (partial ones excluded)."""
    options = []
    if type_ == NUMBER:
        options.extend(
            [
                ("add", (NUMBER, NUMBER)),
                ("sub", (NUMBER, NUMBER)),
                ("mul", (NUMBER, NUMBER)),
                ("floor", (NUMBER,)),
                ("lt", (NUMBER, NUMBER)),
                ("eq", (NUMBER, NUMBER)),
                ("not", (NUMBER,)),
                ("str_length", (STRING,)),
            ]
        )
    elif type_ == STRING:
        options.extend(
            [
                ("concat", (STRING, STRING)),
                ("str_of_num", (NUMBER,)),
                ("str_upper", (STRING,)),
            ]
        )
    elif isinstance(type_, ListType):
        options.append(("list_append", (type_, type_.element)))
    return options


@st.composite
def programs(draw, max_globals=3, body_depth=3, max_functions=2):
    """Strategy for complete well-typed programs.

    Globals, optional non-recursive pure helper functions (whose bodies
    may read globals and call earlier helpers — still guaranteed to
    terminate), and a start page whose init/render bodies may call them.
    """
    from ..core.defs import FunDef
    from ..core.types import FunType

    globals_ = []
    count = draw(st.integers(1, max_globals))
    for index in range(count):
        g_type = draw(function_free_types(1))
        init = draw(values_of(g_type))
        globals_.append(GlobalDef("g{}".format(index), g_type, init))
    partial_code = Code(globals_)

    functions = []
    for index in range(draw(st.integers(0, max_functions))):
        param_type = draw(st.sampled_from((NUMBER, STRING, UNIT)))
        result_type = draw(st.sampled_from((NUMBER, STRING)))
        param = ast.fresh_name("p")
        body = draw(
            expressions_of(
                partial_code,  # earlier helpers are callable (no cycles)
                {param: param_type},
                result_type,
                PURE,
                body_depth - 1,
            )
        )
        definition = FunDef(
            "f{}".format(index),
            FunType(param_type, result_type, PURE),
            ast.Lam(param, param_type, body, PURE),
        )
        functions.append(definition)
        partial_code = Code(globals_ + functions)

    init_body = draw(
        expressions_of(partial_code, {}, UNIT, STATE, body_depth)
    )
    render_body = draw(
        expressions_of(partial_code, {}, UNIT, RENDER, body_depth)
    )
    page = PageDef(
        "start",
        UNIT,
        ast.Lam(ast.fresh_name("a"), UNIT, init_body, STATE),
        ast.Lam(ast.fresh_name("a"), UNIT, render_body, RENDER),
    )
    return Code(globals_ + functions + [page])


@st.composite
def live_programs(draw, max_globals=3, body_depth=3, max_functions=3):
    """Strategy for programs whose view is drawn through *functions*.

    Like :func:`programs`, but the helpers carry the **render** effect —
    they may box, post, set attributes, read globals and call earlier
    helpers — and the page's render body may call them.  These are
    exactly the units the render memo (:mod:`repro.eval.memo`) and the
    update-surviving incremental engine (:mod:`repro.incremental`)
    operate on, so properties quantifying over live editing sessions
    (memoized ≡ unmemoized, entries survive UPDATE) draw from here.
    Still call-graph-acyclic and terminating by construction.

    Four programs in five also get a helper that boxes one global's
    value, which the page calls at two nesting depths before its own
    body: the memo then keys entries by read values, and the same
    helper's frozen subtrees are replayed at different depths of the
    HTML (whose fragments are cached per depth).
    """
    from ..core.defs import FunDef

    globals_ = []
    count = draw(st.integers(1, max_globals))
    for index in range(count):
        g_type = draw(function_free_types(1))
        init = draw(values_of(g_type))
        globals_.append(GlobalDef("g{}".format(index), g_type, init))
    partial_code = Code(globals_)

    functions = []
    for index in range(draw(st.integers(1, max_functions))):
        param_type = draw(st.sampled_from((NUMBER, STRING, UNIT)))
        result_type = draw(st.sampled_from((NUMBER, STRING, UNIT)))
        param = ast.fresh_name("p")
        body = draw(
            expressions_of(
                partial_code,  # earlier helpers are callable (no cycles)
                {param: param_type},
                result_type,
                RENDER,
                body_depth - 1,
            )
        )
        definition = FunDef(
            "r{}".format(index),
            FunType(param_type, result_type, RENDER),
            ast.Lam(param, param_type, body, RENDER),
        )
        functions.append(definition)
        partial_code = Code(globals_ + functions)

    reader = None
    if draw(st.sampled_from((True, True, True, True, False))):
        read = draw(st.sampled_from(globals_)).name
        param = ast.fresh_name("p")
        reader = FunDef(
            "r{}".format(len(functions)),
            FunType(NUMBER, UNIT, RENDER),
            ast.Lam(param, NUMBER, ast.Boxed(_then(
                ast.Post(ast.GlobalRead(read)), ast.Post(ast.Var(param)),
            ), box_id=10), RENDER),
        )
        functions.append(reader)
        partial_code = Code(globals_ + functions)

    init_body = draw(
        expressions_of(partial_code, {}, UNIT, STATE, body_depth)
    )
    render_body = draw(
        expressions_of(partial_code, {}, UNIT, RENDER, body_depth)
    )
    if reader is not None:
        call = ast.App(ast.FunRef(reader.name), ast.Num(1.0))
        render_body = _then(call, _then(ast.Boxed(call), render_body))
    page = PageDef(
        "start",
        UNIT,
        ast.Lam(ast.fresh_name("a"), UNIT, init_body, STATE),
        ast.Lam(ast.fresh_name("a"), UNIT, render_body, RENDER),
    )
    return Code(globals_ + functions + [page])


def _then(first, second, effect=RENDER):
    """``first; second`` as core syntax (a unit-bound application)."""
    return ast.App(ast.Lam(ast.fresh_name("seq"), UNIT, second, effect), first)


@st.composite
def recursive_programs(draw, max_depth=12):
    """Strategy for programs whose view needs non-tail recursion.

    One to three functions ``f0 … fm`` of type ``number -µ> number`` call
    each other in a cycle (``f0`` calls itself when alone), always on
    ``k - 1`` under a ``k > 0`` guard.  The call sits in a non-tail
    position — an operand (in either order), a tuple item, a let-bound
    value, inside a ``boxed`` body — or, for some functions of a cycle,
    in tail position, so components mix tail and non-tail calls.  With
    the render effect every level may
    box and post, which drives the render memo through recursion; the
    base case may fault (division by zero).  The start page renders
    ``f0`` at a global depth of at most ``max_depth``.
    """
    from ..core.defs import FunDef

    effect = draw(st.sampled_from((PURE, RENDER)))
    depth = GlobalDef(
        "depth", NUMBER, ast.Num(float(draw(st.integers(0, max_depth))))
    )
    scale = GlobalDef(
        "scale", NUMBER, ast.Num(float(draw(st.integers(-3, 3))))
    )
    globals_ = [depth, scale]
    size = draw(st.integers(1, 3))
    names = ["f{}".format(index) for index in range(size)]
    plain = Code(globals_)  # operands make no further calls
    faulting = draw(st.booleans())
    functions = []
    for index, name in enumerate(names):
        k = ast.Var("k")
        call = ast.App(
            ast.FunRef(names[(index + 1) % size]),
            ast.Prim("sub", (k, ast.Num(1.0))),
        )
        placement = draw(st.sampled_from(
            ("operand", "tuple", "let", "tail") if size > 1 and index > 0
            else ("operand", "tuple", "let")
        ))
        if effect is RENDER and draw(st.booleans()):
            placement = "boxed"
        operand = draw(expressions_of(plain, {"k": NUMBER}, NUMBER, PURE, 1))
        if placement == "operand":
            operands = (operand, call) if draw(st.booleans()) else (
                call, operand
            )
            step = ast.Prim(draw(st.sampled_from(("add", "sub"))), operands)
        elif placement == "tuple":
            step = ast.Proj(ast.Tuple((operand, call)), 2)
        elif placement == "tail":
            step = call
        else:
            bound = ast.fresh_name("r")
            body = draw(expressions_of(
                plain, {"k": NUMBER, bound: NUMBER}, NUMBER, effect, 2,
            ))
            if effect is RENDER:
                body = ast.App(
                    ast.Lam(ast.fresh_name("seq"), UNIT, body, effect),
                    ast.Post(ast.Var(bound)),
                )
            step = ast.App(ast.Lam(bound, NUMBER, body, effect), call)
            if placement == "boxed":
                step = ast.Boxed(step, box_id=index)
        base = (
            ast.Prim("div", (ast.Num(1.0), ast.Num(0.0)))
            if faulting and index == size - 1
            else draw(expressions_of(plain, {}, NUMBER, PURE, 1))
        )
        functions.append(FunDef(
            name, FunType(NUMBER, NUMBER, effect),
            ast.Lam("k", NUMBER, ast.If(
                ast.Prim("gt", (k, ast.Num(0.0))), step, base,
            ), effect),
        ))
    render_body = ast.Post(
        ast.App(ast.FunRef(names[0]), ast.GlobalRead("depth"))
    )
    page = PageDef(
        "start",
        UNIT,
        ast.Lam(ast.fresh_name("a"), UNIT, ast.UNIT_VALUE, STATE),
        ast.Lam(ast.fresh_name("a"), UNIT, render_body, RENDER),
    )
    return Code(globals_ + functions + [page])


@st.composite
def edited_codes(draw, code, body_depth=2):
    """Strategy for one random well-typed *edit* of ``code``.

    Models what a programmer's keystroke commit does to the program: it
    replaces one definition — a global's initial value, one helper
    function's body (same signature), or the start page's render body —
    and leaves everything else alone.  The result is well-typed by
    construction, so the UPDATE transition accepts it.
    """
    from ..core.defs import FunDef

    # ``with_def`` moves a replaced definition to the end of the table,
    # so sort by generation name (r0 < r1 < …) — that order is the
    # acyclic one and it is stable across any sequence of edits.
    helpers = sorted(
        (d for d in code.functions() if not d.name.startswith("$")),
        key=lambda d: (len(d.name), d.name),
    )
    choices = ["global", "render"] + (["function"] if helpers else [])
    choice = draw(st.sampled_from(choices))

    if choice == "global":
        target = draw(st.sampled_from(code.globals()))
        new_init = draw(values_of(target.type))
        return code.with_def(
            GlobalDef(target.name, target.type, new_init)
        )

    if choice == "function":
        index = draw(st.integers(0, len(helpers) - 1))
        target = helpers[index]
        # Only earlier helpers stay callable from the new body, keeping
        # the call graph acyclic exactly as generation did.
        earlier = Code(
            list(code.globals()) + helpers[:index]
        )
        param = ast.fresh_name("p")
        body = draw(
            expressions_of(
                earlier,
                {param: target.type.param},
                target.type.result,
                target.type.effect,
                body_depth,
            )
        )
        return code.with_def(
            FunDef(
                target.name,
                target.type,
                ast.Lam(param, target.type.param, body, target.type.effect),
            )
        )

    page = code.page("start")
    render_body = draw(
        expressions_of(code, {}, UNIT, RENDER, body_depth)
    )
    return code.with_def(
        PageDef(
            page.name,
            page.arg_type,
            page.init,
            ast.Lam(ast.fresh_name("a"), UNIT, render_body, RENDER),
        )
    )


@st.composite
def typed_expressions(draw, effect=PURE, depth=3):
    """Strategy for ``(code, expr, type)`` triples under ``effect``."""
    code = draw(programs(body_depth=1))
    type_ = draw(st.sampled_from((NUMBER, STRING, UNIT)))
    expr = draw(expressions_of(code, {}, type_, effect, depth))
    return code, expr, type_


@st.composite
def surface_declarations(draw, max_globals=3, max_functions=3):
    """Strategy for a well-typed *surface* program, as the list of its
    top-level declaration texts (join them for the source).

    Number globals ``g0 …``, pure helpers ``p0 …`` (each may call an
    earlier one), render functions ``r0 …`` (loops, ``boxed``, box
    attributes, calls to earlier ones) and a ``start`` page whose render
    body boxes, posts, registers tap handlers that write globals and
    calls render functions.  Some declarations carry trailing blank or
    comment lines.  Edits that insert, delete, move or reorder these
    texts exercise the incremental front end
    (:mod:`repro.surface.decls`).
    """
    n_globals = draw(st.integers(1, max_globals))
    n_pure = draw(st.integers(0, max_functions))
    n_render = draw(st.integers(0, max_functions))
    decls = [
        "global g{} : number = {}\n".format(i, draw(st.integers(0, 9)))
        for i in range(n_globals)
    ]

    def number(limit):
        """A number expression over the globals and helpers ``< limit``."""
        choice = draw(st.integers(0, 2 if limit else 1))
        if choice == 0:
            return str(draw(st.integers(0, 9)))
        if choice == 1:
            return "g{}".format(draw(st.integers(0, n_globals - 1)))
        return "p{}({})".format(
            draw(st.integers(0, limit - 1)),
            "g{}".format(draw(st.integers(0, n_globals - 1))),
        )

    for i in range(n_pure):
        decls.append(
            "fun p{}(x : number) : number\n  return x * {} + {}\n".format(
                i, draw(st.integers(1, 3)), number(i)
            )
        )

    def statements(indent, renders):
        pad = " " * indent
        out = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.integers(0, 4 if renders else 3))
            if kind == 0:
                out.append('{0}boxed\n{0}  post "v " || {1}\n'.format(
                    pad, number(n_pure)))
            elif kind == 1:
                out.append(
                    "{0}for i = 1 to {1} do\n{0}  boxed\n"
                    '{0}    post "row " || i\n'.format(
                        pad, draw(st.integers(0, 3))))
            elif kind == 2:
                out.append(
                    "{0}boxed\n{0}  box.margin := {1}\n{0}  post {2}\n"
                    "{0}  on tap do\n{0}    g{3} := g{3} + 1\n".format(
                        pad, draw(st.integers(0, 2)), number(n_pure),
                        draw(st.integers(0, n_globals - 1))))
            elif kind == 3:
                out.append("{0}if g0 > {1} then\n{0}  boxed\n"
                           '{0}    post "big"\n'.format(
                               pad, draw(st.integers(0, 5))))
            else:
                out.append("{}r{}({})\n".format(
                    pad, draw(st.integers(0, renders - 1)),
                    number(n_pure)))
        return "".join(out)

    for i in range(n_render):
        decls.append("fun r{}(n : number)\n{}".format(
            i, statements(2, i)))
    decls.append("page start()\n  render\n{}".format(
        statements(4, n_render)))
    trailers = ("", "", "\n", "// a comment\n", "\n  // indented\n\n")
    return [decl + draw(st.sampled_from(trailers)) for decl in decls]
