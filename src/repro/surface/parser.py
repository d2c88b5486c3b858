"""Recursive-descent parser for the surface language.

Grammar sketch (blocks are indentation-delimited; ``//`` comments)::

    program  := decl*
    decl     := "global" x ":" type "=" expr
              | "record" x <indented field list>
              | "fun" f "(" params ")" [":" type] block
              | "extern" "fun" f "(" params ")" [":" type] ["is" effect]
              | "page" p "(" params ")" <"init" block> <"render" block>
    stmt     := "var" x ":=" e | x ":=" e | "if" e "then" B ["elif"…]
              | "for" x "in" e "do" B | "for" x "=" e "to" e "do" B
              | "while" e "do" B | "boxed" B | "post" e
              | "box" "." attr ":=" e | "on" "tap" "do" B
              | "on" "edit" "(" x ")" "do" B | "push" p "(" args ")"
              | "pop" | "return" [e] | e

Expressions have the usual precedence ladder with ``||`` for string
concatenation (the paper's operator), ``and``/``or``/``not``, comparisons,
arithmetic, record field access ``e.f``, calls, list literals and
``nil(type)`` for empty lists.

``boxed`` statements receive sequential ``box_id``\\ s in document order —
the stable keys of the UI-code navigation source map.
"""

from __future__ import annotations

from ..core.errors import SyntaxProblem
from . import surface_ast as S
from .lexer import tokenize
from .span import Span
from .tokens import (
    DEDENT,
    EOF,
    IDENT,
    INDENT,
    KEYWORD,
    NEWLINE,
    NUMBER,
    OP,
    STRING,
)

#: Surface attribute identifiers (underscored) → registry names (spaced).
ATTR_NAME_MAP = {"font_size": "font size"}

#: The expression precedence ladder, loosest first; ``not`` is prefix.
_OR, _AND, _NOT, _COMPARE, _CONCAT, _ADDITIVE, _MULTIPLICATIVE, _ATOM = (
    range(1, 9)
)
#: Binary operator (an OP token, or the keywords and/or) → its level.
_BINARY = {
    "or": _OR,
    "and": _AND,
    "==": _COMPARE, "!=": _COMPARE, "<": _COMPARE, "<=": _COMPARE,
    ">": _COMPARE, ">=": _COMPARE,
    "||": _CONCAT,
    "+": _ADDITIVE, "-": _ADDITIVE,
    "*": _MULTIPLICATIVE, "/": _MULTIPLICATIVE, "%": _MULTIPLICATIVE,
}


def parse(source):
    """Parse ``source`` into a :class:`repro.surface.surface_ast.Program`."""
    return _Parser(tokenize(source)).parse_program()


def parse_decl(tokens, box_start, last):
    """Parse the one top-level declaration lexed as ``tokens``.

    ``tokens`` are ``tokenize(source, start, end, line)`` of its lines
    alone: up to their closing EOF, the very tokens the whole of
    ``source`` has there.  ``box_start`` is the ``box_id`` of its first
    ``boxed`` statement, and ``last`` says whether it is the source's
    last declaration.  Spans and box ids are those of the same
    declaration parsed as part of the whole of ``source``.  Returns
    ``(decl, box_count, end_pos)``, ``end_pos`` being where its tokens
    stop — the start of the next declaration.

    Raises the :class:`SyntaxProblem` the whole program's parse raises
    in these tokens.  Returns ``None`` where the lines alone cannot tell
    which one that is: a problem found at the closing EOF of a
    declaration that is not ``last`` (the whole program sees the next
    declaration's first token there), or tokens left over after the
    declaration.
    """
    parser = _Parser(tokens, box_start)
    try:
        decl = parser._parse_decl()
    except SyntaxProblem:
        # Every problem is raised at the cursor's token.
        if last or not parser._at(EOF):
            raise
        return None
    while parser._accept(NEWLINE):
        pass
    if not parser._at(EOF):
        return None
    return decl, parser.box_counter - box_start, parser._peek().span.end


class _Parser:
    def __init__(self, tokens, box_start=0):
        # A second EOF past the lexer's own keeps ``_peek(1)`` in range:
        # the cursor never moves past the first one.
        self.tokens = tokens + [tokens[-1]]
        self.index = 0
        self.box_counter = box_start

    # -- cursor helpers ----------------------------------------------------

    def _peek(self, ahead=0):
        return self.tokens[self.index + ahead]

    def _advance(self):
        token = self.tokens[self.index]
        if token.kind != EOF:
            self.index += 1
        return token

    def _at(self, kind, text=None):
        token = self._peek()
        return token.kind == kind and (text is None or token.text == text)

    def _at_keyword(self, *words):
        token = self._peek()
        return token.kind == KEYWORD and token.text in words

    def _accept(self, kind, text=None):
        if self._at(kind, text):
            return self._advance()
        return None

    def _expect(self, kind, text=None, what=None):
        token = self._peek()
        if self._at(kind, text):
            return self._advance()
        raise SyntaxProblem(
            "expected {}, found {}".format(
                what or text or kind.lower(), token
            ),
            span=token.span,
        )

    def _expect_newline(self):
        self._expect(NEWLINE, what="end of line")
        # Collapse runs of NEWLINEs (blank lines produce none, but be safe).
        while self._accept(NEWLINE):
            pass

    def _span_from(self, start_token):
        return Span(start_token.span.start, self._peek().span.start)

    # -- program & declarations ------------------------------------------------

    def parse_program(self):
        decls = []
        start = self._peek()
        while self._accept(NEWLINE):
            pass
        while not self._at(EOF):
            decls.append(self._parse_decl())
            while self._accept(NEWLINE):
                pass
        return S.Program(decls, Span(start.span.start, self._peek().span.end))

    def _parse_decl(self):
        token = self._peek()
        if token.is_keyword("global"):
            return self._parse_global()
        if token.is_keyword("record"):
            return self._parse_record()
        if token.is_keyword("fun"):
            return self._parse_fun()
        if token.is_keyword("extern"):
            return self._parse_extern()
        if token.is_keyword("page"):
            return self._parse_page()
        raise SyntaxProblem(
            "expected a declaration (global/record/fun/extern/page), "
            "found {}".format(token),
            span=token.span,
        )

    def _parse_global(self):
        start = self._advance()  # 'global'
        name = self._expect(IDENT, what="global name").text
        self._expect(OP, ":")
        type_expr = self._parse_type()
        self._expect(OP, "=")
        init = self._parse_expr()
        self._expect_newline()
        decl = S.DGlobal(self._span_from(start))
        decl.name, decl.type_expr, decl.init = name, type_expr, init
        return decl

    def _parse_record(self):
        start = self._advance()  # 'record'
        name = self._expect(IDENT, what="record name").text
        self._expect_newline()
        self._expect(INDENT, what="an indented field list")
        fields = []
        while not self._at(DEDENT):
            field_tok = self._expect(IDENT, what="field name")
            self._expect(OP, ":")
            type_expr = self._parse_type()
            self._expect_newline()
            fields.append((field_tok.text, type_expr, field_tok.span))
        self._expect(DEDENT)
        decl = S.DRecord(self._span_from(start))
        decl.name, decl.fields = name, fields
        return decl

    def _parse_params(self):
        self._expect(OP, "(")
        params = []
        if not self._at(OP, ")"):
            while True:
                name = self._expect(IDENT, what="parameter name").text
                self._expect(OP, ":")
                params.append((name, self._parse_type()))
                if not self._accept(OP, ","):
                    break
        self._expect(OP, ")")
        return params

    def _parse_fun(self):
        start = self._advance()  # 'fun'
        name = self._expect(IDENT, what="function name").text
        params = self._parse_params()
        return_type = None
        if self._accept(OP, ":"):
            return_type = self._parse_type()
        self._expect_newline()
        body = self._parse_block()
        decl = S.DFun(self._span_from(start))
        decl.name, decl.params, decl.return_type, decl.body = (
            name, params, return_type, body,
        )
        return decl

    def _parse_extern(self):
        start = self._advance()  # 'extern'
        self._expect(KEYWORD, "fun")
        name = self._expect(IDENT, what="extern name").text
        params = self._parse_params()
        return_type = None
        if self._accept(OP, ":"):
            return_type = self._parse_type()
        effect_name = "state"
        if self._accept(KEYWORD, "is"):
            token = self._peek()
            if token.is_keyword("state") or token.is_keyword("pure"):
                effect_name = self._advance().text
            else:
                raise SyntaxProblem(
                    "extern effect must be 'state' or 'pure'",
                    span=token.span,
                )
        self._expect_newline()
        decl = S.DExtern(self._span_from(start))
        decl.name, decl.params, decl.return_type, decl.effect_name = (
            name, params, return_type, effect_name,
        )
        return decl

    def _parse_page(self):
        start = self._advance()  # 'page'
        name = self._expect(IDENT, what="page name").text
        params = self._parse_params()
        self._expect_newline()
        self._expect(INDENT, what="an indented page body")
        init_block = None
        render_block = None
        while not self._at(DEDENT):
            token = self._peek()
            if token.is_keyword("init"):
                if init_block is not None:
                    raise SyntaxProblem(
                        "page '{}' has two init bodies".format(name),
                        span=token.span,
                    )
                self._advance()
                self._expect_newline()
                init_block = self._parse_block()
            elif token.is_keyword("render"):
                if render_block is not None:
                    raise SyntaxProblem(
                        "page '{}' has two render bodies".format(name),
                        span=token.span,
                    )
                self._advance()
                self._expect_newline()
                render_block = self._parse_block()
            else:
                raise SyntaxProblem(
                    "expected 'init' or 'render' in page body, found "
                    "{}".format(token),
                    span=token.span,
                )
        self._expect(DEDENT)
        decl = S.DPage(self._span_from(start))
        decl.name, decl.params = name, params
        decl.init_block, decl.render_block = init_block, render_block
        return decl

    # -- types -----------------------------------------------------------------

    def _parse_type(self):
        token = self._peek()
        if token.is_keyword("number"):
            return S.TNumber(self._advance().span)
        if token.is_keyword("string"):
            return S.TString(self._advance().span)
        if token.is_keyword("list"):
            self._advance()
            element = self._parse_type()
            return S.TList(token.span.merge(element.span), element)
        if token.is_op("("):
            self._advance()
            close = self._expect(OP, ")", what="')' (only the unit type "
                                 "'()' is written with parentheses)")
            return S.TUnit(token.span.merge(close.span))
        if token.kind == IDENT:
            self._advance()
            return S.TName(token.span, token.text)
        raise SyntaxProblem(
            "expected a type, found {}".format(token), span=token.span
        )

    # -- blocks & statements -------------------------------------------------------

    def _parse_block(self):
        open_tok = self._expect(INDENT, what="an indented block")
        stmts = []
        while not self._at(DEDENT):
            stmts.append(self._parse_stmt())
        close = self._expect(DEDENT)
        return S.Block(stmts, Span(open_tok.span.start, close.span.end))

    def _parse_stmt(self):
        token = self._peek()
        if token.kind == KEYWORD:
            parse_keyword_stmt = _KEYWORD_STMTS.get(token.text)
            if parse_keyword_stmt is not None:
                return parse_keyword_stmt(self)
        elif token.kind == IDENT and self._peek(1).is_op(":="):
            return self._parse_assign()
        return self._parse_expr_stmt()

    def _parse_editable(self):
        start = self._advance()  # 'editable'
        name = self._expect(IDENT, what="global name").text
        self._expect_newline()
        stmt = S.SEditable(self._span_from(start))
        stmt.name = name
        return stmt

    def _parse_pop(self):
        token = self._advance()  # 'pop'
        self._expect_newline()
        return S.SPop(token.span)

    def _parse_var_decl(self):
        start = self._advance()  # 'var'
        name = self._expect(IDENT, what="variable name").text
        self._expect(OP, ":=")
        value = self._parse_expr()
        self._expect_newline()
        stmt = S.SVarDecl(self._span_from(start))
        stmt.name, stmt.value = name, value
        return stmt

    def _parse_assign(self):
        name_tok = self._advance()
        self._expect(OP, ":=")
        value = self._parse_expr()
        self._expect_newline()
        stmt = S.SAssign(self._span_from(name_tok))
        stmt.name, stmt.value = name_tok.text, value
        return stmt

    def _parse_if(self):
        start = self._advance()  # 'if' or 'elif'
        cond = self._parse_expr()
        self._expect(KEYWORD, "then")
        self._expect_newline()
        then_block = self._parse_block()
        else_block = None
        if self._at_keyword("elif"):
            nested = self._parse_if()  # consumes 'elif' as its 'if'
            else_block = S.Block([nested], nested.span)
        elif self._accept(KEYWORD, "else"):
            self._expect_newline()
            else_block = self._parse_block()
        stmt = S.SIf(self._span_from(start))
        stmt.cond, stmt.then_block, stmt.else_block = (
            cond, then_block, else_block,
        )
        return stmt

    def _parse_for(self):
        start = self._advance()  # 'for'
        var = self._expect(IDENT, what="loop variable").text
        if self._accept(KEYWORD, "in"):
            list_expr = self._parse_expr()
            self._expect(KEYWORD, "do")
            self._expect_newline()
            body = self._parse_block()
            stmt = S.SForIn(self._span_from(start))
            stmt.var, stmt.list_expr, stmt.body = var, list_expr, body
            return stmt
        self._expect(OP, "=", what="'in' or '='")
        from_expr = self._parse_expr()
        self._expect(KEYWORD, "to")
        to_expr = self._parse_expr()
        self._expect(KEYWORD, "do")
        self._expect_newline()
        body = self._parse_block()
        stmt = S.SForRange(self._span_from(start))
        stmt.var, stmt.from_expr, stmt.to_expr, stmt.body = (
            var, from_expr, to_expr, body,
        )
        return stmt

    def _parse_while(self):
        start = self._advance()  # 'while'
        cond = self._parse_expr()
        self._expect(KEYWORD, "do")
        self._expect_newline()
        body = self._parse_block()
        stmt = S.SWhile(self._span_from(start))
        stmt.cond, stmt.body = cond, body
        return stmt

    def _parse_boxed(self):
        start = self._advance()  # 'boxed'
        # Assign the id *before* parsing the body so ids follow document
        # order (an outer boxed statement numbers lower than its children).
        box_id = self.box_counter
        self.box_counter += 1
        self._expect_newline()
        body = self._parse_block()
        stmt = S.SBoxed(Span(start.span.start, body.span.end))
        stmt.body = body
        stmt.box_id = box_id
        return stmt

    def _parse_post(self):
        start = self._advance()  # 'post'
        value = self._parse_expr()
        self._expect_newline()
        stmt = S.SPost(self._span_from(start))
        stmt.value = value
        return stmt

    def _parse_set_attr(self):
        start = self._advance()  # 'box'
        self._expect(OP, ".")
        attr_tok = self._peek()
        if attr_tok.kind not in (IDENT, KEYWORD):
            raise SyntaxProblem(
                "expected an attribute name", span=attr_tok.span
            )
        self._advance()
        self._expect(OP, ":=")
        value = self._parse_expr()
        self._expect_newline()
        stmt = S.SSetAttr(self._span_from(start))
        stmt.attr = ATTR_NAME_MAP.get(attr_tok.text, attr_tok.text)
        stmt.value = value
        return stmt

    def _parse_handler(self):
        start = self._advance()  # 'on'
        token = self._peek()
        if token.is_keyword("tap"):
            self._advance()
            kind, param = "tap", None
        elif token.is_keyword("edit"):
            self._advance()
            self._expect(OP, "(")
            param = self._expect(IDENT, what="edit parameter").text
            self._expect(OP, ")")
            kind = "edit"
        else:
            raise SyntaxProblem(
                "expected 'tap' or 'edit' after 'on'", span=token.span
            )
        self._expect(KEYWORD, "do")
        self._expect_newline()
        body = self._parse_block()
        stmt = S.SHandler(Span(start.span.start, body.span.end))
        stmt.kind, stmt.param, stmt.body = kind, param, body
        return stmt

    def _parse_push(self):
        start = self._advance()  # 'push'
        page = self._expect(IDENT, what="page name").text
        self._expect(OP, "(")
        args = []
        if not self._at(OP, ")"):
            while True:
                args.append(self._parse_expr())
                if not self._accept(OP, ","):
                    break
        self._expect(OP, ")")
        self._expect_newline()
        stmt = S.SPush(self._span_from(start))
        stmt.page, stmt.args = page, args
        return stmt

    def _parse_return(self):
        start = self._advance()  # 'return'
        value = None
        if not self._at(NEWLINE):
            value = self._parse_expr()
        self._expect_newline()
        stmt = S.SReturn(self._span_from(start))
        stmt.value = value
        return stmt

    def _parse_expr_stmt(self):
        start = self._peek()
        value = self._parse_expr()
        self._expect_newline()
        stmt = S.SExprStmt(self._span_from(start))
        stmt.value = value
        return stmt

    # -- expressions -----------------------------------------------------------------

    def _parse_expr(self):
        return self._parse_binary(_OR)

    def _parse_binary(self, min_level):
        """Precedence climbing over the binary operators of :data:`_BINARY`.

        Parses what the rule at ``min_level`` of the precedence ladder
        (``or`` < ``and`` < ``not`` < comparison < ``||`` < ``+ -`` <
        ``* / %``) accepts.  ``level`` is the loosest rule the left
        operand has been built with so far: an operator may extend it
        only from a tighter-or-equal level (comparisons: strictly
        tighter — they do not chain), and the right operand is parsed
        one level tighter, so every operator is left-associative.
        """
        token = self.tokens[self.index]
        if (min_level <= _NOT and token.kind == KEYWORD
                and token.text == "not"):
            self.index += 1
            operand = self._parse_binary(_NOT)
            left = S.EUnOp(token.span.merge(operand.span))
            left.op, left.operand = "not", operand
            level = _NOT
        else:
            left = self._parse_unary()
            level = _ATOM
        while True:
            token = self.tokens[self.index]
            if token.kind != OP and token.kind != KEYWORD:
                return left
            op_level = _BINARY.get(token.text)
            if (op_level is None or op_level < min_level
                    or op_level > level
                    or (op_level == _COMPARE and level == _COMPARE)):
                return left
            self.index += 1
            right = self._parse_binary(op_level + 1)
            node = S.EBinOp(left.span.merge(right.span))
            node.op, node.left, node.right = token.text, left, right
            left = node
            level = op_level

    def _parse_unary(self):
        token = self.tokens[self.index]
        if token.kind == OP and token.text == "-":
            self.index += 1
            operand = self._parse_unary()
            node = S.EUnOp(token.span.merge(operand.span))
            node.op, node.operand = "-", operand
            return node
        return self._parse_postfix()

    def _parse_postfix(self):
        expr = self._parse_atom()
        while self._at(OP, "."):
            self._advance()
            field_tok = self._expect(IDENT, what="field name")
            node = S.EField(expr.span.merge(field_tok.span))
            node.target, node.name = expr, field_tok.text
            expr = node
        return expr

    def _parse_atom(self):
        token = self._peek()
        if token.kind == NUMBER:
            self._advance()
            node = S.ENum(token.span)
            node.value = float(token.text)
            return node
        if token.kind == STRING:
            self._advance()
            node = S.EStr(token.span)
            node.value = token.text
            return node
        if token.is_keyword("true") or token.is_keyword("false"):
            self._advance()
            node = S.EBool(token.span)
            node.value = token.text == "true"
            return node
        if token.is_keyword("nil"):
            self._advance()
            self._expect(OP, "(")
            element = self._parse_type()
            close = self._expect(OP, ")")
            node = S.ENil(token.span.merge(close.span))
            node.element = element
            return node
        if token.kind == IDENT:
            self._advance()
            if self._at(OP, "("):
                self._advance()
                args = []
                if not self._at(OP, ")"):
                    while True:
                        args.append(self._parse_expr())
                        if not self._accept(OP, ","):
                            break
                close = self._expect(OP, ")")
                node = S.ECall(token.span.merge(close.span))
                node.name, node.args = token.text, args
                return node
            node = S.EVar(token.span)
            node.name = token.text
            return node
        if token.is_op("("):
            self._advance()
            expr = self._parse_expr()
            self._expect(OP, ")")
            return expr
        if token.is_op("["):
            self._advance()
            items = []
            if not self._at(OP, "]"):
                while True:
                    items.append(self._parse_expr())
                    if not self._accept(OP, ","):
                        break
            close = self._expect(OP, "]")
            node = S.EListLit(token.span.merge(close.span))
            node.items = items
            return node
        raise SyntaxProblem(
            "expected an expression, found {}".format(token), span=token.span
        )


#: Statement keyword → the method parsing the statement it starts.
_KEYWORD_STMTS = {
    "var": _Parser._parse_var_decl,
    "if": _Parser._parse_if,
    "for": _Parser._parse_for,
    "while": _Parser._parse_while,
    "boxed": _Parser._parse_boxed,
    "post": _Parser._parse_post,
    "box": _Parser._parse_set_attr,
    "on": _Parser._parse_handler,
    "editable": _Parser._parse_editable,
    "push": _Parser._parse_push,
    "pop": _Parser._parse_pop,
    "return": _Parser._parse_return,
}
