"""Token kinds for the surface language lexer."""

from __future__ import annotations

from typing import NamedTuple

from .span import Span

# Token kind constants.
NUMBER = "NUMBER"
STRING = "STRING"
IDENT = "IDENT"
KEYWORD = "KEYWORD"
OP = "OP"
NEWLINE = "NEWLINE"
INDENT = "INDENT"
DEDENT = "DEDENT"
EOF = "EOF"

#: Reserved words.  ``box`` is reserved so ``box.margin := e`` is
#: unambiguous; ``true``/``false`` are numeric-boolean literals.
KEYWORDS = frozenset(
    {
        "global",
        "record",
        "fun",
        "page",
        "init",
        "render",
        "var",
        "if",
        "then",
        "else",
        "elif",
        "for",
        "in",
        "to",
        "do",
        "while",
        "boxed",
        "post",
        "box",
        "on",
        "tap",
        "edit",
        "push",
        "pop",
        "return",
        "not",
        "and",
        "or",
        "true",
        "false",
        "nil",
        "number",
        "string",
        "list",
        "extern",
        "is",
        "state",
        "pure",
        "editable",
    }
)

#: Multi-character operators, longest first so the lexer can match greedily.
OPERATORS = (
    ":=",
    "||",
    "==",
    "!=",
    "<=",
    ">=",
    "(",
    ")",
    "[",
    "]",
    ",",
    ":",
    ".",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
)


class Token(NamedTuple):
    """One lexical token with its source span (a named tuple, like
    :class:`~repro.surface.span.Span`, so the lexer builds it cheaply)."""

    kind: str
    text: str
    span: Span

    def is_keyword(self, word):
        return self.kind == KEYWORD and self.text == word

    def is_op(self, op):
        return self.kind == OP and self.text == op

    def __str__(self):
        if self.kind in (NEWLINE, INDENT, DEDENT, EOF):
            return self.kind
        return "{}({!r})".format(self.kind, self.text)
