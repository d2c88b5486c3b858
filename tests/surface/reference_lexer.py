"""The character-loop lexer, kept as the oracle for the table-driven one.

This is the surface lexer as it was before :mod:`repro.surface.lexer`
became a master-regex scanner: it walks the source one character at a
time and classifies characters with ``str.isdigit`` / ``str.isalpha`` /
``str.isalnum``.  ``tests/surface/test_lexer_differential.py`` checks
that both produce the same tokens, spans and ``SyntaxProblem`` message
and span on every input.  Nothing outside ``tests/`` imports it.
"""


from __future__ import annotations

from repro.core.errors import SyntaxProblem
from repro.surface.span import Pos, Span
from repro.surface.tokens import (
    DEDENT,
    EOF,
    IDENT,
    INDENT,
    KEYWORD,
    KEYWORDS,
    NEWLINE,
    NUMBER,
    OP,
    OPERATORS,
    STRING,
    Token,
)


def tokenize(source):
    """Lex ``source`` into a list of tokens ending with EOF.

    Raises :class:`SyntaxProblem` on malformed input (bad indentation,
    unterminated strings, stray characters).
    """
    return _Lexer(source).run()


class _Lexer:
    def __init__(self, source):
        self.source = source
        self.offset = 0
        self.line = 1
        self.column = 0
        self.tokens = []
        self.indents = [0]

    # -- position helpers ---------------------------------------------------

    def _pos(self):
        return Pos(self.line, self.column, self.offset)

    def _advance(self, count=1):
        for _ in range(count):
            if self.offset < len(self.source) and self.source[self.offset] == "\n":
                self.line += 1
                self.column = 0
            else:
                self.column += 1
            self.offset += 1

    def _peek(self, ahead=0):
        index = self.offset + ahead
        return self.source[index] if index < len(self.source) else ""

    def _emit(self, kind, text, start):
        self.tokens.append(Token(kind, text, Span(start, self._pos())))

    # -- main loop -------------------------------------------------------------

    def run(self):
        at_line_start = True
        while self.offset < len(self.source):
            if at_line_start:
                if self._handle_line_start():
                    continue  # the line was blank or a comment
                at_line_start = False
            char = self._peek()
            if char == "\n":
                self._emit(NEWLINE, "\n", self._pos())
                self._advance()
                at_line_start = True
            elif char in " \t":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                self._skip_comment()
            elif char.isdigit() or (char == "." and self._peek(1).isdigit()):
                self._lex_number()
            elif char == '"':
                self._lex_string()
            elif char.isalpha() or char == "_":
                self._lex_word()
            else:
                self._lex_operator()
        # Close the final line and any open blocks.
        if self.tokens and self.tokens[-1].kind not in (NEWLINE, DEDENT):
            self._emit(NEWLINE, "", self._pos())
        while len(self.indents) > 1:
            self.indents.pop()
            self._emit(DEDENT, "", self._pos())
        self._emit(EOF, "", self._pos())
        return self.tokens

    def _handle_line_start(self):
        """Measure indentation; emit INDENT/DEDENT.  True if line skipped."""
        start_offset = self.offset
        width = 0
        # NB: the emptiness check matters — ``"" in " \t"`` is True, so a
        # file ending in indentation would otherwise spin here forever.
        while self._peek() != "" and self._peek() in " \t":
            width += 4 if self._peek() == "\t" else 1
            self._advance()
        # Blank line or comment-only line: ignore entirely.
        if self._peek() in ("\n", ""):
            if self._peek() == "\n":
                self._advance()
            return True
        if self._peek() == "/" and self._peek(1) == "/":
            self._skip_comment()
            if self._peek() == "\n":
                self._advance()
            return True
        current = self.indents[-1]
        if width > current:
            self.indents.append(width)
            self._emit(INDENT, "", self._pos())
        else:
            while width < self.indents[-1]:
                self.indents.pop()
                self._emit(DEDENT, "", self._pos())
            if width != self.indents[-1]:
                raise SyntaxProblem(
                    "inconsistent indentation (width {})".format(width),
                    span=Span(self._pos(), self._pos()),
                )
        return False

    # -- token lexers --------------------------------------------------------------

    def _skip_comment(self):
        while self._peek() not in ("\n", ""):
            self._advance()

    def _lex_number(self):
        start = self._pos()
        text = []
        seen_dot = False
        while self._peek().isdigit() or (self._peek() == "." and not seen_dot
                                         and self._peek(1).isdigit()):
            if self._peek() == ".":
                seen_dot = True
            text.append(self._peek())
            self._advance()
        self._emit(NUMBER, "".join(text), start)

    def _lex_string(self):
        start = self._pos()
        self._advance()  # opening quote
        text = []
        while True:
            char = self._peek()
            if char == "":
                raise SyntaxProblem(
                    "unterminated string literal", span=Span(start, self._pos())
                )
            if char == "\n":
                raise SyntaxProblem(
                    "newline in string literal", span=Span(start, self._pos())
                )
            if char == "\\":
                escape = self._peek(1)
                mapping = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
                if escape not in mapping:
                    raise SyntaxProblem(
                        "unknown escape \\{}".format(escape),
                        span=Span(self._pos(), self._pos()),
                    )
                text.append(mapping[escape])
                self._advance(2)
                continue
            if char == '"':
                self._advance()
                break
            text.append(char)
            self._advance()
        self._emit(STRING, "".join(text), start)

    def _lex_word(self):
        start = self._pos()
        text = []
        while self._peek().isalnum() or self._peek() == "_":
            text.append(self._peek())
            self._advance()
        word = "".join(text)
        self._emit(KEYWORD if word in KEYWORDS else IDENT, word, start)

    def _lex_operator(self):
        start = self._pos()
        for op in OPERATORS:
            if self.source.startswith(op, self.offset):
                self._advance(len(op))
                self._emit(OP, op, start)
                return
        raise SyntaxProblem(
            "unexpected character {!r}".format(self._peek()),
            span=Span(start, start),
        )
