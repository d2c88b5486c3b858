"""Indentation-aware lexer for the surface language.

Blocks are delimited by indentation (as the paper's figures typeset
TouchDevelop code), so the lexer synthesizes INDENT/DEDENT tokens the way
Python's tokenizer does: a stack of indentation widths, with a NEWLINE
token at the end of every logical line.  Blank lines and ``//`` comments
are skipped entirely.

The live editor lexes the whole buffer on every edit, so the scanner is
table-driven: one compiled master regex (:data:`_TOKEN`) matches each
token together with the spaces before it, and :data:`_LINE_START` skips
blank and comment lines and measures the indentation once per line.
Tokens never span lines, so a column is its offset minus the offset of
the line's first character.

Character classes follow ``str.isdigit`` / ``str.isalpha`` /
``str.isalnum``.  The master regex spells out the ASCII ones and ``\\w``
(which is exactly ``isalnum`` plus ``_``); a token that starts with, or
whose number runs into, any other character goes to :func:`_lex_other`,
which classifies it with the ``str`` methods.
"""

from __future__ import annotations

import re

from ..core.errors import SyntaxProblem
from .span import Pos, Span
from .tokens import (
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

#: One token and the spaces before it.  A number or ``.`` that touches a
#: non-ASCII character (which might be a digit to ``str.isdigit``)
#: falls through to :func:`_lex_other`, as does any stray character.
_TOKEN = re.compile(
    r"""[ \t]*(?:
        (?P<word>[A-Za-z_]\w*)
      | (?P<op>:=|\|\||[=!<>]=|[()\[\],:+\-*%<>=]|/(?!/)
            |\.(?![0-9\x80-\U0010ffff]))
      | (?P<newline>\n)
      | (?P<number>(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)
            (?!\.?[0-9\x80-\U0010ffff]))
      | (?P<string>"[^"\\\n]*(?:\\[nt"\\][^"\\\n]*)*")
      | (?P<comment>//[^\n]*)
    )""",
    re.VERBOSE,
)

#: Blank and comment-only lines, then the next line's indentation.
_LINE_START = re.compile(r"((?:[ \t]*(?://[^\n]*)?\n)*)([ \t]*)")

_SPACES = re.compile(r"[ \t]*")
_WORD_REST = re.compile(r"\w*")
_STRING_BODY = re.compile(r'[^"\\\n]*(?:\\[nt"\\][^"\\\n]*)*')
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# Tuple construction without the keyword-friendly ``__new__`` wrappers.
_tuple = tuple.__new__


def tokenize(source, start=0, end=None, line=1):
    """Lex ``source`` into a list of tokens ending with EOF.

    ``start``/``end`` lex only the lines ``source[start:end]`` (``start``
    at the start of line ``line``), with positions in ``source`` as a
    whole: a top-level declaration lexes alone exactly as it does inside
    its program, followed by the tokens that close it.

    Raises :class:`SyntaxProblem` on malformed input (bad indentation,
    unterminated strings, stray characters).
    """
    tokens = []
    append = tokens.append
    indents = [0]
    size = len(source) if end is None else end
    match = _TOKEN.match
    offset = start
    line_start = start
    at_line_start = True
    while offset < size:
        if at_line_start:
            blank, indent = _LINE_START.match(source, offset, size).groups()
            if blank:
                line += blank.count("\n")
                line_start = offset + len(blank)
            offset = line_start + len(indent)
            if offset == size or source.startswith("//", offset, size):
                offset = size  # only blank lines and a comment remain
                break
            at_line_start = False
            width = len(indent) + 3 * indent.count("\t")
            here = _tuple(Pos, (line, offset - line_start, offset))
            if width > indents[-1]:
                indents.append(width)
                append(_tuple(Token, (INDENT, "", _tuple(Span, (here, here)))))
            else:
                while width < indents[-1]:
                    indents.pop()
                    append(_tuple(
                        Token, (DEDENT, "", _tuple(Span, (here, here)))
                    ))
                if width != indents[-1]:
                    raise SyntaxProblem(
                        "inconsistent indentation (width {})".format(width),
                        span=Span(here, here),
                    )
        found = match(source, offset, size)
        if found is None:
            offset = _lex_other(source, offset, size, line, line_start, append)
            continue
        kind = found.lastgroup
        start, offset = found.span(kind)
        if kind == "word":
            text = source[start:offset]
            kind = KEYWORD if text in KEYWORDS else IDENT
        elif kind == "op":
            text = source[start:offset]
            kind = OP
        elif kind == "newline":
            here = _tuple(Pos, (line, start - line_start, start))
            append(_tuple(Token, (NEWLINE, "\n", _tuple(Span, (here, here)))))
            line += 1
            line_start = offset
            at_line_start = True
            continue
        elif kind == "number":
            text = source[start:offset]
            kind = NUMBER
        elif kind == "string":
            text = source[start + 1:offset - 1]
            if "\\" in text:
                text = _ESCAPE.sub(_unescape, text)
            kind = STRING
        else:
            continue  # a comment
        append(_tuple(Token, (kind, text, _tuple(Span, (
            _tuple(Pos, (line, start - line_start, start)),
            _tuple(Pos, (line, offset - line_start, offset)),
        )))))
    # Close the final line and any open blocks.
    here = Pos(line, offset - line_start, offset)
    if tokens and tokens[-1].kind not in (NEWLINE, DEDENT):
        append(Token(NEWLINE, "", Span(here, here)))
    while len(indents) > 1:
        indents.pop()
        append(Token(DEDENT, "", Span(here, here)))
    append(Token(EOF, "", Span(here, here)))
    return tokens


def _unescape(match):
    return _ESCAPES[match.group(1)]


def _lex_other(source, offset, size, line, line_start, append):
    """Lex the one token at ``offset`` the master regex left alone.

    That is trailing spaces, a malformed string, or a token whose class
    depends on a non-ASCII character.  Appends the token (if any) and
    returns the offset after it; raises :class:`SyntaxProblem` for a
    character that starts no token.
    """
    start = _SPACES.match(source, offset, size).end()
    if start == size:
        return start

    def pos(at):
        return Pos(line, at - line_start, at)

    char = source[start]
    following = source[start + 1:start + 2]
    if char == '"':
        _string_problem(source, start, pos)
    if char.isdigit() or (char == "." and following.isdigit()):
        end = start
        seen_dot = False
        while end < size:
            if source[end].isdigit():
                end += 1
            elif (source[end] == "." and not seen_dot
                  and source[end + 1:end + 2].isdigit()):
                seen_dot = True
                end += 1
            else:
                break
        kind = NUMBER
    elif char.isalpha() or char == "_":
        end = _WORD_REST.match(source, start + 1).end()
        kind = KEYWORD if source[start:end] in KEYWORDS else IDENT
    else:
        for op in OPERATORS:
            if source.startswith(op, start):
                break
        else:
            raise SyntaxProblem(
                "unexpected character {!r}".format(char),
                span=Span(pos(start), pos(start)),
            )
        end = start + len(op)
        kind = OP
    append(Token(kind, source[start:end], Span(pos(start), pos(end))))
    return end


def _string_problem(source, start, pos):
    """Raise the diagnostic for the malformed string literal at ``start``."""
    stop = _STRING_BODY.match(source, start + 1).end()
    if stop == len(source):
        raise SyntaxProblem(
            "unterminated string literal", span=Span(pos(start), pos(stop))
        )
    if source[stop] == "\n":
        raise SyntaxProblem(
            "newline in string literal", span=Span(pos(start), pos(stop))
        )
    # The body stops at a backslash that starts no known escape.
    raise SyntaxProblem(
        "unknown escape \\{}".format(source[stop + 1:stop + 2]),
        span=Span(pos(stop), pos(stop)),
    )
