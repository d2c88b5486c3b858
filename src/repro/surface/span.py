"""Source spans for the surface language.

Spans drive three features: precise diagnostics from the parser and
checker, the code-view side of Fig. 2's UI-code navigation (a box maps to
the span of the ``boxed`` statement that created it), and direct
manipulation (attribute edits are spliced into the source at a span).

The lexer builds one :class:`Pos` pair and one :class:`Span` per token,
so both are named tuples: immutable, hashable and equal by value like a
frozen dataclass, with the same ``repr``, at a fraction of the
construction cost.
"""

from __future__ import annotations

from typing import NamedTuple


class Pos(NamedTuple):
    """A position: 1-based line, 0-based column, and absolute offset."""

    line: int
    column: int
    offset: int

    def __str__(self):
        return "{}:{}".format(self.line, self.column + 1)


class Span(NamedTuple):
    """A half-open source region ``[start, end)``."""

    start: Pos
    end: Pos

    def __str__(self):
        if self.start.line == self.end.line:
            return "line {}, cols {}-{}".format(
                self.start.line, self.start.column + 1, self.end.column + 1
            )
        return "lines {}-{}".format(self.start.line, self.end.line)

    def contains_offset(self, offset):
        return self.start.offset <= offset < self.end.offset

    def contains_line(self, line):
        return self.start.line <= line <= self.end.line

    def merge(self, other):
        """The smallest span covering both."""
        start = min(self.start, other.start, key=lambda p: p.offset)
        end = max(self.end, other.end, key=lambda p: p.offset)
        return Span(start, end)

    @property
    def length(self):
        return self.end.offset - self.start.offset


def dummy_span():
    """A span for synthesized nodes with no source text."""
    origin = Pos(0, 0, 0)
    return Span(origin, origin)
