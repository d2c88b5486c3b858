"""The UI–code navigation source map (Fig. 2).

Maps every ``boxed`` statement's ``box_id`` to its source span (and some
editing metadata).  Together with the ``box_id`` tags the render machine
stamps on boxes, this gives both navigation directions:

* **live view → code view**: the tapped box's ``box_id`` looks up the
  boxed statement's span, which the editor highlights;
* **code view → live view**: a cursor position finds the innermost
  enclosing boxed statement, whose ``box_id`` selects *all* boxes it
  created (a boxed statement in a loop selects many boxes, which are
  "collectively selected").

The per-entry ``attr_spans`` and indentation are what direct manipulation
uses to splice ``box.attr := v`` lines into the right place in the source.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import surface_ast as S


@dataclass
class BoxedEntry:
    """Source facts about one ``boxed`` statement."""

    box_id: int
    span: object               # span of the whole boxed statement
    body_span: object          # span of its indented body
    body_indent: int           # column where body statements start
    attr_spans: dict = field(default_factory=dict)  # attr → SSetAttr span
    page: str = None           # enclosing page (or function) name


class SourceMap:
    """All boxed statements of one compiled program, keyed by box id."""

    def __init__(self, entries=()):
        self._entries = {entry.box_id: entry for entry in entries}

    def entry(self, box_id):
        """The :class:`BoxedEntry` for ``box_id`` or ``None``."""
        return self._entries.get(box_id)

    def span_of(self, box_id):
        entry = self._entries.get(box_id)
        return entry.span if entry else None

    def box_ids(self):
        return tuple(sorted(self._entries))

    def __len__(self):
        return len(self._entries)

    def boxed_at_offset(self, offset):
        """The innermost boxed statement whose span contains ``offset``."""
        best = None
        for entry in self._entries.values():
            if entry.span.contains_offset(offset):
                if best is None or entry.span.length < best.span.length:
                    best = entry
        return best

    def boxed_at_line(self, line):
        """The innermost boxed statement covering source ``line`` (1-based)."""
        best = None
        for entry in self._entries.values():
            if entry.span.contains_line(line):
                if best is None or entry.span.length < best.span.length:
                    best = entry
        return best


def build_sourcemap(program):
    """Collect every ``boxed`` statement of a parsed program."""
    return SourceMap(
        entry for decl in program.decls for entry in decl_entries(decl)
    )


def decl_entries(decl):
    """The :class:`BoxedEntry` of every ``boxed`` statement in one
    declaration, in document order."""
    entries = []

    def walk_block(block, owner):
        for stmt in block.stmts:
            walk_stmt(stmt, owner)

    def walk_stmt(stmt, owner):
        if isinstance(stmt, S.SBoxed):
            attr_spans = {
                child.attr: child.span
                for child in stmt.body.stmts
                if isinstance(child, S.SSetAttr)
            }
            indent = _body_indent(stmt)
            entries.append(
                BoxedEntry(
                    box_id=stmt.box_id,
                    span=stmt.span,
                    body_span=stmt.body.span,
                    body_indent=indent,
                    attr_spans=attr_spans,
                    page=owner,
                )
            )
            walk_block(stmt.body, owner)
        elif isinstance(stmt, S.SIf):
            walk_block(stmt.then_block, owner)
            if stmt.else_block is not None:
                walk_block(stmt.else_block, owner)
        elif isinstance(stmt, (S.SForIn, S.SForRange, S.SWhile)):
            walk_block(stmt.body, owner)
        elif isinstance(stmt, S.SHandler):
            walk_block(stmt.body, owner)

    if isinstance(decl, S.DPage):
        if decl.init_block is not None:
            walk_block(decl.init_block, decl.name)
        if decl.render_block is not None:
            walk_block(decl.render_block, decl.name)
    elif isinstance(decl, S.DFun):
        walk_block(decl.body, decl.name)
    return entries


def _body_indent(boxed_stmt):
    """Column where the boxed body's statements start (for code splicing)."""
    if boxed_stmt.body.stmts:
        return boxed_stmt.body.stmts[0].span.start.column
    return boxed_stmt.span.start.column + 2
