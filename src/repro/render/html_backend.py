"""HTML backend: box trees → nested ``<div>`` markup.

TouchDevelop is "a device independent browser-based programming language
and development environment"; its box trees render to the DOM, "akin to
TeX and HTML" (Section 1).  This backend produces the equivalent nested
markup so the examples can dump a browsable page, and so tests can check
that attribute semantics (margins, colours, layout direction) survive a
second, independent backend.

The markup is self-contained (inline styles only) and deterministic.
Event handlers are emitted as ``data-`` annotations — they are closures,
which have no meaning outside the running system.
"""

from __future__ import annotations

import hashlib
import html as html_escape

from ..boxes.attributes import ATTRIBUTE_ENV, as_number, as_string
from ..boxes.tree import AttrSet, Box, Leaf
from ..core import names
from ..core.errors import ReproError
from ..core.types import NumberType
from ..eval.values import format_for_post

_STYLE_KEYS = {
    names.ATTR_MARGIN: lambda v: "margin:{}px".format(int(8 * v)),
    names.ATTR_PADDING: lambda v: "padding:{}px".format(int(8 * v)),
    names.ATTR_BACKGROUND: lambda v: "background:{}".format(_css_color(v)),
    names.ATTR_COLOR: lambda v: "color:{}".format(_css_color(v)),
    names.ATTR_FONT_SIZE: lambda v: "font-size:{}em".format(v),
    names.ATTR_WIDTH: lambda v: "width:{}ch".format(int(v)),
    names.ATTR_BORDER: lambda v: (
        "border:1px solid #444" if v else "border:none"
    ),
    names.ATTR_HORIZONTAL: lambda v: (
        "flex-direction:row" if v else "flex-direction:column"
    ),
}


def _css_color(name):
    """Map the language's colour names to CSS (spaces become dashes)."""
    return str(name).strip().replace(" ", "") or "transparent"


def box_style(box):
    """The inline CSS for one box's effective attributes."""
    rules = ["display:flex", "flex-direction:column"]
    for attr_name, value in box.attributes().items():
        style = _STYLE_KEYS.get(attr_name)
        if style is None:
            continue
        spec = ATTRIBUTE_ENV.get(attr_name)
        if spec is not None and isinstance(spec.type, NumberType):
            value = as_number(value)
        else:
            value = as_string(value)
        rules.append(style(value))
    return ";".join(rules)


def render_html_fragment(box, indent=0):
    """One box (and its content) as an HTML fragment."""
    if not isinstance(box, Box):
        raise ReproError("render_html_fragment expects a Box")
    return _fragment(box, indent, keep=False)


def _fragment(box, indent, keep=True):
    """``box``'s markup at ``indent``, served from and kept in the box.

    A frozen box's markup never changes, so the fragment is cached on the
    box — keyed by indent, because leaf text may contain newlines and a
    fragment is therefore never re-indented.  Memo replay splices the
    same frozen subtrees into every render (and, over a shared store,
    into every session), so a replayed subtree costs one slot read.
    Only boxes that :meth:`~repro.boxes.tree.Box.keeps_fragment` store
    theirs, which bounds cached text to ``1 + log2(boxes)`` times the
    document; ``keep=False`` (the page root, whose document the caller
    holds anyway) stores nothing.

    Two threads rendering one shared box may both miss and both write
    the slot.  That race is benign: the box is immutable, so both compute
    the same text, and a slot assignment is atomic — a reader sees
    either nothing or a complete ``(indent, text)`` pair.
    """
    cached = box._fragment
    if cached is not None and cached[0] == indent:
        return cached[1]
    pad = "  " * indent
    handlers = [
        name
        for name in (names.ATTR_ONTAP, names.ATTR_ONEDIT)
        if box.has_attr(name)
    ]
    data = "".join(' data-{}="1"'.format(h) for h in handlers)
    if box.box_id is not None:
        data += ' data-box-id="{}" data-occurrence="{}"'.format(
            box.box_id, box.occurrence
        )
    lines = [
        '{}<div style="{}"{}>'.format(pad, box_style(box), data)
    ]
    for item in box.items:
        if isinstance(item, Leaf):
            lines.append(
                "{}  <span>{}</span>".format(
                    pad, html_escape.escape(format_for_post(item.value))
                )
            )
        elif isinstance(item, Box):
            lines.append(_fragment(item, indent + 1))
    lines.append("{}</div>".format(pad))
    text = "\n".join(lines)
    if keep and box.keeps_fragment():
        box._fragment = (indent, text)
    return text


def render_html(display, title="repro page"):
    """A complete standalone HTML document for a display tree."""
    return (
        "<!DOCTYPE html>\n<html>\n<head>\n"
        '<meta charset="utf-8"/>\n<title>{}</title>\n'
        "</head>\n<body>\n{}\n</body>\n</html>\n".format(
            html_escape.escape(title), render_html_fragment(display, 1)
        )
    )


def content_hash(data):
    """The SHA-256 hex digest of ``data`` (bytes)."""
    return hashlib.sha256(data).hexdigest()


def display_fingerprint(display):
    """A stable content hash of a display's HTML rendition.

    The markup is deterministic (inline styles, document-order
    traversal), so two displays fingerprint equal iff their HTML bytes
    are identical.  It hashes the indent-1 fragment that
    :func:`render_html` embeds, so both share the cached fragments of
    the display's subtrees.
    """
    return content_hash(render_html_fragment(display, 1).encode("utf-8"))
