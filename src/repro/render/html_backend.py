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
from html import escape

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
#: Handler attributes, flagged as ``data-`` annotations in this order.
_HANDLERS = (names.ATTR_ONTAP, names.ATTR_ONEDIT)


def _css_color(name):
    """Map the language's colour names to CSS (spaces become dashes)."""
    return str(name).strip().replace(" ", "") or "transparent"


def box_style(box):
    """The inline CSS for one box's effective attributes."""
    return _style(box.attributes())


def _style(attributes):
    """The inline CSS for an ``{name: value}`` map of effective
    attributes."""
    rules = ["display:flex", "flex-direction:column"]
    for attr_name, value in attributes.items():
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
    return _fragment(box, indent, keep=False)[0]


def _fragment(box, indent, keep=True):
    """``(text, boxes, height, reach)`` of ``box`` at ``indent``, in one
    walk of its items.

    ``text`` is the box's markup; ``boxes`` and ``height`` are its
    :meth:`~repro.boxes.tree.Box.shape`; ``reach`` is the box count of
    the largest box in the subtree that keeps its fragment (0 when none
    does).  The handler flags, style, leaves and children all come from
    the same pass over ``box.items``, and the shape and reach are summed
    from the children as the recursion returns.  A frozen box stores
    its shape and reach, and its fragment if it keeps one.

    A frozen box's markup never changes, so the fragment is cached on
    the box — keyed by indent, because leaf text may contain newlines
    and a fragment is therefore never re-indented.  Memo replay splices
    the same frozen subtrees into every render (and, over a shared
    store, into every session), so a replayed subtree costs one slot
    read.  ``keep=False`` (the page root, whose document the caller
    holds anyway) stores nothing.

    Cached markup stays linear in the document: a frozen box keeps its
    fragment only if it has at least twice the boxes of the largest
    keeper below it.  Keepers on any root-to-leaf path then at least
    double in size, so a box's markup is held by at most
    ``1 + log2(boxes)`` fragments, whatever the tree's shape (a naive
    cache on a deep chain holds quadratic text).

    Two threads rendering one shared box may both miss and both write
    the slots.  That race is benign: the box is immutable, so both
    compute the same values, and a slot assignment is atomic — a reader
    sees either nothing or a complete ``(indent, text)`` pair, and the
    fragment is written last.
    """
    cached = box._fragment
    if cached is not None and cached[0] == indent:
        return (cached[1],) + box._shape + (box._reach,)
    pad = "  " * indent
    leaf_open = pad + "  <span>"
    body = []
    attributes = {}
    boxes, below, reach_below = 1, 0, 0
    for item in box.items:
        kind = type(item)
        if kind is Leaf:
            body.append(
                leaf_open + escape(format_for_post(item.value)) + "</span>"
            )
        elif kind is AttrSet:
            attributes[item.name] = item.value
        else:
            text, kid_boxes, kid_height, kid_reach = _fragment(
                item, indent + 1
            )
            body.append(text)
            boxes += kid_boxes
            if kid_height > below:
                below = kid_height
            if kid_reach > reach_below:
                reach_below = kid_reach
    data = "".join(
        ' data-{}="1"'.format(name) for name in _HANDLERS
        if name in attributes
    )
    if box.box_id is not None:
        data += ' data-box-id="{}" data-occurrence="{}"'.format(
            box.box_id, box.occurrence
        )
    body.append(pad + "</div>")
    text = '{}<div style="{}"{}>\n'.format(
        pad, _style(attributes), data
    ) + "\n".join(body)
    height = below + 1
    if box._frozen:
        reach = boxes if boxes >= 2 * reach_below else reach_below
        box._shape = (boxes, height)
        box._reach = reach
        if keep and reach == boxes:
            box._fragment = (indent, text)
    else:
        reach = reach_below
    return text, boxes, height, reach


def render_html(display, title="repro page"):
    """A complete standalone HTML document for a display tree."""
    return (
        "<!DOCTYPE html>\n<html>\n<head>\n"
        '<meta charset="utf-8"/>\n<title>{}</title>\n'
        "</head>\n<body>\n{}\n</body>\n</html>\n".format(
            escape(title), render_html_fragment(display, 1)
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
