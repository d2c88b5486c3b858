"""The layout engine: box trees → positioned rectangles.

Layout proceeds in the classic two passes:

1. **measure** — bottom-up natural sizes.  A leaf measures as one text
   line; a box stacks its items vertically (the paper's default) or
   horizontally (``horizontal`` attribute), adds ``padding``, a one-cell
   ``border`` when requested, and reserves ``margin`` around itself.
2. **arrange** — top-down assignment of absolute :class:`Rect`\\ s.

The engine keeps a **measure cache keyed by box object identity**.  Boxes
are immutable once rendered, so a box object always measures the same.
Each :meth:`LayoutEngine.layout` first runs the Section 5 reuse
optimization (:mod:`repro.boxes.diff`) against the root it laid out
last, so a re-render's unchanged subtrees become the previous *objects*
and their whole measure pass turns into cache hits — the identity-cache
benefit benchmark E3 measures.  Reuse lives here, with its only
consumer: the display, ``why()`` and the wire always see the tree the
render produced.  The cache keeps only the boxes of the tree laid out
last, so a long-lived engine does not pin every tree it ever saw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..boxes import diff as box_diff
from ..boxes.attributes import as_number, as_string
from ..boxes.tree import AttrSet, Box, Leaf
from ..core import names
from ..core.errors import ReproError
from ..eval.values import format_for_post
from .geometry import Rect, Size, as_cells


@dataclass
class LayoutNode:
    """A positioned box: absolute rect, text runs, and laid-out children."""

    box: Box
    path: tuple
    rect: Rect                 # the border box (margins lie outside)
    texts: list = field(default_factory=list)   # (x, y, line) absolute
    children: list = field(default_factory=list)

    @property
    def background(self):
        return as_string(self.box.get_attr(names.ATTR_BACKGROUND))

    @property
    def bordered(self):
        return as_number(self.box.get_attr(names.ATTR_BORDER)) > 0

    def walk(self):
        yield self
        for child in self.children:
            for node in child.walk():
                yield node


def _box_metrics(box):
    """margin, padding, border thickness, fixed width for ``box``."""
    margin = as_cells(as_number(box.get_attr(names.ATTR_MARGIN)))
    padding = as_cells(as_number(box.get_attr(names.ATTR_PADDING)))
    border = 1 if as_number(box.get_attr(names.ATTR_BORDER)) > 0 else 0
    fixed_width = as_cells(as_number(box.get_attr(names.ATTR_WIDTH)))
    horizontal = as_number(box.get_attr(names.ATTR_HORIZONTAL)) != 0.0
    return margin, padding, border, fixed_width, horizontal


def _leaf_lines(value):
    """A posted value's display lines (multi-line strings split)."""
    text = format_for_post(value)
    return text.split("\n") if text else [""]


class LayoutEngine:
    """Measures and arranges box trees, caching measures by box identity."""

    def __init__(self):
        # id(box) -> (box, size) for the tree being laid out; the entries
        # of the tree laid out before it wait in ``_previous_measures``
        # and move over as they are hit.
        self._measure_cache = {}
        self._previous_measures = {}
        #: The root of the last :meth:`layout`, which the next one
        #: shares unchanged subtrees with.
        self._last_root = None
        #: Cache statistics (reset per :meth:`layout` call), reported by
        #: benchmark E3.
        self.cache_hits = 0
        self.cache_misses = 0

    def invalidate(self):
        """Drop the cache (e.g. between unrelated programs)."""
        self._measure_cache.clear()
        self._previous_measures.clear()
        self._last_root = None

    # -- measure ----------------------------------------------------------------

    def measure(self, box):
        """Natural *outer* size of ``box`` (including its margin)."""
        key = id(box)
        cached = self._measure_cache.get(key)
        if cached is None:
            cached = self._previous_measures.get(key)
            if cached is not None and cached[0] is box:
                self._measure_cache[key] = cached
        if cached is not None and cached[0] is box:
            self.cache_hits += 1
            return cached[1]
        self.cache_misses += 1
        margin, padding, border, fixed_width, horizontal = _box_metrics(box)
        content_w = 0
        content_h = 0
        for item in box.items:
            if isinstance(item, Leaf):
                lines = _leaf_lines(item.value)
                item_w = max(len(line) for line in lines)
                item_h = len(lines)
            elif isinstance(item, Box):
                size = self.measure(item)
                item_w, item_h = size.width, size.height
            else:
                continue  # attributes occupy no space
            if horizontal:
                content_w += item_w
                content_h = max(content_h, item_h)
            else:
                content_w = max(content_w, item_w)
                content_h += item_h
        # ``width`` sets a *minimum*: a box never shrinks below its
        # content, so children always fit inside their parent's rect (the
        # geometric invariant hit-testing relies on).
        inner_w = max(fixed_width, content_w) if fixed_width > 0 else content_w
        outer = Size(
            inner_w + 2 * (padding + border + margin),
            content_h + 2 * (padding + border + margin),
        )
        # Keep a strong reference to the box so id() stays unambiguous for
        # the lifetime of the cache entry.
        self._measure_cache[id(box)] = (box, outer)
        return outer

    # -- arrange -----------------------------------------------------------------

    def layout(self, root, width=None):
        """Lay out ``root`` at the origin; returns the root LayoutNode.

        ``width`` optionally stretches the root to a device width (pages
        fill the screen), leaving children at natural size.  The nodes'
        boxes are ``root`` with every subtree equal to one of the last
        layout's (content *and* navigation metadata) replaced by that
        subtree's object.
        """
        if not isinstance(root, Box):
            raise ReproError("layout expects a Box, got {!r}".format(root))
        root = box_diff.reuse(self._last_root, root)
        self._last_root = root
        self._previous_measures = self._measure_cache
        self._measure_cache = {}
        self.cache_hits = 0
        self.cache_misses = 0
        natural = self.measure(root)
        outer_w = max(natural.width, width or 0)
        node = self._arrange(root, (), 0, 0, outer_w, natural.height)
        # Arranging measured every box of ``root``, which moved each one
        # into the current cache; what is left behind belongs to no
        # laid-out tree any more.
        self._previous_measures = {}
        return node

    def _arrange(self, box, path, x, y, outer_w, outer_h):
        margin, padding, border, fixed_width, horizontal = _box_metrics(box)
        rect = Rect(
            x + margin, y + margin,
            max(0, outer_w - 2 * margin),
            max(0, outer_h - 2 * margin),
        )
        node = LayoutNode(box=box, path=path, rect=rect)
        cursor_x = rect.x + padding + border
        cursor_y = rect.y + padding + border
        child_index = 0
        for item in box.items:
            if isinstance(item, Leaf):
                lines = _leaf_lines(item.value)
                for offset, line in enumerate(lines):
                    node.texts.append((cursor_x, cursor_y + offset, line))
                if horizontal:
                    cursor_x += max(len(line) for line in lines)
                else:
                    cursor_y += len(lines)
            elif isinstance(item, Box):
                size = self.measure(item)
                child = self._arrange(
                    item,
                    path + (child_index,),
                    cursor_x,
                    cursor_y,
                    size.width,
                    size.height,
                )
                node.children.append(child)
                child_index += 1
                if horizontal:
                    cursor_x += size.width
                else:
                    cursor_y += size.height
        return node
