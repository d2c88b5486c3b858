"""Box content ``B`` (Fig. 7).

    B ::= ε | B v | B [a = v] | B ⟨B⟩

A box's content is an ordered sequence of *items*: posted leaf values
(ER-POST), attribute settings (ER-ATTR) and nested boxes (ER-BOXED).  The
display ``D`` is either a single root :class:`Box` (the paper's "implicit
top-level box") or stale (``⊥``, represented at the system level, not
here).

Boxes are **second-class**: user code never holds a reference to one.  They
are produced only by the render machine and consumed only by the renderer,
the hit-tester and the IDE.  Nothing in this module is reachable from
:mod:`repro.eval.values`, which is the structural guarantee behind the
paper's "the display content cannot be read by the code".

``meta`` fields (``box_id``, ``occurrence``) support Fig. 2's UI–code
navigation and never participate in structural equality.

A frozen box never changes again, so it also carries facts derived from
its subtree, computed on first use: its box count and nesting height
and (filled in by :mod:`repro.render.html_backend`'s one pass) the size
of the largest fragment-keeping box below it and its HTML fragment.
The render memo splices the same frozen subtrees into every display
that replays them, so those facts are computed once per subtree, not
once per render.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from ..core.errors import ReproError


class BoxItem:
    """Base class of the three content item kinds."""

    __slots__ = ()


@dataclass(frozen=True)
class Leaf(BoxItem):
    """``B v`` — posted content (a runtime value, usually a string)."""

    value: object
    __slots__ = ("value",)


@dataclass(frozen=True)
class AttrSet(BoxItem):
    """``B [a = v]`` — an attribute written by ``box.a := v``."""

    name: str
    value: object
    __slots__ = ("name", "value")


#: The fragment slot of a box whose HTML fragment is never kept
#: (:meth:`Box.freeze`, :func:`repro.render.html_backend._fragment`).
NO_FRAGMENT = (None, "")


class Box(BoxItem):
    """``B ⟨B⟩`` — a box with ordered content items.

    Mutable only while the render machine is accumulating content; callers
    should treat rendered trees as immutable (:meth:`freeze` enforces it).
    """

    __slots__ = (
        "items", "box_id", "occurrence", "_frozen",
        "_shape", "_reach", "_fragment",
    )

    def __init__(self, items=(), box_id=None, occurrence=None):
        self.items = list(items)
        #: id of the ``boxed`` statement that created this box (or None for
        #: the implicit root); used by UI-code navigation.
        self.box_id = box_id
        #: which dynamic occurrence of that statement this is (0-based);
        #: a boxed statement in a loop yields many occurrences (Fig. 2).
        self.occurrence = occurrence
        self._frozen = False
        # Derived facts of a frozen subtree (see shape and
        # repro.render.html_backend._fragment).
        self._shape = None
        self._reach = None
        self._fragment = None

    # -- construction (render machine only) ---------------------------------

    def _check_mutable(self):
        if self._frozen:
            raise ReproError("box tree is frozen; displays are immutable")

    def append_leaf(self, value):
        """ER-POST: append posted content."""
        self._check_mutable()
        self.items.append(Leaf(value))

    def append_attr(self, name, value):
        """ER-ATTR: append an attribute setting."""
        self._check_mutable()
        self.items.append(AttrSet(name, value))

    def append_child(self, box):
        """ER-BOXED: nest a finished child box."""
        self._check_mutable()
        if not isinstance(box, Box):
            raise ReproError("append_child expects a Box")
        self.items.append(box)

    def freeze(self, keep_fragments=True):
        """Recursively mark the tree immutable (done when render finishes).

        Records each box's :meth:`shape` as it returns, so reading it
        after a render costs no second recursion.  Stops at subtrees that
        are already frozen, so splicing a frozen memo entry into a page
        costs nothing here.

        ``keep_fragments=False`` marks every box it freezes as never
        keeping its HTML fragment (:data:`NO_FRAGMENT`).  A memoized
        render freezes its page-level boxes so: the page's memo entry
        holds them once per page variant, and their fragments would
        repeat, in every variant, the markup of the memoized subtrees
        below them, which keep their own.
        """
        if self._frozen:
            return self
        self._frozen = True
        if not keep_fragments:
            self._fragment = NO_FRAGMENT
        count, below = 1, 0
        for item in self.items:
            if isinstance(item, Box):
                kid_count, kid_height = item.freeze(keep_fragments).shape()
                count += kid_count
                if kid_height > below:
                    below = kid_height
        self._shape = (count, below + 1)
        return self

    # -- queries -------------------------------------------------------------

    def children(self):
        """Nested boxes, in order."""
        return [item for item in self.items if isinstance(item, Box)]

    def leaves(self):
        """Posted leaf values, in order."""
        return [item.value for item in self.items if isinstance(item, Leaf)]

    def attributes(self):
        """Effective attributes: later ``box.a := v`` writes win."""
        result = {}
        for item in self.items:
            if isinstance(item, AttrSet):
                result[item.name] = item.value
        return result

    def get_attr(self, name, default=None):
        """The effective value of attribute ``name`` (last write wins)."""
        value = default
        for item in self.items:
            if isinstance(item, AttrSet) and item.name == name:
                value = item.value
        return value

    def has_attr(self, name):
        """Does any ``[a = v]`` item with this name occur?  (Premise of TAP.)"""
        return any(
            isinstance(item, AttrSet) and item.name == name
            for item in self.items
        )

    def child(self, index):
        """The ``index``-th nested box."""
        kids = self.children()
        try:
            return kids[index]
        except IndexError:
            raise ReproError(
                "box has {} children, no child {}".format(len(kids), index)
            )

    def walk(self, path=()):
        """Yield ``(path, box)`` for this box and all descendants, pre-order.

        Paths are tuples of child indices; ``()`` is this box itself.
        """
        yield path, self
        for index, kid in enumerate(self.children()):
            for item in kid.walk(path + (index,)):
                yield item

    def shape(self):
        """``(boxes, height)`` of the tree: its box count and how many
        boxes deep it nests (cached once frozen)."""
        shape = self._shape
        if shape is None:
            count, below = 1, 0
            for item in self.items:
                if isinstance(item, Box):
                    kid_count, kid_height = item.shape()
                    count += kid_count
                    below = max(below, kid_height)
            shape = (count, below + 1)
            if self._frozen:
                self._shape = shape
        return shape

    def count_boxes(self):
        """Total number of boxes in the tree (benchmark metric)."""
        return self.shape()[0]

    def count_items(self):
        """Total number of content items in the tree (benchmark metric)."""
        total = len(self.items)
        for kid in self.children():
            total += kid.count_items()
        return total

    # -- equality ------------------------------------------------------------

    def __eq__(self, other):
        """Structural equality on content; navigation metadata is ignored."""
        return (
            isinstance(other, Box)
            and len(self.items) == len(other.items)
            and all(a == b for a, b in zip(self.items, other.items))
        )

    def __hash__(self):
        # Boxes are mutable during construction; identity hash keeps them
        # usable in the layout cache, which is keyed by object identity.
        return id(self)

    def __repr__(self):
        return "Box(id={}, items={})".format(self.box_id, len(self.items))

    def dump(self, indent=0):
        """Human-readable multi-line dump (for debugging and doctests)."""
        pad = "  " * indent
        lines = [
            "{}box#{}{}".format(
                pad,
                self.box_id if self.box_id is not None else "root",
                "" if self.occurrence is None else "/{}".format(self.occurrence),
            )
        ]
        for item in self.items:
            if isinstance(item, Leaf):
                lines.append("{}  post {!r}".format(pad, item.value))
            elif isinstance(item, AttrSet):
                lines.append("{}  [{} = {!r}]".format(pad, item.name, item.value))
            else:
                lines.append(item.dump(indent + 1))
        return "\n".join(lines)


def max_display_depth():
    """How many boxes deep a display may nest.

    Every consumer of a display (HTML, layout, hit-testing, ``walk``,
    §5 reuse) recurses once per nesting level, so a deeper tree would
    end in a bare ``RecursionError`` wherever it is next read.  A
    hundred frames are left for the consumer's own callers.
    """
    return sys.getrecursionlimit() - 100


def make_root(items=()):
    """Create the implicit top-level box of a page."""
    return Box(list(items), box_id=None, occurrence=0)


class _Stale:
    """The invalid display ``⊥`` of Fig. 7 (singleton :data:`STALE`).

    Every system transition except RENDER sets the display to ``⊥``; RENDER
    is the only transition that replaces ``⊥`` with a box tree.  Defined
    here (rather than in :mod:`repro.system.state`) because both the boxes
    layer and the typing layer need it without importing the system layer.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "⊥"


STALE = _Stale()
