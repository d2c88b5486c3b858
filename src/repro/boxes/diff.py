"""Box-tree diffing: the reuse optimization sketched in Section 5.

The paper's model rebuilds the entire box tree on every refresh and notes:

    "Recreating the entire box tree on a redraw can become slow if there
    are many boxes on the screen.  We are currently working on a simple
    optimization where we can reuse box tree elements that have not
    changed."

This module implements that optimization.  :func:`reuse` takes the previous
tree and the freshly rendered one and returns a tree in which every
subtree that is structurally unchanged is *the same Python object* as in
the previous one.  Downstream consumers that cache by object identity —
the layout engine keeps a per-object layout cache — then skip all work for
reused subtrees, which is exactly the saving a retained-mode toolkit gets
from not touching unchanged DOM nodes.

The semantics is unaffected: ``reuse(old, new) == new`` structurally, and
every box of the result carries ``new``'s ``box_id`` and ``occurrence``
(a subtree is shared only when its navigation metadata matches too).
The layout engine runs it against the root it laid out last
(:meth:`repro.render.layout.LayoutEngine.layout`); RENDER does not, so
the display, ``why()`` and the served HTML always hold exactly the tree
the render produced.  The render memo already shares the frozen
subtrees of unchanged calls between displays, and the HTML backend
caches their fragments, so serving gains nothing from a second pass.
The ablation benchmark E3 calls :func:`reuse` directly to measure it on
and off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tree import AttrSet, Box, Leaf


@dataclass
class DiffStats:
    """Counters reported by :func:`reuse` (used by benchmark E3 and tests)."""

    reused_boxes: int = 0
    rebuilt_boxes: int = 0

    @property
    def total_boxes(self):
        return self.reused_boxes + self.rebuilt_boxes

    @property
    def reuse_fraction(self):
        if self.total_boxes == 0:
            return 0.0
        return self.reused_boxes / self.total_boxes


def _items_equal_shallow(old, new):
    """Are the non-box items and the box *count/positions* identical?

    Box items are compared by position only; their contents are handled by
    the recursive pass so a deep change does not force the whole spine to
    be re-created.
    """
    if len(old.items) != len(new.items):
        return False
    for old_item, new_item in zip(old.items, new.items):
        old_is_box = isinstance(old_item, Box)
        new_is_box = isinstance(new_item, Box)
        if old_is_box != new_is_box:
            return False
        if not old_is_box and old_item != new_item:
            return False
    return True


def reuse(old, new, stats=None):
    """Return ``new`` with unchanged subtrees replaced by ``old``'s objects.

    ``old`` may be ``None`` (no previous display — first render, or display
    was stale after an UPDATE with no prior page); then ``new`` is returned
    untouched.  The result is always structurally equal to ``new``, with
    ``new``'s box ids and occurrences at every node.
    """
    if stats is None:
        stats = DiffStats()
    if old is None or not isinstance(old, Box) or not isinstance(new, Box):
        if isinstance(new, Box):
            stats.rebuilt_boxes += new.count_boxes()
        return new
    result = _reuse_box(old, new, stats)
    return result


def _same_box(old, new):
    """Equal content *and* equal navigation metadata at every node.

    ``Box.__eq__`` ignores ``box_id``/``occurrence``, so an edit that
    renumbers boxed statements without changing what they show renders
    ``==`` boxes that select different code.  Reusing the old object
    would put the old ids back on screen.
    """
    if old is new:  # a memo-replayed subtree, or a re-laid-out tree
        return True
    if old.box_id != new.box_id or old.occurrence != new.occurrence:
        return False
    if len(old.items) != len(new.items):
        return False
    for old_item, new_item in zip(old.items, new.items):
        if isinstance(old_item, Box):
            if not isinstance(new_item, Box) or not _same_box(
                old_item, new_item
            ):
                return False
        elif old_item != new_item:
            return False
    return True


def _reuse_box(old, new, stats):
    if _same_box(old, new):  # same content and ids: reuse the subtree
        stats.reused_boxes += old.count_boxes()
        return old
    if not _items_equal_shallow(old, new):
        # Spine changed; still try to match children pairwise by position
        # and boxed-statement id so insertions near the end reuse prefixes.
        stats.rebuilt_boxes += 1
        old_children = old.children()
        merged_items = []
        child_index = 0
        for item in new.items:
            if isinstance(item, Box):
                if (
                    child_index < len(old_children)
                    and old_children[child_index].box_id == item.box_id
                ):
                    merged_items.append(
                        _reuse_box(old_children[child_index], item, stats)
                    )
                else:
                    stats.rebuilt_boxes += item.count_boxes()
                    merged_items.append(item)
                child_index += 1
            else:
                merged_items.append(item)
        return _rebuild_like(new, merged_items)
    # Same spine: recurse into children positionally.
    stats.rebuilt_boxes += 1
    old_children = iter(old.children())
    merged_items = []
    for item in new.items:
        if isinstance(item, Box):
            merged_items.append(_reuse_box(next(old_children), item, stats))
        else:
            merged_items.append(item)
    return _rebuild_like(new, merged_items)


def _rebuild_like(template, items):
    box = Box(items, box_id=template.box_id, occurrence=template.occurrence)
    box.freeze()
    return box


def tree_equal(left, right):
    """Structural display equality (ignores navigation metadata)."""
    if left is None or right is None:
        return left is right
    return left == right
