"""The layout engine: measuring, stacking, margins, the identity cache."""

import pytest

from repro.boxes.tree import Box, make_root
from repro.core import ast
from repro.render.layout import LayoutEngine


def text_box(text, **attrs):
    box = Box(box_id=1, occurrence=0)
    for name, value in attrs.items():
        attr_name = name.replace("_", " ")
        box.append_attr(
            attr_name,
            ast.Str(value) if isinstance(value, str) else ast.Num(value),
        )
    box.append_leaf(ast.Str(text))
    return box


def rooted(*boxes, root_attrs=()):
    root = make_root()
    for name, value in root_attrs:
        root.append_attr(
            name, ast.Str(value) if isinstance(value, str) else ast.Num(value)
        )
    for box in boxes:
        root.append_child(box)
    return root.freeze()


class TestMeasure:
    def test_leaf_measures_text(self):
        engine = LayoutEngine()
        assert engine.measure(text_box("hello")).width == 5
        assert engine.measure(text_box("hello")).height == 1

    def test_vertical_stacking_default(self):
        """'Vertical stacking is the default' (Fig. 3 footnote)."""
        root = rooted(text_box("aa"), text_box("bbbb"))
        size = LayoutEngine().measure(root)
        assert size.width == 4   # max of children
        assert size.height == 2  # sum of children

    def test_horizontal_stacking(self):
        box = Box()
        box.append_attr("horizontal", ast.Num(1))
        box.append_child(text_box("aa"))
        box.append_child(text_box("bbbb"))
        size = LayoutEngine().measure(box)
        assert size.width == 6 and size.height == 1

    def test_margin_padding_border_add_cells(self):
        plain = LayoutEngine().measure(text_box("x"))
        with_margin = LayoutEngine().measure(text_box("x", margin=2))
        with_border = LayoutEngine().measure(text_box("x", border=1))
        with_padding = LayoutEngine().measure(text_box("x", padding=1))
        assert with_margin.width == plain.width + 4
        assert with_border.width == plain.width + 2
        assert with_padding.width == plain.width + 2

    def test_fixed_width(self):
        size = LayoutEngine().measure(text_box("x", width=10))
        assert size.width == 10

    def test_multiline_leaf(self):
        box = Box()
        box.append_leaf(ast.Str("ab\ncdef"))
        size = LayoutEngine().measure(box)
        assert size.width == 4 and size.height == 2


class TestArrange:
    def test_absolute_positions(self):
        root = rooted(text_box("aa"), text_box("bb"))
        node = LayoutEngine().layout(root)
        first, second = node.children
        assert first.rect.y == 0
        assert second.rect.y == 1

    def test_margin_offsets_children(self):
        root = rooted(text_box("aa", margin=1))
        node = LayoutEngine().layout(root)
        child = node.children[0]
        assert child.rect.x == 1 and child.rect.y == 1

    def test_paths_assigned(self):
        inner = text_box("x")
        outer = Box(box_id=2, occurrence=0)
        outer.append_child(inner)
        root = rooted(outer)
        node = LayoutEngine().layout(root)
        assert node.path == ()
        assert node.children[0].path == (0,)
        assert node.children[0].children[0].path == (0, 0)

    def test_device_width_stretches_root(self):
        root = rooted(text_box("x"))
        node = LayoutEngine().layout(root, width=40)
        assert node.rect.width == 40

    def test_text_positions_recorded(self):
        root = rooted(text_box("hi", padding=1))
        node = LayoutEngine().layout(root)
        (x, y, line) = node.children[0].texts[0]
        assert (x, y, line) == (1, 1, "hi")


class TestCache:
    def test_same_object_hits_cache(self):
        engine = LayoutEngine()
        root = rooted(text_box("aaa"), text_box("bbb"))
        engine.layout(root)
        first_misses = engine.cache_misses
        engine.layout(root)
        assert engine.cache_misses == 0
        assert engine.cache_hits >= first_misses

    def test_reused_subtrees_hit_cache(self):
        """The E3 mechanism: diff-reuse + identity cache = less layout."""
        from repro.boxes.diff import reuse

        engine = LayoutEngine()
        old = rooted(text_box("aaa"), text_box("bbb"), text_box("ccc"))
        engine.layout(old)
        new = rooted(text_box("aaa"), text_box("CHANGED"), text_box("ccc"))
        merged = reuse(old, new)
        engine.layout(merged)
        assert engine.cache_hits >= 2  # the two unchanged rows

    def test_invalidate(self):
        engine = LayoutEngine()
        root = rooted(text_box("a"))
        engine.layout(root)
        engine.invalidate()
        engine.layout(root)
        assert engine.cache_misses > 0

    def test_layout_shares_unchanged_subtrees_with_the_last_tree(self):
        engine = LayoutEngine()
        old = rooted(text_box("aaa"), text_box("bbb"), text_box("ccc"))
        engine.layout(old)
        new = rooted(text_box("aaa"), text_box("CHANGED"), text_box("ccc"))
        node = engine.layout(new)
        kids = [child.box for child in node.children]
        assert kids[0] is old.children()[0]
        assert kids[1] is not old.children()[1]
        assert kids[1] == new.children()[1]
        assert kids[2] is old.children()[2]
        assert engine.cache_misses == 2  # the new root and the new row

    def test_cache_keeps_only_the_last_tree(self):
        from repro.apps.gallery import gallery_runtime

        runtime = gallery_runtime(rows=6, cols=4)
        engine = LayoutEngine()
        cells = ("[1.1]", "[2.3]", "[4.4]")
        for round_ in range(200):
            runtime.tap_text(cells[round_ % len(cells)])
            engine.layout(runtime.display)
            assert len(engine._measure_cache) <= (
                runtime.display.count_boxes()
            )
        assert engine._previous_measures == {}
