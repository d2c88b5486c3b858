"""Box trees (Fig. 7's B): construction, queries, freezing, equality."""

import pytest

from repro.boxes.tree import AttrSet, Box, Leaf, STALE, make_root
from repro.core import ast
from repro.core.errors import ReproError


def small_tree():
    root = make_root()
    root.append_attr("margin", ast.Num(1))
    root.append_leaf(ast.Str("title"))
    child = Box(box_id=1, occurrence=0)
    child.append_leaf(ast.Str("body"))
    child.append_attr("background", ast.Str("yellow"))
    root.append_child(child)
    second = Box(box_id=1, occurrence=1)
    root.append_child(second)
    return root


class TestConstruction:
    def test_item_order_preserved(self):
        root = small_tree()
        kinds = [type(item).__name__ for item in root.items]
        assert kinds == ["AttrSet", "Leaf", "Box", "Box"]

    def test_children_and_leaves(self):
        root = small_tree()
        assert len(root.children()) == 2
        assert root.leaves() == [ast.Str("title")]

    def test_append_child_type_checked(self):
        with pytest.raises(ReproError):
            make_root().append_child("not a box")

    def test_counts(self):
        root = small_tree()
        assert root.count_boxes() == 3
        assert root.count_items() == 6


class TestAttributes:
    def test_last_write_wins(self):
        box = Box()
        box.append_attr("margin", ast.Num(1))
        box.append_attr("margin", ast.Num(2))
        assert box.get_attr("margin") == ast.Num(2)
        assert box.attributes() == {"margin": ast.Num(2)}

    def test_has_attr(self):
        root = small_tree()
        assert root.has_attr("margin")
        assert not root.has_attr("ontap")

    def test_get_attr_default(self):
        assert Box().get_attr("margin", ast.Num(9)) == ast.Num(9)


class TestWalkAndPaths:
    def test_walk_preorder_with_paths(self):
        root = small_tree()
        paths = [path for path, _box in root.walk()]
        assert paths == [(), (0,), (1,)]

    def test_child_indexing(self):
        root = small_tree()
        assert root.child(0).occurrence == 0
        with pytest.raises(ReproError):
            root.child(5)


class TestFreezing:
    def test_frozen_rejects_mutation(self):
        root = small_tree().freeze()
        with pytest.raises(ReproError):
            root.append_leaf(ast.Num(1))
        with pytest.raises(ReproError):
            root.children()[0].append_attr("margin", ast.Num(1))

    def test_freezing_records_every_boxes_shape(self):
        def deep_tree():
            root = small_tree()
            inner = Box(box_id=2, occurrence=0)
            inner.append_child(Box(box_id=3, occurrence=0))
            root.children()[1].append_child(inner)
            # A subtree frozen before (a replayed memo entry).
            root.append_child(small_tree().freeze())
            return root

        unfrozen = deep_tree()
        expected = [(box, box.shape()) for _path, box in unfrozen.walk()]
        # An unfrozen box recounts on every call and caches nothing.
        assert unfrozen._shape is None
        root = deep_tree().freeze()
        frozen = [box for _path, box in root.walk()]
        assert [box._shape for box in frozen] == [
            shape for _box, shape in expected
        ]
        assert root.count_boxes() == unfrozen.count_boxes() == 8
        assert root.shape() == (8, 4)


class TestEquality:
    def test_structural(self):
        assert small_tree() == small_tree()

    def test_metadata_ignored(self):
        a = Box(box_id=1, occurrence=0)
        b = Box(box_id=99, occurrence=7)
        assert a == b

    def test_content_difference_detected(self):
        a = Box()
        a.append_leaf(ast.Num(1))
        b = Box()
        b.append_leaf(ast.Num(2))
        assert a != b


class TestStale:
    def test_singleton(self):
        from repro.boxes.tree import _Stale

        assert _Stale() is STALE

    def test_repr_is_bottom(self):
        assert repr(STALE) == "⊥"


class TestDump:
    def test_dump_mentions_everything(self):
        text = small_tree().dump()
        assert "title" in text and "background" in text
        assert "box#1/0" in text and "box#1/1" in text
