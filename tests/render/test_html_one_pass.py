"""The HTML backend's one pass per box against a plain reference renderer.

``repro.render.html_backend._fragment`` reads each box's items once: the
handler flags, style, leaves and children come from one walk, and the
box count, height and fragment-keeping decision are summed from the
children as the recursion returns.  The reference below does it the
plain way — a walk per question, nothing cached — over random trees that
mix frozen and unfrozen boxes, share frozen subtrees at two depths,
write one attribute many times, set both handlers and post text with
newlines and ``<&"``.  Output must be byte-identical, and the shape and
reach the pass leaves on frozen boxes must equal freshly computed ones.
"""

import html

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.boxes.tree import AttrSet, Box, Leaf, make_root
from repro.core import ast
from repro.core.effects import STATE
from repro.core.types import STRING, UNIT
from repro.eval.values import format_for_post
from repro.render.html_backend import render_html, render_html_fragment

_SETTINGS = settings(
    max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NUMERIC = {
    "margin": lambda v: "margin:{}px".format(int(8 * v)),
    "padding": lambda v: "padding:{}px".format(int(8 * v)),
    "font size": lambda v: "font-size:{}em".format(v),
    "width": lambda v: "width:{}ch".format(int(v)),
    "border": lambda v: "border:1px solid #444" if v else "border:none",
    "horizontal": lambda v: (
        "flex-direction:row" if v else "flex-direction:column"
    ),
    "editable": None,
}
COLOURS = {
    "background": "background:{}",
    "color": "color:{}",
}
HANDLERS = {
    "ontap": ast.Lam("u", UNIT, ast.UNIT_VALUE, STATE),
    "onedit": ast.Lam("s", STRING, ast.UNIT_VALUE, STATE),
}


# -- the reference: one walk per question, nothing cached --------------------


def reference_style(box):
    effective = {}
    for item in box.items:
        if isinstance(item, AttrSet):
            effective[item.name] = item.value
    rules = ["display:flex", "flex-direction:column"]
    for name, value in effective.items():
        if NUMERIC.get(name) is not None:
            rules.append(NUMERIC[name](value.value))
        elif name in COLOURS:
            colour = value.value.strip().replace(" ", "") or "transparent"
            rules.append(COLOURS[name].format(colour))
    return ";".join(rules)


def reference_fragment(box, indent):
    pad = "  " * indent
    data = "".join(
        ' data-{}="1"'.format(name) for name in ("ontap", "onedit")
        if any(
            isinstance(item, AttrSet) and item.name == name
            for item in box.items
        )
    )
    if box.box_id is not None:
        data += ' data-box-id="{}" data-occurrence="{}"'.format(
            box.box_id, box.occurrence
        )
    lines = ['{}<div style="{}"{}>'.format(pad, reference_style(box), data)]
    for item in box.items:
        if isinstance(item, Leaf):
            lines.append("{}  <span>{}</span>".format(
                pad, html.escape(format_for_post(item.value))
            ))
        elif isinstance(item, Box):
            lines.append(reference_fragment(item, indent + 1))
    lines.append(pad + "</div>")
    return "\n".join(lines)


def kids(box):
    return [item for item in box.items if isinstance(item, Box)]


def reference_shape(box):
    shapes = [reference_shape(kid) for kid in kids(box)]
    return (
        1 + sum(count for count, _ in shapes),
        1 + max((height for _, height in shapes), default=0),
    )


def reference_reach(box):
    """The largest keeper's box count: a frozen box keeps its fragment
    when it has at least twice the boxes of the largest keeper below."""
    below = max((reference_reach(kid) for kid in kids(box)), default=0)
    count = reference_shape(box)[0]
    return count if box._frozen and count >= 2 * below else below


def distinct_boxes(root):
    seen = {}
    stack = [root]
    while stack:
        box = stack.pop()
        seen[id(box)] = box
        stack.extend(kids(box))
    return list(seen.values())


# -- random trees ------------------------------------------------------------

texts = st.text(alphabet='ab \n<&"\'', max_size=8)


@st.composite
def items(draw, depth, shared):
    kind = draw(st.sampled_from(
        ["leaf", "number", "attr", "colour", "handler"]
        + ["child", "child", "shared"] * (depth > 0)
    ))
    if kind == "leaf":
        return Leaf(ast.Str(draw(texts)))
    if kind == "number":
        return Leaf(ast.Num(draw(st.sampled_from([0, 1, 2.5, -3]))))
    if kind == "attr":
        return AttrSet(
            draw(st.sampled_from(sorted(NUMERIC))),
            ast.Num(draw(st.sampled_from([0, 1, 2, 0.5]))),
        )
    if kind == "colour":
        return AttrSet(
            draw(st.sampled_from(sorted(COLOURS))),
            ast.Str(draw(st.sampled_from(["", "light blue", "red", " "]))),
        )
    if kind == "handler":
        name = draw(st.sampled_from(sorted(HANDLERS)))
        return AttrSet(name, HANDLERS[name])
    if kind == "shared" and shared:
        return draw(st.sampled_from(shared))
    child = draw(boxes(depth - 1, shared))
    if draw(st.booleans()):
        child.freeze()
        shared.append(child)
    return child


@st.composite
def boxes(draw, depth, shared):
    box_id = draw(st.one_of(st.none(), st.integers(0, 5)))
    box = Box(box_id=box_id, occurrence=None if box_id is None else 0)
    for _ in range(draw(st.integers(0, 5))):
        box.items.append(draw(items(depth, shared)))
    return box


@st.composite
def displays(draw):
    """A page root over a mix of frozen and unfrozen subtrees; frozen
    subtrees may appear twice, at different depths."""
    root = make_root()
    for _ in range(draw(st.integers(1, 4))):
        root.items.append(draw(items(3, [])))
    if draw(st.booleans()):
        root.freeze()
    return root


def assert_matches_reference(display):
    expected = reference_fragment(display, 1)
    for _ in range(2):  # the second pass reads cached fragments
        assert render_html_fragment(display, 1) == expected
        assert render_html(display) == (
            "<!DOCTYPE html>\n<html>\n<head>\n"
            '<meta charset="utf-8"/>\n<title>repro page</title>\n'
            "</head>\n<body>\n{}\n</body>\n</html>\n".format(expected)
        )
    for box in distinct_boxes(display):
        if box._frozen:
            assert box._shape == reference_shape(box)
            assert box._reach == reference_reach(box)
            keeps = reference_reach(box) == reference_shape(box)[0]
            assert (box._fragment is not None) == (
                keeps and box is not display
            )
        else:
            assert box._fragment is None
        assert box.shape() == reference_shape(box)


class TestOnePass:
    @_SETTINGS
    @given(display=displays())
    def test_byte_identical_to_the_reference(self, display):
        assert_matches_reference(display)

    def test_repeated_writes_keep_the_first_position_and_last_value(self):
        box = Box(box_id=1, occurrence=0)
        box.append_attr("margin", ast.Num(1))
        box.append_attr("background", ast.Str("red"))
        box.append_attr("margin", ast.Num(3))
        box.append_attr("ontap", HANDLERS["ontap"])
        box.append_attr("onedit", HANDLERS["onedit"])
        box.append_attr("ontap", HANDLERS["ontap"])
        box.append_leaf(ast.Str('a\n<&">'))
        display = make_root([box]).freeze()
        html_text = render_html_fragment(display, 1)
        assert (
            'style="display:flex;flex-direction:column;margin:24px;'
            'background:red" data-ontap="1" data-onedit="1"'
        ) in html_text
        assert "<span>a\n&lt;&amp;&quot;&gt;</span>" in html_text
        assert_matches_reference(display)

    def test_deep_nesting(self):
        inner = Box(box_id=0, occurrence=0)
        inner.append_leaf(ast.Str("bottom\n<&>"))
        box = inner
        for level in range(1, 200):
            outer = Box(box_id=level, occurrence=0)
            outer.append_leaf(ast.Num(level))
            outer.append_child(box)
            if level % 7 == 0:
                outer.freeze()  # unfrozen boxes above frozen chains
            box = outer
        display = make_root([box])
        assert_matches_reference(display)
        display.freeze()
        assert_matches_reference(display)
