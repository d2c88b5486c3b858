"""``faithful`` is the one switch for how a system renders.

A non-faithful system always runs the production posture: a render memo
on every RENDER.  ``faithful=True`` runs the paper's rules one at a
time, without it.  §5 box reuse belongs to the layout engine, which
shares unchanged subtrees with the tree it laid out last.
"""

import pytest

from repro.apps.counter import SOURCE as COUNTER
from repro.boxes.diff import tree_equal
from repro.render.layout import LayoutEngine
from repro.surface.compile import compile_source
from repro.system.transitions import System


def rendered_twice(**kwargs):
    """A counter system rendered, invalidated and rendered again."""
    compiled = compile_source(COUNTER)
    system = System(compiled.code, natives=compiled.natives, **kwargs)
    system.run_to_stable()
    first = system.display
    system._invalidate()
    system.run_to_stable()
    return system, first


def test_production_posture_memoizes_and_reuses_boxes():
    system, first = rendered_twice()
    assert system.render_memo is not None
    assert system.last_render_stats
    # Nothing changed, so laying out the second render hands back the
    # first tree.
    engine = LayoutEngine()
    engine.layout(first)
    assert engine.layout(system.display).box is first


def test_faithful_posture_has_neither():
    system, first = rendered_twice(faithful=True)
    assert system.render_memo is None
    assert system.last_render_stats == {}
    assert system.display is not first
    assert tree_equal(system.display, first)


@pytest.mark.parametrize(
    "knob", ["reuse_boxes", "memo_render", "check_updates"]
)
def test_deleted_knobs_are_rejected(knob):
    code = compile_source(COUNTER).code
    with pytest.raises(TypeError):
        System(code, **{knob: True})


# -- §5 box reuse keeps navigation metadata ------------------------------------

RENUMBERING = '''\
global n : number = 0

page start()
  render
{hidden}    boxed
      post "x"
    boxed
      post "x"
'''

HIDDEN = '''\
    if n > 5 then
      boxed
        post "hidden"
'''


def _every_path(tree, path=()):
    yield path
    for index, _ in enumerate(tree.children()):
        yield from _every_path(tree.children()[index], path + (index,))


def _metadata(tree):
    return [
        (path, box.box_id, box.occurrence) for path, box in tree.walk()
    ]


def test_edit_that_renumbers_boxes_shows_the_new_ids():
    # Inserting a boxed statement above two equal-looking boxes shifts
    # their ids without changing what they show; neither the memo nor
    # box reuse may put the old ids back on screen (select_box would
    # then pick the wrong statement).
    from repro.live.session import LiveSession
    from repro.render.html_backend import render_html

    before = RENUMBERING.format(hidden="")
    after = RENUMBERING.format(hidden=HIDDEN)
    production = LiveSession(before)
    oracle = LiveSession(before, faithful=True)
    for session in (production, oracle):
        assert session.edit_source(after).applied
    assert _metadata(production.display) == _metadata(oracle.display)
    assert render_html(production.display) == render_html(oracle.display)
    for path in _every_path(oracle.display):
        chosen = production.select_box(path)
        expected = oracle.select_box(path)
        if expected is None:
            assert chosen is None
        else:
            assert (chosen.box_id, chosen.span, chosen.paths) == (
                expected.box_id, expected.span, expected.paths
            )
    second = production.select_box((1,))
    assert second.span.start.line > production.select_box((0,)).span.start.line
    # The layout engine's reuse keeps the new ids too.
    engine = LayoutEngine()
    engine.layout(LiveSession(before).display)
    assert _laid_out_metadata(
        engine.layout(production.display)
    ) == _metadata(oracle.display)


def _laid_out_metadata(node):
    return [
        (laid.path, laid.box.box_id, laid.box.occurrence)
        for laid in node.walk()
    ]


def test_reused_display_keeps_metadata_of_every_render():
    system, first = rendered_twice()
    assert _metadata(system.display) == _metadata(first)
    engine = LayoutEngine()
    engine.layout(first)
    assert _laid_out_metadata(engine.layout(system.display)) == _metadata(
        system.display
    )
