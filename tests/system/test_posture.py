"""``faithful`` is the one switch for how a system renders.

A non-faithful system always runs the production posture: a render memo
plus §5 box reuse after every RENDER.  ``faithful=True`` runs the
paper's rules one at a time, with neither.
"""

import pytest

from repro.apps.counter import SOURCE as COUNTER
from repro.boxes.diff import tree_equal
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
    # Nothing changed, so the second render hands back the first tree.
    assert system.display is first


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
