"""E1 — render cost vs. box count (Section 5).

    "Recreating the entire box tree on a redraw can become slow if there
    are many boxes on the screen."

The gallery app renders ``rows × cols`` cells; we sweep the row count and
measure one full RENDER transition (render-body execution → box tree).
Expected shape: time grows roughly linearly in the number of boxes.
"""

import pytest

from repro.apps.gallery import compile_gallery
from repro.system.runtime import Runtime

ROW_COUNTS = (8, 32, 128)
COLS = 4


def _started_runtime(rows):
    compiled = compile_gallery(rows=rows, cols=COLS)
    return Runtime(
        compiled.code, natives=compiled.natives, backend="tree"
    ).start()


@pytest.mark.parametrize("rows", ROW_COUNTS, ids=lambda r: "rows={}".format(r))
def test_full_rerender(benchmark, rows):
    """One RENDER transition (the display is invalidated first)."""
    runtime = _started_runtime(rows)
    system = runtime.system

    def rerender():
        system.state.invalidate_display()
        system.render()

    benchmark(rerender)
    boxes = system.display.count_boxes()
    benchmark.extra_info["boxes"] = boxes
    assert boxes >= rows * COLS


@pytest.mark.parametrize("rows", ROW_COUNTS, ids=lambda r: "rows={}".format(r))
def test_render_plus_layout(benchmark, rows):
    """RENDER plus the text-backend layout (the full display pipeline)."""
    from repro.render.layout import LayoutEngine

    runtime = _started_runtime(rows)
    system = runtime.system
    engine = LayoutEngine()

    def pipeline():
        system.state.invalidate_display()
        system.render()
        engine.invalidate()
        engine.layout(system.display, width=60)

    benchmark(pipeline)
