"""E3 — the box-tree reuse optimization (Section 5, implemented).

Full rebuild re-lays-out every box; with reuse the layout engine shares
unchanged subtree objects with the tree it laid out last (it runs
``reuse()`` itself), so its identity cache skips them.  We measure the *redisplay* pipeline
(render transition + layout) after a one-cell model change, with the
layout cache invalidated (a full rebuild) and kept (reuse), at two tree
sizes — plus the diff pass itself.

Expected shape: reuse wins when a small fraction of the tree changes and
the saving grows with tree size; the diff overhead is linear and small.
"""

import pytest

from repro.apps.gallery import compile_gallery
from repro.boxes.diff import DiffStats, reuse
from repro.render.layout import LayoutEngine
from repro.system.runtime import Runtime

SIZES = ((16, 4), (64, 4))


def _runtime(rows, cols):
    compiled = compile_gallery(rows=rows, cols=cols)
    return Runtime(
        compiled.code, natives=compiled.natives, backend="tree"
    ).start()


def _one_change_displays(rows, cols):
    """Two consecutive displays differing by one cell's highlight."""
    runtime = _runtime(rows, cols)
    before = runtime.system.display
    runtime.tap_text("[1.1]")
    after = runtime.system.display
    return before, after


@pytest.mark.parametrize(
    "rows,cols", SIZES, ids=lambda v: str(v)
)
def test_redisplay_full_rebuild(benchmark, rows, cols):
    """Layout from scratch after a one-cell change (no sharing)."""
    _before, after = _one_change_displays(rows, cols)
    engine = LayoutEngine()

    def relayout():
        engine.invalidate()  # retained toolkits without reuse re-measure all
        engine.layout(after, width=60)

    benchmark(relayout)
    assert engine.cache_misses > 0


@pytest.mark.parametrize(
    "rows,cols", SIZES, ids=lambda v: str(v)
)
def test_redisplay_with_reuse(benchmark, rows, cols):
    """Layout with the engine's reuse(): unchanged subtrees hit the
    identity cache."""
    before, after = _one_change_displays(rows, cols)
    engine = LayoutEngine()
    engine.layout(before, width=60)  # warm the cache on the old display

    def relayout():
        engine.layout(after, width=60)

    benchmark(relayout)
    assert engine.cache_hits > 0


@pytest.mark.parametrize(
    "rows,cols", SIZES, ids=lambda v: str(v)
)
def test_interaction_with_reuse_end_to_end(benchmark, rows, cols):
    """The full tap→render→diff→layout pipeline, reuse on."""
    runtime = _runtime(rows, cols)
    engine = LayoutEngine()
    engine.layout(runtime.system.display, width=60)
    cell = ["[1.1]", "[1.2]"]

    def one_change():
        runtime.tap_text(cell[0])
        cell.reverse()
        engine.layout(runtime.system.display, width=60)

    benchmark(one_change)


@pytest.mark.parametrize("rows", (16, 64), ids=lambda r: "rows={}".format(r))
def test_diff_pass_cost(benchmark, rows):
    """The overhead side: one reuse() pass over two almost-equal trees."""
    runtime = _runtime(rows, 4)
    old = runtime.system.display
    runtime.tap_text("[1.1]")
    new = runtime.system.display

    stats_holder = {}

    def diff():
        stats = DiffStats()
        merged = reuse(old, new, stats)
        stats_holder["stats"] = stats
        return merged

    benchmark(diff)
    stats = stats_holder["stats"]
    # Most of the tree is unchanged: the diff must recognize that.
    assert stats.reuse_fraction > 0.5
