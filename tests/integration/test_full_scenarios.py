"""Cross-module scenarios: reuse optimization end-to-end, faithful-machine
system runs, HTML round trips, hit-testing against live layouts."""

import pytest

from repro.apps.counter import SOURCE as COUNTER
from repro.apps.gallery import gallery_runtime, gallery_source
from repro.apps.mortgage import BASE_SOURCE, host_impls, mortgage_runtime
from repro.boxes.diff import tree_equal
from repro.core import ast
from repro.live.session import LiveSession
from repro.render.hittest import hit_test
from repro.render.html_backend import render_html
from repro.render.layout import LayoutEngine
from repro.stdlib.web import make_services
from repro.surface.compile import compile_source
from repro.system.runtime import Runtime


class TestReuseOptimizationEndToEnd:
    def test_observable_display_identical(self):
        """Box reuse never changes what the user sees."""
        compiled = compile_source(gallery_source(rows=4, cols=3))
        plain = Runtime(
            compiled.code, natives=compiled.natives, faithful=True
        ).start()
        reusing = Runtime(compiled.code, natives=compiled.natives).start()
        for runtime in (plain, reusing):
            runtime.tap_text("[2.2]")
        assert tree_equal(plain.display, reusing.display)

    def test_subtrees_shared_across_renders(self):
        # The layout engine shares unchanged subtrees with the tree it
        # laid out last; the display keeps the render's own tree.
        compiled = compile_source(gallery_source(rows=4, cols=3))
        runtime = Runtime(compiled.code, natives=compiled.natives).start()
        engine = LayoutEngine()
        before = [node.box for node in engine.layout(runtime.display).walk()]
        runtime.tap_text("[3.1]")
        after = [node.box for node in engine.layout(runtime.display).walk()]
        shared = sum(
            1 for box in after if any(box is old for old in before)
        )
        assert len(after) == runtime.display.count_boxes()
        assert shared > len(after) // 2

    def test_layout_cache_benefits(self):
        compiled = compile_source(gallery_source(rows=6, cols=4))
        runtime = Runtime(compiled.code, natives=compiled.natives).start()
        engine = LayoutEngine()
        engine.layout(runtime.display)
        cold_misses = engine.cache_misses
        runtime.tap_text("[1.1]")
        engine.layout(runtime.display)
        assert engine.cache_misses < cold_misses


class TestFaithfulMachineSystemRuns:
    def test_mortgage_start_page_under_small_step(self):
        runtime = mortgage_runtime(latency=0.0, faithful=True)
        assert runtime.contains_text("House")
        assert len(runtime.global_value("listings").items) == 8

    def test_counter_interaction_under_small_step(self):
        compiled = compile_source(COUNTER)
        runtime = Runtime(
            compiled.code, natives=compiled.natives, faithful=True
        ).start()
        runtime.tap_text("count: 0")
        assert runtime.all_texts()[0] == "count: 1"


class TestBackendsAgainstRealApps:
    def test_mortgage_html_document(self):
        runtime = mortgage_runtime()
        html = render_html(runtime.display, title="listings")
        assert html.count("<div") > 8
        assert "data-ontap" in html

    def test_hit_test_finds_tappable_listing(self):
        runtime = mortgage_runtime()
        node = LayoutEngine().layout(runtime.display, width=44)
        listing = runtime.global_value("listings").items[0]
        label = "{}, {}".format(
            listing.items[0].value, listing.items[1].value
        )
        target = None
        for child in node.walk():
            for x, y, line in child.texts:
                if line == label:
                    target = (x, y)
        assert target is not None
        path = hit_test(node, *target)
        assert path is not None
        runtime.tap(path)  # bubbles to the entry's handler
        assert runtime.page_name() == "detail"


class TestLongSession:
    def test_many_interleaved_edits_and_interactions(self):
        session = LiveSession(COUNTER)
        for round_number in range(1, 6):
            session.tap_text(session.runtime.all_texts()[0])
            label = '"v{}: "'.format(round_number)
            previous = (
                '"count: "' if round_number == 1
                else '"v{}: "'.format(round_number - 1)
            )
            result = session.replace_text(previous, label)
            assert result.applied
        assert session.runtime.global_value("count") == ast.Num(5)
        assert session.runtime.all_texts()[0] == "v5: 5"
        # 5 taps + 5 updates, each with exactly one re-render.
        renders = [
            t for t in session.runtime.trace if t.rule == "RENDER"
        ]
        assert len(renders) == 11  # boot + 5 taps + 5 updates
