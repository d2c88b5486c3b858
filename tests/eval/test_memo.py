"""Render-function memoization (§5's self-adjusting-computation sketch).

The contract: every observable display of a memoized (non-faithful)
run is structurally identical to the ``faithful=True`` oracle, which
never memoizes; repeated calls with the
same argument and read-set values are elided, and every way the output
could change (argument, read global — direct or through a callee, code
update) invalidates.
"""

import pytest

from repro.boxes.diff import tree_equal
from repro.core import ast
from repro.eval.memo import RenderMemo, global_read_sets
from repro.surface.compile import compile_source
from repro.system.runtime import Runtime

APP = """\
global greeting : string = "hi"
global clicks : number = 0

fun cell(n : number)
  boxed
    post indirect() || " " || n

fun indirect() : string
  return greeting

page start()
  render
    for i = 1 to 4 do
      cell(i)
    boxed
      post "clicks " || clicks
      on tap do
        clicks := clicks + 1
    boxed
      post "rename"
      on tap do
        greeting := "yo"
"""


def runtimes():
    compiled = compile_source(APP)
    plain = Runtime(
        compiled.code, natives=compiled.natives, faithful=True
    ).start()
    memo = Runtime(compiled.code, natives=compiled.natives).start()
    return plain, memo


class TestReadSets:
    def test_direct_and_transitive_reads(self):
        compiled = compile_source(APP)
        read_sets = global_read_sets(compiled.code)
        assert read_sets["indirect"] == {"greeting"}
        assert "greeting" in read_sets["cell"]  # through the callee
        assert "clicks" not in read_sets["cell"]

    def test_eligibility(self):
        compiled = compile_source(APP)
        memo = RenderMemo(compiled.code)
        assert memo.eligible("cell")
        assert not memo.eligible("indirect")      # pure, not render
        for name in compiled.generated_functions:
            assert not memo.eligible(name)        # loop functions excluded


class TestEquivalence:
    def test_displays_identical_through_interaction(self):
        plain, memo = runtimes()
        assert tree_equal(plain.display, memo.display)
        for action in ("clicks 0", "clicks 1", "rename", "clicks 2"):
            plain.tap_text(action)
            memo.tap_text(action)
            assert tree_equal(plain.display, memo.display)

    def test_mortgage_app_identical(self):
        from repro.apps.mortgage import compile_mortgage
        from repro.stdlib.web import make_services

        compiled = compile_mortgage()
        plain = Runtime(
            compiled.code, natives=compiled.natives,
            services=make_services(), faithful=True,
        ).start()
        memo = Runtime(
            compiled.code, natives=compiled.natives,
            services=make_services(),
        ).start()
        listing = plain.global_value("listings").items[0]
        label = "{}, {}".format(
            listing.items[0].value, listing.items[1].value
        )
        for runtime in (plain, memo):
            runtime.tap_text(label)
        assert tree_equal(plain.display, memo.display)


class TestCacheBehaviour:
    def test_rerender_hits(self):
        _plain, memo = runtimes()
        stats = memo.system.render_memo.stats()
        assert stats == {
            "hits": 0, "misses": 4, "misses_cold": 4,
            "misses_read_values": 0, "page_hits": 0, "page_misses": 1,
            "entries": 5,
        }
        memo.tap_text("clicks 0")  # clicks changes; cells don't read it
        assert memo.system.render_memo.stats()["hits"] == 4

    def test_read_global_change_invalidates(self):
        _plain, memo = runtimes()
        memo.tap_text("rename")  # greeting changes → all cell keys change
        stats = memo.system.render_memo.stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 8
        # The second round's misses found the cells' calls cached under
        # the old ``greeting`` only.
        assert stats["misses_read_values"] == 4
        assert memo.contains_text("yo 3")

    def test_argument_participates_in_key(self):
        _plain, memo = runtimes()
        entries = memo.system.render_memo.stats()["entries"]
        assert entries == 4 + 1  # one per distinct argument, and the page

    def test_update_resets_cache(self):
        _plain, memo = runtimes()
        old_memo = memo.system.render_memo
        memo.update_code(compile_source(APP).code)
        assert memo.system.render_memo is not old_memo

    def test_navigation_still_works_on_cached_boxes(self):
        """box_id lookup is unaffected by replayed subtrees."""
        from repro.boxes.paths import boxes_created_by

        _plain, memo = runtimes()
        memo.tap_text("clicks 0")  # now every cell box is cache-replayed
        compiled_box_ids = {
            box.box_id for _p, box in memo.display.walk()
            if box.box_id is not None
        }
        for box_id in compiled_box_ids:
            assert boxes_created_by(memo.display, box_id)

    def test_faithful_machine_ignores_memo_flag(self):
        # Even an injected store does not make the oracle memoize.
        from repro.incremental.store import MemoStore

        compiled = compile_source(APP)
        store = MemoStore()
        runtime = Runtime(
            compiled.code, natives=compiled.natives,
            faithful=True, memo_store=store,
        ).start()
        assert runtime.system.render_memo is None
        assert len(store) == 0
