"""Frozen boxes cache their HTML fragments; the markup never changes.

A frozen box keeps its fragment (keyed by indent) when
:meth:`~repro.boxes.tree.Box.keeps_fragment` says so, and memo replay
shares frozen subtrees between renders and sessions.  The oracle for
every document here is :func:`render_html` of a structural copy of the
tree that was never frozen, so it cannot have read a cached fragment.
"""

import math
import sys
import threading

import pytest

from repro.apps.gallery import function_gallery_source
from repro.boxes.tree import Box, Leaf, make_root
from repro.core import ast
from repro.incremental import MemoStore
from repro.incremental.store import SessionMemoView
from repro.render.html_backend import (
    display_fingerprint,
    render_html,
    render_html_fragment,
)
from repro.serve.host import SessionHost
from repro.surface.compile import compile_source
from repro.system.runtime import Runtime


def unfrozen_copy(box):
    """A structurally equal tree of fresh, never-frozen boxes."""
    items = [
        unfrozen_copy(item) if isinstance(item, Box) else item
        for item in box.items
    ]
    return Box(items, box_id=box.box_id, occurrence=box.occurrence)


def oracle_html(display, title="repro page"):
    return render_html(unfrozen_copy(display), title=title)


def distinct_boxes(display):
    seen = {}
    for _path, box in display.walk():
        seen[id(box)] = box
    return list(seen.values())


def cached_chars(display):
    return sum(
        len(box._fragment[1])
        for box in distinct_boxes(display)
        if box._fragment is not None
    )


def runtime_of(source, **kwargs):
    compiled = compile_source(source)
    return Runtime(compiled.code, natives=compiled.natives, **kwargs).start()


def find_box(display, text):
    """The box whose leaves include exactly ``text``, and its depth."""
    for path, box in display.walk():
        if any(
            isinstance(item, Leaf) and getattr(item.value, "value", None)
            == text for item in box.items
        ):
            return box, len(path)
    raise AssertionError("no box posts {!r}".format(text))


# -- escaping and indentation --------------------------------------------------


def text_box(text, box_id=None, occurrence=None):
    box = Box(box_id=box_id, occurrence=occurrence)
    box.append_leaf(ast.Str(text))
    return box


class TestFragments:
    TRICKY = ("two\nlines", "<b>bold</b>", "fish & chips", "a\n  <&>\n")

    def test_cached_fragments_match_the_oracle(self):
        root = make_root()
        for index, text in enumerate(self.TRICKY):
            outer = Box(box_id=index, occurrence=0)
            outer.append_child(text_box(text, box_id=10 + index, occurrence=0))
            outer.append_leaf(ast.Str(text))
            root.append_child(outer)
        root.freeze()
        expected = oracle_html(root)
        assert render_html(root) == expected
        assert cached_chars(root) > 0
        assert render_html(root) == expected  # now served from the cache

    def test_a_shared_subtree_is_never_reindented(self):
        shared = Box(box_id=1, occurrence=0)
        shared.append_child(text_box("x\ny <&>", box_id=2, occurrence=0))
        shared.freeze()
        shallow = make_root([shared]).freeze()
        wrapper = Box([shared], box_id=3, occurrence=0)
        deep = make_root([Box([wrapper], box_id=4, occurrence=0)]).freeze()
        for display in (shallow, deep, shallow, deep):
            assert render_html(display) == oracle_html(display)
            assert render_html_fragment(display, 1) == render_html_fragment(
                unfrozen_copy(display), 1
            )

    def test_page_root_keeps_no_fragment(self):
        root = make_root([text_box("a", box_id=1, occurrence=0)]).freeze()
        render_html(root)
        display_fingerprint(root)
        assert root._fragment is None
        assert root.items[0]._fragment is not None

    def test_unfrozen_boxes_cache_nothing(self):
        root = make_root([text_box("a", box_id=1, occurrence=0)])
        render_html(root)
        assert root.items[0]._fragment is None
        assert root.count_boxes() == 2
        root.append_child(text_box("b"))
        assert root.count_boxes() == 3

    def test_fingerprint_follows_the_embedded_fragment(self):
        one = make_root([text_box("a")]).freeze()
        same = make_root([text_box("a")]).freeze()
        other = make_root([text_box("b")]).freeze()
        assert display_fingerprint(one) == display_fingerprint(same)
        assert display_fingerprint(one) != display_fingerprint(other)


# -- memo replay -----------------------------------------------------------------

MOVING = '''\
global deep : number = 0
global flip : number = 0

fun card(n : number)
  boxed
    post "card " || n
    boxed
      post "body " || n

page start()
  render
    card(1)
    boxed
      card(1)
    if deep > 0 then
      boxed
        boxed
          card(2)
    else
      card(2)
    if flip > 0 then
      card(4)
      card(3)
    else
      card(3)
      card(4)
    boxed
      post "deeper"
      on tap do
        deep := 1 - deep
    boxed
      post "flip"
      on tap do
        flip := 1 - flip
'''


class TestMemoReplay:
    def sessions(self):
        return runtime_of(MOVING), runtime_of(MOVING, faithful=True)

    def test_one_frozen_subtree_at_two_depths(self):
        memoized, plain = self.sessions()
        before, depth_before = find_box(memoized.display, "card 2")
        for runtime in (memoized, plain):
            runtime.tap_text("deeper")
        after, depth_after = find_box(memoized.display, "card 2")
        # The memo replayed the same frozen subtree two levels deeper.
        assert after is before
        assert depth_after == depth_before + 2
        for _ in range(3):
            html = render_html(memoized.display)
            assert html == oracle_html(memoized.display)
            assert html == render_html(plain.display)
            for runtime in (memoized, plain):
                runtime.tap_text("deeper")

    def test_a_helper_called_twice_shows_two_occurrences(self):
        memoized, plain = self.sessions()
        html = render_html(memoized.display)
        assert html == render_html(plain.display)
        assert html.count("card 1") == 2
        assert 'data-occurrence="1"' in html

    def test_restamped_replay(self):
        # Flipping the order of card(3) and card(4) replays both with
        # their occurrence numbers exchanged: restamped copies that
        # share the cached inner boxes' leaves.
        memoized, plain = self.sessions()
        render_html(memoized.display)
        before, _ = find_box(memoized.display, "card 3")
        for runtime in (memoized, plain):
            runtime.tap_text("flip")
        after, _ = find_box(memoized.display, "card 3")
        assert after is not before
        assert after.occurrence != before.occurrence
        assert after.items[0] is before.items[0]
        for _ in range(3):
            html = render_html(memoized.display)
            assert html == oracle_html(memoized.display)
            assert html == render_html(plain.display)
            for runtime in (memoized, plain):
                runtime.tap_text("flip")

    def test_sessions_on_one_store_render_from_many_threads(self):
        # Sessions over one store render the same frozen subtrees, so
        # threads race on their fragment slots.  More threads than
        # cores and a short switch interval make the race likely; every
        # document must still match its never-frozen copy.
        store = MemoStore()
        source = function_gallery_source(rows=8, cols=4)
        taps = (("[5]", "[9]"), ("[9]", "[14]"), ("[14]", "[5]"),
                ("[20]", "[9]"))
        runtimes = [
            runtime_of(source, memo_store=SessionMemoView(store, origin=n))
            for n in range(len(taps))
        ]
        barrier = threading.Barrier(len(taps))
        failures = []

        def drive(runtime, cells):
            try:
                barrier.wait(timeout=30)
                for round_ in range(12):
                    runtime.tap_text(cells[round_ % 2])
                    html = render_html(runtime.display)
                    if html != oracle_html(runtime.display):
                        failures.append(cells)
            except Exception as error:  # reported below
                failures.append(error)

        threads = [
            threading.Thread(target=drive, args=(runtime, cells))
            for runtime, cells in zip(runtimes, taps)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        plain = runtime_of(source, faithful=True)
        plain.tap_text("[9]")
        assert render_html(runtimes[-1].display) == render_html(plain.display)


# -- served generations ------------------------------------------------------------


class TestGenerations:
    def test_generation_moves_exactly_when_the_bytes_do(self):
        host = SessionHost(
            pool_size=2, default_source=function_gallery_source(4, 3)
        )
        token = host.create()
        html, generation, _ = host.render(token)
        steps = [
            ("tap", "[5]"), ("tap", "[5]"), ("evict", None),
            ("tap", "[7]"), ("evict", None), ("render", None),
            ("tap", "[7]"), ("tap", "[5]"),
        ]
        for op, arg in steps:
            if op == "tap":
                host.tap(token, text=arg)
            elif op == "evict":
                assert host.evict(token)
            new_html, new_generation, modified = host.render(token)
            assert modified
            if new_html == html:
                assert new_generation == generation, (op, arg)
            else:
                assert new_generation == generation + 1, (op, arg)
            with host.session(token) as entry:
                assert new_html == oracle_html(
                    entry.session.display, title=entry.title
                )
            html, generation = new_html, new_generation
        assert generation == 4  # create, [5], [7], [5]
        # Recovery raises the floor and primes document and hash, so the
        # next render spends no bump on the restore itself.
        host.complete_recovery(token, 10)
        assert host.render(token) == (html, 10, True)

    def test_an_unchanged_document_short_circuits(self):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        host = SessionHost(
            pool_size=2, default_source=function_gallery_source(4, 3),
            tracer=tracer,
        )
        token = host.create()
        html, generation, _ = host.render(token)
        host.tap(token, text="[5]")
        selected, _, _ = host.render(token)
        host.tap(token, text="[5]")  # selects what is already selected
        again, same_generation, modified = host.render(token, generation + 1)
        assert not modified and same_generation == generation + 1
        assert tracer.metrics()["incremental.html_short_circuits"] == 1
        assert tracer.metrics()["bytes_served"] == sum(
            len(document.encode("utf-8")) for document in (html, selected)
        )


# -- memory stays linear in the document ------------------------------------------

NESTED = '''\
global depth : number = {depth}

fun nest(k : number)
  boxed
    post "level " || k
    if k > 0 then
      nest(k - 1)

page start()
  render
    nest(depth)
'''


def assert_cache_is_bounded(display):
    document = render_html(display)
    assert render_html(display) == document
    count = display.count_boxes()
    cached = cached_chars(display)
    assert 0 < cached <= (1 + math.log2(count)) * len(document), (
        cached, count, len(document)
    )


class TestMemoryBound:
    @pytest.mark.parametrize("depth", [300, 900])
    def test_deeply_nested_page(self, depth):
        # nest(k) draws k + 1 boxes inside the page root.
        runtime = runtime_of(NESTED.format(depth=depth - 2))
        assert runtime.display.shape() == (depth, depth)
        assert_cache_is_bounded(runtime.display)

    def test_gallery(self):
        runtime = runtime_of(function_gallery_source(rows=30, cols=6))
        assert_cache_is_bounded(runtime.display)
        runtime.tap_text("[40]")
        assert_cache_is_bounded(runtime.display)
