"""The instrumented runtime: spans and counters from real transitions.

These tests drive the ordinary public surface (Runtime, LiveSession)
with a real :class:`~repro.obs.trace.Tracer` attached and assert that
the observability layer reports what actually happened — including the
ISSUE acceptance scenarios: an UPDATE that deletes an ill-typed global
increments ``store_entries_deleted``, and one ``edit_source`` call
yields a single ``edit_cycle`` span whose children cover
parse/typecheck/lower/update/render.
"""

from repro.api import Tracer
from repro.obs import CATALOG
from repro.live.session import LiveSession
from repro.render.layout import LayoutEngine
from repro.surface.compile import compile_source
from repro.system.runtime import Runtime

COUNTER = """\
global count : number = 0
page start()
  render
    boxed
      post "count " || count
      on tap do
        count := count + 1
"""

#: Same app, but ``count`` is now a string: the old numeric store entry
#: is ill-typed under the new code and Fig. 12 fix-up must delete it.
COUNTER_RETYPED = """\
global count : string = "fresh"
page start()
  render
    boxed
      post "count " || count
      on tap do
        count := "again"
"""

MEMO_APP = """\
global greeting : string = "hi"
global clicks : number = 0

fun cell(n : number)
  boxed
    post greeting || " " || n

page start()
  render
    for i = 1 to 4 do
      cell(i)
    boxed
      post "clicks " || clicks
      on tap do
        clicks := clicks + 1
"""

#: Rows drawn inline (no memoized calls), so only box reuse can share
#: them between renders.
ROWS_APP = """\
global clicks : number = 0

page start()
  render
    for i = 1 to 4 do
      boxed
        post "row " || i
    boxed
      post "clicks " || clicks
      on tap do
        clicks := clicks + 1
"""

CRASHY = """\
global d : number = 1
page start()
  render
    boxed
      post "n = " || 10 / d
      on tap do
        d := 0
"""


def traced_runtime(source=COUNTER, **kwargs):
    tracer = Tracer()
    compiled = compile_source(source)
    rt = Runtime(
        compiled.code, natives=compiled.natives, tracer=tracer, **kwargs
    ).start()
    return rt, tracer


class TestTransitionSpans:
    def test_startup_produces_the_expected_span_tree(self):
        rt, tracer = traced_runtime()
        names = [span.name for span in tracer.spans()]
        assert "startup" in names
        assert "event" in names     # the queued start-page init
        assert "render" in names
        render = next(s for s in tracer.spans() if s.name == "render")
        assert render.attrs["page"] == "start"

    def test_tap_produces_tap_event_render(self):
        rt, tracer = traced_runtime()
        before = len(tracer.spans())
        rt.tap_text("count 0")
        new = [span.name for span in tracer.spans()[before:]]
        assert "tap" in new and "event" in new and "render" in new

    def test_transitions_carry_elapsed_and_span_id(self):
        rt, tracer = traced_runtime()
        rt.tap_text("count 0")
        span_ids = {span.span_id for span in tracer.spans()}
        for transition in rt.trace:
            assert transition.elapsed > 0.0
            assert transition.span_id in span_ids

    def test_transition_equality_ignores_timing(self):
        rt, _ = traced_runtime()
        plain = Runtime(compile_source(COUNTER).code).start()
        assert [t.rule for t in rt.trace] == [t.rule for t in plain.trace]
        assert rt.trace == plain.trace  # elapsed/span_id are compare=False

    def test_default_runtime_records_nothing(self):
        rt = Runtime(compile_source(COUNTER).code).start()
        assert rt.metrics() == {}
        assert rt.spans() == ()


class TestCounters:
    def test_render_and_eval_counters(self):
        rt, tracer = traced_runtime()
        rt.tap_text("count 0")
        metrics = rt.metrics()
        for name in CATALOG:
            assert name in metrics
        assert metrics["boxes_rendered"] > 0
        assert metrics["eval_steps"] > 0
        # STARTUP queues the init event, the tap queues the handler.
        assert metrics["events_queued"] >= 2

    def test_reuse_counter(self):
        # §5 box reuse is the layout engine's: after a tap, the rows the
        # tap did not change are the previous layout's objects, so only
        # the root and the tapped box are measured again.
        rt, tracer = traced_runtime(ROWS_APP)
        engine = LayoutEngine()
        engine.layout(rt.display)
        rt.tap_text("clicks 0")
        engine.layout(rt.display)
        assert engine.cache_misses == 2
        assert engine.cache_hits >= 4
        assert "reuse_shared_subtrees" not in rt.metrics()

    def test_memo_hits_and_misses(self):
        rt, tracer = traced_runtime(MEMO_APP)
        after_start = rt.metrics()["memo_misses"]
        assert after_start > 0          # first render populates the memo
        rt.tap_text("clicks 0")
        metrics = rt.metrics()
        # Re-render: cell(1..4) args and read sets are unchanged → hits.
        assert metrics["memo_hits"] >= 4

    def test_update_counts_deleted_ill_typed_globals(self):
        rt, tracer = traced_runtime()
        rt.tap_text("count 0")          # store now holds count := 1
        assert rt.metrics()["store_entries_deleted"] == 0
        compiled = compile_source(COUNTER_RETYPED)
        report = rt.update_code(compiled.code, natives=compiled.natives)
        assert report.dropped_globals == ["count"]
        assert rt.metrics()["store_entries_deleted"] == 1
        update = next(s for s in tracer.spans() if s.name == "update")
        assert "fixup" in {
            s.name for s in tracer.children_of(update.span_id)
        }

    def test_faults_recorded_counter_and_fault_metadata(self):
        rt, tracer = traced_runtime(CRASHY, fault_policy="record")
        rt.tap_text("n = 10")           # d := 0 → render divides by zero
        assert rt.metrics()["faults_recorded"] >= 1
        fault = rt.faults[0]
        assert fault.during == "RENDER"
        assert fault.timestamp > 0.0
        span_ids = {span.span_id for span in tracer.spans()}
        assert fault.span_id in span_ids


class TestEditCycle:
    def test_one_edit_cycle_span_covering_all_phases(self):
        tracer = Tracer()
        session = LiveSession(COUNTER, tracer=tracer)
        session.tap_text("count 0")
        before = len([s for s in tracer.spans() if s.name == "edit_cycle"])
        result = session.edit_source(
            COUNTER.replace('"count "', '"total "')
        )
        assert result.applied
        cycles = [s for s in tracer.spans() if s.name == "edit_cycle"]
        assert len(cycles) == before + 1
        cycle = cycles[-1]
        children = tracer.children_of(cycle.span_id)
        child_names = [span.name for span in children]
        for phase in ("parse", "typecheck", "lower", "update", "render"):
            assert phase in child_names
        assert sum(s.duration for s in children) <= cycle.duration

    def test_edit_result_phase_breakdown(self):
        session = LiveSession(COUNTER, tracer=Tracer())
        result = session.edit_source(
            COUNTER.replace('"count "', '"n "')
        )
        breakdown = result.phase_seconds
        assert set(breakdown) >= {
            "parse", "typecheck", "lower", "update", "render",
        }
        assert all(seconds >= 0.0 for seconds in breakdown.values())
        assert sum(breakdown.values()) <= result.elapsed

    def test_rejected_edit_still_yields_a_cycle(self):
        tracer = Tracer()
        session = LiveSession(COUNTER, tracer=tracer)
        result = session.edit_source("page start(\n  oops")
        assert not result.applied
        cycle = [s for s in tracer.spans() if s.name == "edit_cycle"][-1]
        children = [s.name for s in tracer.children_of(cycle.span_id)]
        assert "parse" in children
        assert "update" not in children   # never got that far

    def test_untraced_session_measures_elapsed_only(self):
        session = LiveSession(COUNTER)
        result = session.edit_source(
            COUNTER.replace('"count "', '"n "')
        )
        assert result.applied
        assert result.elapsed > 0.0
        assert result.phases == ()
