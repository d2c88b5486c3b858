"""Memoization is unobservable — a hypothesis property over live edits.

For random well-formed programs (helpers carrying the render effect, so
the memo actually engages) and random well-typed edit sequences, a
memoized system and the ``faithful=True`` oracle (no memo, no box reuse)
must produce **byte-identical HTML** after every update.

The historical caveat: box *occurrence numbers* (the k-th on-screen
occurrence of source box ``box_id``, emitted as ``data-occurrence`` and
used by Fig. 2 UI→code navigation) are assigned in document order by
each render pass, so naively splicing a cached subtree replays the
occurrence numbers of the *original* render position.  The incremental
engine closes this by re-stamping occurrences during replay
(:func:`repro.eval.memo.replay_items`), and this property is the
regression net: any divergence — occurrence numbers included — fails
the byte comparison.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.metatheory.generators import edited_codes, live_programs
from repro.render.html_backend import render_html
from repro.system.transitions import System

_SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def editing_sessions(draw, max_edits=3):
    """A start program plus a sequence of well-typed successor programs."""
    code = draw(live_programs())
    current = code
    edits = []
    for _ in range(draw(st.integers(1, max_edits))):
        current = draw(edited_codes(current))
        edits.append(current)
    return code, edits


def html_of(system):
    return render_html(system.display)


class TestMemoizationIsUnobservable:
    @_SETTINGS
    @given(session=editing_sessions())
    def test_byte_identical_html_through_edit_sequences(self, session):
        code, edits = session
        memoized = System(code)
        plain = System(code, faithful=True)
        memoized.run_to_stable()
        plain.run_to_stable()
        assert html_of(memoized) == html_of(plain)
        for new_code in edits:
            memoized.update(new_code)
            plain.update(new_code)
            memoized.run_to_stable()
            plain.run_to_stable()
            assert html_of(memoized) == html_of(plain)

    @_SETTINGS
    @given(code=live_programs())
    def test_byte_identical_html_on_pure_rerender(self, code):
        # Same program, second render: everything that can hit, hits —
        # and the document must not move a byte (occurrence numbers
        # included).
        memoized = System(code)
        memoized.run_to_stable()
        first = html_of(memoized)
        memoized._invalidate()
        memoized.run_to_stable()
        assert html_of(memoized) == first
