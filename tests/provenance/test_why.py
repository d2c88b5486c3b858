"""Provenance round trip: why() names the exact span, slots and events
— and mutating the journal proves the attribution is causal."""

import pytest

from repro.apps.counter import SOURCE as COUNTER
from repro.api import Journal, Tracer
from repro.core.errors import ReproError
from repro.provenance import boxed_read_set, replay_session, why
from repro.provenance.divergence import _box_fragments

from .conftest import (
    TWO_GLOBALS,
    event_seqs,
    journaled_host,
    mutate_event,
)


def recorded_two_globals(journal_dir):
    """3 taps on the ``a`` box, 2 on the ``b`` box, interleaved."""
    host, _ = journaled_host(journal_dir, TWO_GLOBALS)
    token = host.create()
    for path in ([0], [1], [0], [1], [0]):
        host.tap(token, path=path)
    return token


def box_fragment(journal_dir, report):
    """The queried box's rendered HTML fragment after a fresh replay."""
    result = replay_session(Journal(journal_dir))
    return _box_fragments(result.session.display)[
        (report.box_id, report.occurrence)
    ]


class TestWhy:
    def test_why_names_span_slots_and_events(self, journal_dir):
        token = recorded_two_globals(journal_dir)
        report = why(Journal(journal_dir), text="a: 3")
        assert report.token == token
        assert report.path == (0,)
        assert report.owner == "page start (render)"
        assert "line" in str(report.span)
        # Exactly the one slot the box reads, attributed to the exact
        # event that last assigned it.
        assert report.reads == ("a",)
        (slot,) = report.slots
        a_taps = event_seqs(journal_dir, token)[0::2]
        assert (slot.name, slot.value) == ("a", "3")
        assert slot.version > 0
        assert slot.origin_seq == a_taps[-1]
        # Exactly the three a-taps, oldest first — the b-taps stay out.
        assert [link.seq for link in report.events] == a_taps
        assert all(link.wrote == ("a",) for link in report.events)

    def test_why_by_path_matches_why_by_text(self, journal_dir):
        recorded_two_globals(journal_dir)
        by_path = why(Journal(journal_dir), path=(1,))
        by_text = why(Journal(journal_dir), text="b: 2")
        # Write versions are process-global ticks, so two replays give
        # different absolute numbers — everything else must agree.
        assert by_path.reads == by_text.reads == ("b",)
        assert by_path.path == by_text.path == (1,)
        assert by_path.events == by_text.events
        assert [
            (s.name, s.value, s.origin_seq) for s in by_path.slots
        ] == [
            (s.name, s.value, s.origin_seq) for s in by_text.slots
        ]

    def test_mutating_a_named_event_changes_the_box(self, journal_dir):
        # The round trip, forward half: tamper with an event the report
        # *named* and the box must render differently on replay.
        recorded_two_globals(journal_dir)
        report = why(Journal(journal_dir), text="a: 3")
        before = box_fragment(journal_dir, report)
        mutate_event(journal_dir, report.events[0].seq, {"path": [1]})
        after = box_fragment(journal_dir, report)
        assert after != before
        assert "a: 2" in after

    def test_mutating_an_unrelated_event_leaves_the_box_identical(
        self, journal_dir
    ):
        # The control half: tamper with an event the report did NOT
        # name and the box's bytes must not move (even though the
        # display as a whole changes).
        token = recorded_two_globals(journal_dir)
        report = why(Journal(journal_dir), text="a: 3")
        named = {link.seq for link in report.events}
        unrelated = [
            seq for seq in event_seqs(journal_dir, token)
            if seq not in named
        ]
        before = box_fragment(journal_dir, report)
        whole_before = replay_session(
            Journal(journal_dir)
        ).session.html(title=token)
        mutate_event(journal_dir, unrelated[0], {"path": [9]})  # no-op tap
        after = box_fragment(journal_dir, report)
        whole_after = replay_session(
            Journal(journal_dir)
        ).session.html(title=token)
        assert after == before                  # the queried box: identical
        assert whole_after != whole_before      # the b box did change

    def test_accumulating_chain_links_every_assignment(self, journal_dir):
        # count := count + 1 reads count: the reverse closure must link
        # the whole chain, including taps before a reset.
        host, _ = journaled_host(journal_dir, COUNTER)
        token = host.create()
        host.tap(token, path=[0])
        host.tap(token, path=[0])
        host.tap(token, path=[1])   # reset
        host.tap(token, path=[0])
        report = why(Journal(journal_dir), text="count: 1")
        assert [link.seq for link in report.events] == event_seqs(
            journal_dir, token
        )

    def test_constant_box_reads_nothing(self, journal_dir):
        recorded_two_globals(journal_dir)
        host_journal = Journal(journal_dir)
        session = replay_session(host_journal).session
        code = session.runtime.system.code
        # The read-set helper itself: the a box depends only on a.
        box_id = session.select_box((0,)).box_id
        assert boxed_read_set(code, box_id) == {"a"}

    def test_metrics_are_counted(self, journal_dir):
        recorded_two_globals(journal_dir)
        tracer = Tracer()
        report = why(Journal(journal_dir), text="a: 3", tracer=tracer)
        metrics = tracer.metrics()
        assert metrics["provenance.queries"] == 1
        assert metrics["provenance.events_linked"] == len(report.events)

    def test_needs_a_path_or_a_text(self, journal_dir):
        recorded_two_globals(journal_dir)
        with pytest.raises(ReproError, match="path or a box text"):
            why(Journal(journal_dir))

    def test_unknown_text_refused(self, journal_dir):
        recorded_two_globals(journal_dir)
        with pytest.raises(ReproError):
            why(Journal(journal_dir), text="no such box")
