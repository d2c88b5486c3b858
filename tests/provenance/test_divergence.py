"""Trace replay against edited code: the divergence regression gate."""

from repro.apps.counter import SOURCE as COUNTER
from repro.api import Journal, Tracer
from repro.provenance import divergence_report

from .conftest import event_seqs, journaled_host

BENIGN = COUNTER + "\nfun unused(x : number) : number\n  return x\n"
BREAKING = COUNTER.replace("count + 1", "count + 2")


def recorded_counter(journal_dir, taps=4):
    host, _ = journaled_host(journal_dir, COUNTER)
    token = host.create()
    for _ in range(taps):
        host.tap(token, path=[0])
    return token


class TestDivergence:
    def test_benign_edit_is_identical(self, journal_dir):
        recorded_counter(journal_dir)
        report = divergence_report(Journal(journal_dir), BENIGN)
        assert report.clean and not report.diverged
        assert report.status == "identical"
        assert report.generations == 5      # boot + 4 taps
        assert report.events_replayed == 4
        assert "byte-identical" in str(report)

    def test_breaking_edit_names_generation_seq_and_box(self, journal_dir):
        token = recorded_counter(journal_dir)
        report = divergence_report(Journal(journal_dir), BREAKING)
        assert report.diverged and report.status == "diverged"
        # The boot render agrees (count starts at 0 either way); the
        # first tap is where +1 and +2 part ways.
        assert report.first_divergent_generation == 1
        assert report.first_divergent_seq == event_seqs(journal_dir, token)[0]
        assert [
            (c.occurrence, c.change) for c in report.changed_boxes
        ] == [(0, "changed")]

    def test_boot_divergence_has_no_seq(self, journal_dir):
        recorded_counter(journal_dir, taps=1)
        report = divergence_report(
            Journal(journal_dir),
            COUNTER.replace('"count: "', '"taps: "')
        )
        assert report.first_divergent_generation == 0
        assert report.first_divergent_seq is None

    def test_uncompilable_edit_is_rejected(self, journal_dir):
        recorded_counter(journal_dir)
        report = divergence_report(Journal(journal_dir), "page start(\n")
        assert report.status == "rejected" and report.diverged
        assert report.problems
        assert "does not compile" in str(report)

    def test_recorded_edit_source_replays_on_both_runs(self, journal_dir):
        # A trace that itself contains an edit re-asserts the recorded
        # program mid-replay on both runs, so a benign edit still
        # compares identical.
        host, _ = journaled_host(journal_dir, COUNTER)
        token = host.create()
        host.tap(token, path=[0])
        host.edit_source(token, COUNTER.replace('"reset"', '"clear"'))
        host.tap(token, path=[0])
        report = divergence_report(Journal(journal_dir), BENIGN)
        assert report.clean, str(report)

    def test_divergences_are_counted(self, journal_dir):
        recorded_counter(journal_dir)
        tracer = Tracer()
        divergence_report(Journal(journal_dir), BREAKING, tracer=tracer)
        assert tracer.metrics()["replay.divergences"] == 1
