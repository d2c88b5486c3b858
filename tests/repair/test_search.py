"""The searcher end-to-end: journaled traffic, isolated validation."""

import pytest

from repro.core.errors import ReproError
from repro.repair import RepairBudget, RepairReport, search_repairs
from repro.resilience import truncate_journal
from repro.resilience.journal import Journal

from .conftest import COUNTER, RENDER_BROKEN, make_host


def faulting_host(journal_dir, taps=4):
    """A journaled host whose session just had an UPDATE rolled back."""
    host = make_host(journal_dir)
    token = host.create(source=COUNTER)
    for _ in range(taps):
        host.tap(token, text="reset")
    result = host.edit_source(token, RENDER_BROKEN)
    assert result.status == "rolled_back"
    return host, token


def test_search_finds_a_validated_repair(journal_dir):
    host, token = faulting_host(journal_dir)
    report = search_repairs(
        host.journal, token,
        faulting_source=RENDER_BROKEN,
        last_good_source=COUNTER,
        suspects=("start",),
        trigger="rollback",
        budget=RepairBudget(max_candidates=8, window=10, parallelism=2),
    )
    assert report.found
    assert report.trigger == "rollback"
    assert report.generated >= report.searched > 0
    best = report.best()
    assert best is not None and best.rank == 1 and best.validated
    assert best.events_replayed > 0
    assert best.events_ok == best.events_replayed
    # Ranks are 1..n and validated candidates sort strictly first.
    assert [c.rank for c in report.candidates] == list(
        range(1, len(report.candidates) + 1)
    )
    flags = [c.validated for c in report.candidates]
    assert flags == sorted(flags, reverse=True)


def test_best_repair_applies_and_heals_the_session(journal_dir):
    host, token = faulting_host(journal_dir)
    report = search_repairs(
        host.journal, token,
        faulting_source=RENDER_BROKEN,
        last_good_source=COUNTER,
        suspects=("start",),
        budget=RepairBudget(max_candidates=8, window=10),
    )
    result = host.edit_source(token, report.best().source)
    assert result.status == "applied"
    html, _generation, modified = host.render(token)
    assert modified and html
    host.tap(token, text="reset")  # traffic flows again


def test_search_survives_a_torn_journal(journal_dir):
    host, token = faulting_host(journal_dir)
    # Tear the journal tail mid-search-setup (crash semantics): the torn
    # record was never acknowledged, so the searcher must treat the
    # journal as if it ended at the last intact record — not crash.
    truncate_journal(host.journal.path, drop_bytes=16)
    report = search_repairs(
        Journal(journal_dir), token,
        faulting_source=RENDER_BROKEN,
        last_good_source=COUNTER,
        suspects=("start",),
        budget=RepairBudget(max_candidates=8, window=10),
    )
    assert isinstance(report, RepairReport)
    assert report.found


def test_exhausted_wall_budget_reports_without_crashing(journal_dir):
    host, token = faulting_host(journal_dir)
    report = search_repairs(
        host.journal, token,
        faulting_source=RENDER_BROKEN,
        last_good_source=COUNTER,
        budget=RepairBudget(wall_seconds=1e-9),
    )
    assert report.budget_exhausted
    assert report.searched < report.generated


def test_max_candidates_caps_the_search(journal_dir):
    host, token = faulting_host(journal_dir, taps=1)
    report = search_repairs(
        host.journal, token,
        faulting_source=RENDER_BROKEN,
        last_good_source=COUNTER,
        budget=RepairBudget(max_candidates=2, window=5),
    )
    assert report.generated <= 2
    assert report.searched <= 2


def test_search_without_a_journal_validates_on_fresh_sessions():
    report = search_repairs(
        faulting_source=RENDER_BROKEN,
        last_good_source=COUNTER,
        suspects=("start",),
        budget=RepairBudget(max_candidates=8),
    )
    assert report.found
    assert report.candidates[0].events_replayed == 0


def test_search_counts_and_observes_through_the_hooks(journal_dir):
    host, token = faulting_host(journal_dir, taps=1)
    seen = []
    search_repairs(
        host.journal, token,
        faulting_source=RENDER_BROKEN,
        last_good_source=COUNTER,
        suspects=("start",),
        budget=RepairBudget(max_candidates=6, window=5),
        count=lambda name, n=1: seen.append(name),
        observe=lambda name, value: seen.append(name),
    )
    for name in (
        "repair.searches", "repair.candidates_generated",
        "repair.candidates_validated", "repair.found",
        "repair.first_valid", "repair.search",
    ):
        assert name in seen


def test_each_candidate_is_compiled_once(journal_dir, monkeypatch):
    import repro.live.session as live_session
    import repro.surface.compile as surface_compile

    compiled_sources = []
    for module in (surface_compile, live_session):
        def counting(source, *args, _compile=module.compile_source,
                     **kwargs):
            compiled_sources.append(source)
            return _compile(source, *args, **kwargs)

        monkeypatch.setattr(module, "compile_source", counting)
    host, token = faulting_host(journal_dir)
    del compiled_sources[:]
    report = search_repairs(
        host.journal, token,
        faulting_source=RENDER_BROKEN,
        suspects=("start",),
        budget=RepairBudget(max_candidates=8, window=10, parallelism=2),
    )
    assert report.found and report.searched > 1
    for candidate in report.candidates:
        assert compiled_sources.count(candidate.source) == 1


def test_report_candidate_rejects_unknown_ranks():
    report = RepairReport(token="t", trigger="manual")
    with pytest.raises(ReproError):
        report.candidate(1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_candidates": 0},
        {"parallelism": 0},
        {"window": -1},
    ],
)
def test_budget_validates_its_limits(kwargs):
    with pytest.raises(ReproError):
        RepairBudget(**kwargs)
