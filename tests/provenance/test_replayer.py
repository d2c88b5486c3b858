"""Deterministic replay: byte-identical state at any journal seq."""

import pytest

from repro.apps.counter import SOURCE as COUNTER
from repro.api import Journal, Tracer
from repro.core.errors import ReproError
from repro.provenance import replay_session, replay_to

from .conftest import event_seqs, journaled_host

CRASHY = (
    "global d : number = 1\n"
    "page start()\n  render\n    boxed\n      post \"n = \" || 10 / d\n"
    "      on tap do\n        d := 0\n"
)


class TestReplay:
    def test_cold_replay_is_byte_identical_to_live(self, journal_dir):
        host, _ = journaled_host(journal_dir, COUNTER)
        token = host.create()
        for _ in range(5):
            host.tap(token, path=[0])
        live_html = host.render(token)[0]

        result = replay_session(Journal(journal_dir), use_checkpoint=False)
        assert result.token == token
        assert result.checkpoint_seq is None
        assert result.events_replayed == 5
        # The host titles documents with the token.
        assert result.session.html(title=token) == live_html

    def test_checkpoint_assisted_replays_only_the_tail(self, journal_dir):
        host, _ = journaled_host(journal_dir, COUNTER, checkpoint_every=2)
        token = host.create()
        for _ in range(5):
            host.tap(token, path=[0])
        live_html = host.render(token)[0]

        result = replay_session(Journal(journal_dir))
        assert result.checkpoint_seq is not None
        assert result.events_replayed <= 2
        assert result.session.html(title=token) == live_html

    def test_replay_to_every_generation_is_byte_identical(self, journal_dir):
        # The acceptance bar: a 50+ event session, checkpointed along
        # the way, must replay byte-identically at *every* generation.
        host, _ = journaled_host(journal_dir, COUNTER, checkpoint_every=10)
        token = host.create()
        live = [host.render(token)[0]]          # generation 0: the boot
        for step in range(52):
            host.tap(token, path=[1] if step % 13 == 12 else [0])
            live.append(host.render(token)[0])

        journal = Journal(journal_dir)
        seqs = event_seqs(journal_dir, token)
        assert len(seqs) == 52
        create_seq = next(journal.read())["seq"]
        checkpoints_used = 0
        for generation, target in enumerate([create_seq] + seqs):
            result = replay_to(journal, token, seq=target)
            assert result.session.html(title=token) == live[generation], (
                "generation {} (seq {}) diverged".format(generation, target)
            )
            assert result.last_seq <= target
            if result.checkpoint_seq is not None:
                checkpoints_used += 1
        # Late generations must actually be seeded from checkpoints.
        assert checkpoints_used > 20

    def test_replayed_session_is_live(self, journal_dir):
        host, _ = journaled_host(journal_dir, COUNTER)
        token = host.create()
        host.tap(token, path=[0])

        result = replay_session(Journal(journal_dir))
        # Time travel hands back a working present: fork the past.
        result.session.tap((0,))
        assert "count: 2" in result.session.screenshot()

    def test_faults_are_reencountered_not_raised(self, journal_dir):
        host, journal = journaled_host(journal_dir, CRASHY)
        host.session_kwargs["fault_policy"] = "record"
        token = host.create()
        host.tap(token, path=[0])          # d := 0 → next render divides by 0
        result = replay_session(
            Journal(journal_dir),
            session_kwargs={"fault_policy": "record"},
        )
        assert result.events_replayed == 1
        assert result.faults >= 1

    def test_metrics_are_counted(self, journal_dir):
        host, _ = journaled_host(journal_dir, COUNTER, checkpoint_every=2)
        token = host.create()
        for _ in range(3):
            host.tap(token, path=[0])
        tracer = Tracer()
        replay_session(Journal(journal_dir), tracer=tracer)
        metrics = tracer.metrics()
        assert metrics["replay.sessions"] == 1
        assert metrics["replay.checkpoints_used"] == 1
        assert metrics["replay.events"] >= 1


class TestResolveToken:
    def test_empty_journal_refused(self, journal_dir):
        with pytest.raises(ReproError, match="no sessions"):
            replay_session(Journal(journal_dir))

    def test_ambiguous_journal_names_the_candidates(self, journal_dir):
        host, _ = journaled_host(journal_dir, COUNTER)
        first = host.create()
        second = host.create()
        with pytest.raises(ReproError) as info:
            replay_session(Journal(journal_dir))
        assert first in str(info.value) and second in str(info.value)

    def test_explicit_token_selects_the_session(self, journal_dir):
        host, _ = journaled_host(journal_dir, COUNTER)
        first = host.create()
        second = host.create()
        host.tap(second, path=[0])
        result = replay_session(Journal(journal_dir), second)
        assert result.events_replayed == 1
        assert "count: 1" in result.session.screenshot()
        assert replay_session(Journal(journal_dir), first).events_replayed == 0


class TestProvenanceCapture:
    def test_capture_records_reads_and_writes_per_event(self, journal_dir):
        host, _ = journaled_host(journal_dir, COUNTER, checkpoint_every=1)
        token = host.create()
        host.tap(token, path=[0])
        host.tap(token, path=[0])

        result = replay_session(Journal(journal_dir), capture_provenance=True)
        # Capture forces a cold start: attribution needs the whole tape.
        assert result.checkpoint_seq is None
        assert len(result.provenance) == 2
        for info in result.provenance.values():
            assert info["op"] == "tap"
            writes = {}
            for entry in info["entries"]:
                writes.update(entry["writes"])
            assert "count" in writes

    def test_capture_off_by_default(self, journal_dir):
        host, _ = journaled_host(journal_dir, COUNTER)
        token = host.create()
        host.tap(token, path=[0])
        result = replay_session(Journal(journal_dir))
        assert result.provenance == {}
        assert result.session.runtime.system.provenance_log == []
