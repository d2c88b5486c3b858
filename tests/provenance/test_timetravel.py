"""The TimeMachine cursor: goto/step over a recorded session."""

import pytest

from repro.apps.counter import SOURCE as COUNTER
from repro.api import Journal
from repro.core.errors import ReproError
from repro.provenance import TimeMachine

from .conftest import journaled_host


@pytest.fixture
def machine(journal_dir):
    host, _ = journaled_host(journal_dir, COUNTER, checkpoint_every=3)
    token = host.create()
    for _ in range(6):
        host.tap(token, path=[0])
    return TimeMachine(Journal(journal_dir))


class TestTimeMachine:
    def test_positions_cover_boot_plus_events(self, machine):
        assert len(machine) == 7
        assert machine.position is None  # no cursor before the first move

    def test_every_position_shows_its_count(self, machine):
        for position in range(len(machine)):
            machine.goto(position)
            assert "count: {}".format(position) in machine.screenshot()
            assert machine.position == position

    def test_step_back_and_forward(self, machine):
        machine.end()
        assert "count: 6" in machine.screenshot()
        machine.step_back()
        assert "count: 5" in machine.screenshot()
        machine.step_forward()
        assert "count: 6" in machine.screenshot()

    def test_boot_state_precedes_every_event(self, machine):
        machine.start()
        assert "count: 0" in machine.screenshot()
        assert machine.seq is None
        with pytest.raises(ReproError, match="boot"):
            machine.step_back()

    def test_step_past_the_end_refused(self, machine):
        machine.end()
        with pytest.raises(ReproError, match="end"):
            machine.step_forward()

    def test_goto_out_of_range_refused(self, machine):
        with pytest.raises(ReproError, match="out of range"):
            machine.goto(7)

    def test_goto_seq_lands_on_the_covering_position(self, machine):
        target = machine.event_seqs[3]
        machine.goto_seq(target)
        assert machine.position == 4
        assert machine.seq == target
        assert "count: 4" in machine.screenshot()

    def test_jumps_use_checkpoints(self, machine):
        machine.end()
        result = machine.last_replay
        assert result.checkpoint_seq is not None
        assert result.events_replayed <= 3  # tail, not the whole prefix

    def test_the_past_is_a_live_fork(self, machine, journal_dir):
        machine.goto(2)
        machine.session.tap((1,))          # reset — in the fork only
        assert "count: 0" in machine.screenshot()
        # The journal is untouched: the real end still shows count 6.
        end = TimeMachine(Journal(journal_dir)).end()
        assert "count: 6" in end.screenshot()

    def test_session_requires_a_cursor_move(self, machine):
        with pytest.raises(ReproError, match="cursor"):
            machine.session
