"""Respawn backoff: a crash-looping worker cannot hot-spin the
supervisor.

These tests never launch real worker processes — ``_spawn`` is replaced
with a fake that installs a controllable process object, so the
backoff arithmetic (streak counting, jittered exponential delays, the
armed window refusing to spawn) is exercised in isolation and fast.
"""

import subprocess
import time

import pytest

from repro.cluster.supervisor import (
    RESPAWN_BACKOFF_BASE,
    RESPAWN_BACKOFF_CAP,
    RESPAWN_STABLE_SECONDS,
    ClusterSupervisor,
    WorkerDied,
)
from repro.obs.trace import Tracer


class FakeProcess:
    def __init__(self):
        self.returncode = None
        self.pid = 4242

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        if self.returncode is None:
            raise subprocess.TimeoutExpired("fake-worker", timeout)
        return self.returncode


@pytest.fixture
def supervisor(tmp_path, monkeypatch):
    supervisor = ClusterSupervisor(
        workers=1, journal_root=str(tmp_path), tracer=Tracer(),
    )
    spawned = []

    def fake_spawn(slot):
        slot.process = FakeProcess()
        slot.last_spawn = time.monotonic()
        spawned.append(slot.slot)

    monkeypatch.setattr(supervisor, "_spawn", fake_spawn)
    supervisor.spawned = spawned
    return supervisor


def kill(supervisor, code=1):
    supervisor._slots[0].process.returncode = code


class TestRespawnBackoff:
    def test_first_revive_spawns_without_backoff(self, supervisor):
        assert supervisor.revive(0) is True
        slot = supervisor._slots[0]
        assert slot.crash_streak == 0
        assert slot.backoff_until is None
        metrics = supervisor.tracer.metrics()
        assert metrics["cluster.worker_respawn_backoffs"] == 0

    def test_rapid_death_arms_a_jittered_backoff(self, supervisor):
        supervisor.revive(0)
        kill(supervisor)
        assert supervisor.revive(0) is True  # respawns, then arms
        slot = supervisor._slots[0]
        assert slot.crash_streak == 1
        remaining = slot.backoff_until - time.monotonic()
        assert 0 < remaining <= RESPAWN_BACKOFF_BASE * 1.25
        metrics = supervisor.tracer.metrics()
        assert metrics["cluster.worker_respawns"] == 2
        assert metrics["cluster.worker_respawn_backoffs"] == 1

    def test_armed_window_refuses_to_spawn(self, supervisor):
        supervisor.revive(0)
        kill(supervisor)
        supervisor.revive(0)
        kill(supervisor)
        spawns_before = len(supervisor.spawned)
        with pytest.raises(WorkerDied) as excinfo:
            supervisor.revive(0)
        assert "backoff" in str(excinfo.value)
        assert len(supervisor.spawned) == spawns_before

    def test_streak_grows_the_delay_exponentially(self, supervisor):
        supervisor.revive(0)
        for streak in (1, 2, 3):
            kill(supervisor)
            slot = supervisor._slots[0]
            slot.backoff_until = time.monotonic() - 0.01  # window over
            assert supervisor.revive(0) is True
            assert slot.crash_streak == streak
            delay = slot.backoff_until - time.monotonic()
            ideal = min(
                RESPAWN_BACKOFF_CAP,
                RESPAWN_BACKOFF_BASE * 2 ** (streak - 1),
            )
            assert ideal * 0.7 < delay <= ideal * 1.25

    def test_a_stable_run_resets_the_streak(self, supervisor):
        supervisor.revive(0)
        kill(supervisor)
        slot = supervisor._slots[0]
        slot.backoff_until = None
        supervisor.revive(0)
        assert slot.crash_streak == 1
        # The replacement survives past the stability threshold...
        slot.last_spawn = time.monotonic() - RESPAWN_STABLE_SECONDS - 1
        slot.backoff_until = time.monotonic() - 0.01
        kill(supervisor)
        supervisor.revive(0)
        # ...so its next death is not a crash loop.
        assert slot.crash_streak == 0
        assert slot.backoff_until is None

    def test_alive_worker_is_left_alone(self, supervisor):
        supervisor.revive(0)
        assert supervisor.revive(0) is False
        assert len(supervisor.spawned) == 1

    def test_healthz_reports_the_armed_window(self, supervisor):
        supervisor.revive(0)
        kill(supervisor)
        supervisor.revive(0)
        kill(supervisor)
        info = supervisor.healthz()["workers"][0]
        assert info["respawn_backoff_seconds"] > 0
        assert info["crash_streak"] == 1
        assert not supervisor.healthz()["ok"]
