"""The per-session circuit breaker in the SessionHost."""

import pytest

from repro.core.errors import ReproError, SessionQuarantined
from repro.api import Tracer
from repro.serve.host import SessionHost

from .conftest import CRASHY

FIXED = CRASHY.replace("1 / 0", "1")


def make_host(quarantine_after=3, **kwargs):
    kwargs.setdefault("session_kwargs", {"fault_policy": "record"})
    return SessionHost(
        pool_size=4,
        default_source=CRASHY,
        tracer=Tracer(),
        quarantine_after=quarantine_after,
        **kwargs
    )


def crash(host, token, times):
    for _ in range(times):
        host.tap(token, text="crash")


class TestBreaker:
    def test_threshold_validated(self):
        with pytest.raises(ReproError):
            make_host(quarantine_after=0)

    def test_consecutive_faults_quarantine(self):
        host = make_host()
        token = host.create()
        crash(host, token, 2)
        assert not host.is_quarantined(token)
        crash(host, token, 1)
        assert host.is_quarantined(token)
        assert host.metrics()["sessions_quarantined"] == 1
        assert host.stats()["quarantined"] == 1

    def test_a_clean_op_resets_the_count(self):
        host = make_host()
        token = host.create()
        crash(host, token, 2)
        host.tap(token, text="bump")       # clean: the streak breaks
        crash(host, token, 2)
        assert not host.is_quarantined(token)

    def test_quarantined_ops_are_refused_typed(self):
        host = make_host()
        token = host.create()
        crash(host, token, 3)
        with pytest.raises(SessionQuarantined):
            host.tap(token, text="bump")
        with pytest.raises(SessionQuarantined):
            host.batch(token, [("back",)])

    def test_quarantined_render_serves_last_good_degraded(self):
        host = make_host()
        token = host.create()
        html_before, generation, _ = host.render(token)
        crash(host, token, 3)
        html, after_generation, modified = host.render(token)
        assert modified and html == html_before
        assert after_generation == generation
        # ...and the 304 path still works while degraded.
        none_html, _, not_modified = host.render(
            token, if_generation=generation
        )
        assert none_html is None and not not_modified

    def test_edit_source_is_the_repair_path(self):
        host = make_host()
        token = host.create()
        crash(host, token, 3)
        assert host.is_quarantined(token)
        result = host.edit_source(token, FIXED)
        assert result.applied
        assert not host.is_quarantined(token)
        # Interactive again:
        assert host.tap(token, text="bump") == "start"

    def test_a_rejected_repair_keeps_the_breaker_open(self):
        host = make_host()
        token = host.create()
        crash(host, token, 3)
        result = host.edit_source(token, "page start(\n")
        assert not result.applied
        assert host.is_quarantined(token)

    def test_a_rejected_edit_does_not_break_the_streak(self):
        # A rejected edit never touched the runtime, so interleaving
        # rejected edits between faults must not keep resetting the
        # count and hold a faulty session out of quarantine forever.
        host = make_host()
        token = host.create()
        for _ in range(3):
            host.tap(token, text="crash")
            result = host.edit_source(token, "page start(\n")
            assert result.status == "rejected"
        assert host.is_quarantined(token)

    def test_quarantine_message_survives_rejected_edits(self):
        # On an open breaker, a rejected edit must not zero the streak
        # the refusal message reports.
        host = make_host()
        token = host.create()
        crash(host, token, 3)
        host.edit_source(token, "page start(\n")
        with pytest.raises(SessionQuarantined) as caught:
            host.tap(token, text="bump")
        assert "3 consecutive" in str(caught.value)

    def test_breaker_counts_raise_policy_faults_too(self):
        # Under "raise" a fault propagates to the client *and* trips the
        # breaker (with threshold 1 here: one strike quarantines — under
        # "raise" the faulted session cannot settle for another strike).
        from repro.core.errors import EvalError

        host = make_host(
            quarantine_after=1,
            session_kwargs={"fault_policy": "raise"},
        )
        token = host.create()
        with pytest.raises(EvalError):
            host.tap(token, text="crash")
        assert host.is_quarantined(token)

    def test_eviction_does_not_launder_the_record(self):
        host = make_host()
        token = host.create()
        crash(host, token, 3)
        assert host.evict(token)
        assert host.is_quarantined(token)
        with pytest.raises(SessionQuarantined):
            host.tap(token, text="bump")

    def test_evicted_quarantined_session_keeps_its_degraded_html(self):
        host = make_host()
        token = host.create()
        html_before, generation, _ = host.render(token)
        crash(host, token, 3)
        assert host.evict(token)
        assert host._entries[token].html == html_before
        html, after_generation, modified = host.render(token)
        assert modified and html == html_before
        assert after_generation == generation

    def test_quarantine_disabled_with_none(self):
        host = make_host(quarantine_after=None)
        token = host.create()
        crash(host, token, 10)
        assert not host.is_quarantined(token)


class TestFaultPersistence:
    def test_faults_round_trip_through_the_image(self):
        # satellite: evict → rehydrate must not launder the fault record.
        from repro.persist import load_image, save_image

        host = make_host()
        token = host.create()
        crash(host, token, 2)
        image = host.snapshot(token)
        assert len(image["faults"]) == 2
        assert "division by zero" in image["faults"][0]["error"]
        restored = load_image(image, fault_policy="record")
        assert len(restored.runtime.faults) == 2
        assert restored.runtime.faults[0].during == "EVENT"
        # ...and saving again carries them forward unchanged.
        assert len(save_image(restored)["faults"]) == 2
