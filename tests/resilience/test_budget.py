"""Per-transition budgets: fuel caps and virtual-clock deadlines."""

import pytest

from repro.core.errors import DeadlineExceeded, FuelExhausted, ReproError
from repro.live.session import LiveSession
from repro.resilience import UNLIMITED, Budget
from repro.stdlib.web import make_services

from .conftest import CRASHY, DOWNLOADING, downloading_impls


class TestBudget:
    def test_defaults_are_unlimited(self):
        assert UNLIMITED.deadline is None
        assert UNLIMITED.fuel >= 1_000_000

    def test_validation(self):
        with pytest.raises(ReproError):
            Budget(fuel=0)
        with pytest.raises(ReproError):
            Budget(deadline=-1.0)

    def test_fuel_budget_trips_on_expensive_render(self):
        # A tiny fuel allowance: even booting the page blows it.  Fuel
        # counts machine steps: the tree machine charges every node, the
        # compiled one only function applications (this page has none),
        # so the tree machine is the one a five-step budget can trip.
        with pytest.raises(FuelExhausted):
            LiveSession(CRASHY, budget=Budget(fuel=5), backend="tree")

    def test_fuel_budget_roomy_enough_passes(self):
        session = LiveSession(CRASHY, budget=Budget(fuel=100_000))
        assert session.runtime.contains_text("bump")

    def test_deadline_trips_on_slow_download(self):
        session = LiveSession(
            DOWNLOADING,
            host_impls=downloading_impls(),
            services=make_services(latency=5.0),
            budget=Budget(deadline=1.0),
        )
        with pytest.raises(DeadlineExceeded):
            session.tap_text("n = 0")

    def test_deadline_is_per_transition_not_cumulative(self):
        # Each tap charges 0.5 virtual seconds — under a 1.0 deadline
        # every single transition fits, however many there are.
        session = LiveSession(
            DOWNLOADING,
            host_impls=downloading_impls(),
            services=make_services(latency=0.5),
            budget=Budget(deadline=1.0),
        )
        for label in ("n = 0", "n = 3", "n = 3"):
            session.tap_text(label)
        assert session.runtime.system.services.clock.now == 1.5

    def test_record_policy_logs_a_blown_deadline(self):
        session = LiveSession(
            DOWNLOADING,
            host_impls=downloading_impls(),
            services=make_services(latency=5.0),
            budget=Budget(deadline=1.0),
            fault_policy="record",
        )
        session.tap_text("n = 0")
        assert len(session.runtime.faults) == 1
        assert isinstance(session.runtime.faults[0].error, DeadlineExceeded)
        # Still alive — and the handler's effects are kept: the deadline
        # is detected after the transition, not by aborting it ("partial
        # execution is kept", exactly like any other recorded fault).
        assert session.runtime.contains_text("n = 3")


class TestFaultTimestamps:
    def test_fault_records_virtual_time(self):
        # satellite: Fault carries the virtual clock, which is
        # deterministic — the wall clock is not.
        session = LiveSession(
            DOWNLOADING,
            host_impls=downloading_impls(),
            services=make_services(latency=5.0),
            budget=Budget(deadline=1.0),
            fault_policy="record",
        )
        session.tap_text("n = 0")
        fault = session.runtime.faults[0]
        assert fault.timestamp > 0.0         # wall clock
        assert fault.vtimestamp == 5.0       # virtual clock, deterministic
