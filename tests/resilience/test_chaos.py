"""Deterministic fault injection across every layer.

The acceptance bar: at least five distinct fault categories —
injected evaluation faults, fuel exhaustion, service unavailability,
slow I/O blowing a deadline, HTTP refusal (covered in
``test_fault_policy_server``), and torn journals (``test_recovery``) —
each proving the recovery path it targets.
"""

import pytest

from repro.core.errors import (
    DeadlineExceeded,
    FuelExhausted,
    InjectedFault,
    ReproError,
)
from repro.live.session import LiveSession
from repro.api import Tracer
from repro.resilience import Budget, FaultInjector, FaultPlan
from repro.stdlib.web import make_services

from .conftest import CRASHY, DOWNLOADING, downloading_impls


class TestFaultPlan:
    def test_unknown_point_rejected(self):
        with pytest.raises(ReproError):
            FaultPlan(rates={"disk": 1.0})

    def test_rate_range_validated(self):
        with pytest.raises(ReproError):
            FaultPlan(rates={"eval": 1.5})

    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=7, rates={"eval": 0.5, "service": 0.3})
        runs = []
        for _ in range(2):
            injector = FaultInjector(plan)
            runs.append(
                [injector.should_fail("eval") for _ in range(50)]
                + [injector.should_fail("service") for _ in range(50)]
            )
        assert runs[0] == runs[1]
        assert any(runs[0])

    def test_streams_are_independent_per_point(self):
        plan = FaultPlan(seed=7, rates={"eval": 0.5, "service": 0.5})
        a = FaultInjector(plan)
        interleaved = [a.should_fail("eval") for _ in range(20)]
        # Drawing from "service" in between must not shift "eval".
        b = FaultInjector(plan)
        shifted = []
        for _ in range(20):
            b.should_fail("service")
            shifted.append(b.should_fail("eval"))
        assert interleaved == shifted

    def test_max_faults_caps_injections(self):
        injector = FaultInjector(
            FaultPlan(rates={"eval": 1.0}, max_faults=2)
        )
        fired = [injector.should_fail("eval") for _ in range(10)]
        assert fired.count(True) == 2
        assert injector.total == 2

    def test_counts_and_tracer(self):
        tracer = Tracer()
        injector = FaultInjector(
            FaultPlan(rates={"eval": 1.0}), tracer=tracer
        )
        with pytest.raises(InjectedFault):
            injector.maybe_raise("eval", "boom")
        assert injector.counts["eval"] == 1
        assert tracer.metrics()["faults_injected"] == 1


def chaotic_session(rates, fault_policy="record", budget=None, plan=None,
                    backend=None, **plan_kwargs):
    plan = plan or FaultPlan(rates=rates, **plan_kwargs)
    injector = FaultInjector(plan, tracer=Tracer())
    session = LiveSession(
        DOWNLOADING,
        host_impls=downloading_impls(),
        services=make_services(latency=0.1),
        fault_policy=fault_policy,
        budget=budget,
        chaos=injector,
        tracer=injector.tracer,
        backend=backend,
    )
    return session, injector


class TestChaosCategories:
    def test_eval_faults_are_recorded_and_session_lives(self):
        session, injector = chaotic_session(
            {"eval": 0.3}, max_faults=3
        )
        for _ in range(20):
            if injector.total >= 3:
                break
            try:
                session.tap((0,))
            except ReproError:
                # An injected *render* fault put the fault screen up
                # (no handlers); a live edit repaints past it.
                session.edit_source(DOWNLOADING)
        assert injector.counts["eval"] == 3
        faults = [
            fault for fault in session.runtime.faults
            if isinstance(fault.error, InjectedFault)
        ]
        assert len(faults) >= 1
        # The injector and the runtime agree in the shared metrics.
        metrics = session.runtime.metrics()
        assert metrics["faults_injected"] == 3

    def test_fuel_squeeze_exhausts_real_work(self):
        # rate 1.0: the squeeze fires on the very first evaluator run —
        # the boot render — and the machine itself runs out of fuel
        # mid-flight, exactly like a genuine runaway program.  The
        # squeeze is in tree-machine steps (one per node); the compiled
        # machine charges only function applications and this page
        # makes none.
        with pytest.raises(FuelExhausted):
            chaotic_session(
                {"fuel": 1.0}, fault_policy="raise", fuel_squeeze=3,
                backend="tree",
            )

    def test_fuel_squeeze_recorded_keeps_the_session_alive(self):
        session, injector = chaotic_session(
            {"fuel": 1.0}, fuel_squeeze=3, max_faults=1, backend="tree",
        )
        assert injector.counts["fuel"] == 1
        assert any(
            isinstance(fault.error, FuelExhausted)
            for fault in session.runtime.faults
        )
        # The one allowed injection is spent; a live edit repaints.
        session.edit_source(DOWNLOADING)
        assert session.runtime.contains_text("n = 0")

    def test_service_unavailable_faults_the_handler(self):
        session, injector = chaotic_session(
            {"service": 1.0}, max_faults=1
        )
        session.tap_text("n = 0")  # the handler's fetch hits the wall
        assert injector.counts["service"] == 1
        assert any(
            isinstance(fault.error, InjectedFault)
            and "service" in str(fault.error)
            for fault in session.runtime.faults
        )
        # The session survived; the handler's fetch never completed.
        assert session.runtime.contains_text("n = 0")

    def test_slow_io_blows_the_deadline(self):
        session, injector = chaotic_session(
            {"slow_io": 1.0},
            budget=Budget(deadline=1.0),
            max_faults=1,
            slow_io_seconds=30.0,
        )
        session.tap_text("n = 0")
        assert injector.counts["slow_io"] == 1
        assert any(
            isinstance(fault.error, DeadlineExceeded)
            for fault in session.runtime.faults
        )

    def test_no_rates_no_faults(self):
        session, injector = chaotic_session({})
        for _ in range(5):
            session.tap((0,))
        assert injector.total == 0
        assert session.runtime.faults == []
        assert session.runtime.contains_text("n = 3")
