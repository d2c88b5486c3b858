"""Deterministic fault injection — the chaos harness.

Recovery code that is never exercised does not work.  This module makes
the failure paths *testable*: a seeded :class:`FaultPlan` decides, fully
deterministically, which invocations of which **injection points**
fail, and thin wrappers put those points where faults really originate:

* :class:`ChaosServices` — the host-services boundary: ``get`` may
  raise (service unavailable → :class:`~repro.core.errors.InjectedFault`,
  an :class:`~repro.core.errors.EvalError`) or charge extra virtual
  latency first (slow I/O — which trips a
  :class:`~repro.resilience.supervisor.Budget` deadline);
* :class:`ChaosEvaluator` — wraps either eval machine: a run may raise
  an injected :class:`~repro.core.errors.EvalError` outright or be
  handed a squeezed fuel allowance
  (→ :class:`~repro.core.errors.FuelExhausted`);
* the HTTP layer (``repro.serve.app``) asks the injector before
  dispatching a request and answers a *typed* 503 instead of serving —
  never an untyped 500;
* :func:`truncate_journal` — chops bytes off a write-ahead journal the
  way a crash mid-append would, so recovery tests prove the reader
  tolerates a torn tail.

Determinism: every injection point draws from its own
``random.Random("{seed}:{point}")`` stream (string seeds hash through
SHA-512, stable across processes), so two runs with the same plan and
the same per-point call sequence inject byte-identical faults — chaos
tests are ordinary reproducible tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.errors import InjectedFault, ReproError
from ..obs.trace import NULL_TRACER

#: The named injection points wrappers consult.
POINTS = (
    "eval",       # handler/render evaluation raises InjectedFault
    "fuel",       # evaluation runs under a squeezed fuel allowance
    "service",    # Services.get raises (substrate unavailable)
    "slow_io",    # Services.get charges extra virtual latency first
    "http",       # the HTTP layer refuses the request with a typed 503
)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded recipe for *which* faults to inject *how often*.

    ``rates`` maps injection-point names (:data:`POINTS`) to failure
    probabilities in ``[0, 1]``; unlisted points never fire.
    ``fuel_squeeze`` is the tiny fuel allowance a fired ``"fuel"``
    injection imposes; ``slow_io_seconds`` is the virtual latency a
    fired ``"slow_io"`` injection charges; ``max_faults`` optionally
    caps the total injections (handy for "exactly one fault" tests).
    """

    seed: int = 20130616
    rates: dict = field(default_factory=dict)
    fuel_squeeze: int = 25
    slow_io_seconds: float = 30.0
    max_faults: int = None

    def __post_init__(self):
        for point, rate in self.rates.items():
            if point not in POINTS:
                raise ReproError(
                    "unknown injection point {!r}; known: {}".format(
                        point, ", ".join(POINTS)
                    )
                )
            if not 0.0 <= rate <= 1.0:
                raise ReproError(
                    "rate for {!r} must be in [0, 1]".format(point)
                )


class FaultInjector:
    """Draws deterministic fault decisions from a :class:`FaultPlan`.

    One injector is shared by every wrapper of one system-under-chaos;
    ``counts`` records fired injections per point and the shared tracer
    accumulates the ``faults_injected`` counter.
    """

    def __init__(self, plan, tracer=None):
        self.plan = plan
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.counts = dict.fromkeys(POINTS, 0)
        self._streams = {
            point: random.Random("{}:{}".format(plan.seed, point))
            for point in POINTS
        }

    @property
    def total(self):
        return sum(self.counts.values())

    def should_fail(self, point):
        """Deterministically decide whether this invocation faults."""
        rate = self.plan.rates.get(point, 0.0)
        if rate <= 0.0:
            return False
        if (self.plan.max_faults is not None
                and self.total >= self.plan.max_faults):
            return False
        # Draw even when the decision is forced (rate >= 1) so the
        # stream position only depends on the call sequence.
        fired = self._streams[point].random() < rate
        if fired:
            self.counts[point] += 1
            self.tracer.add("faults_injected")
        return fired

    def maybe_raise(self, point, message):
        if self.should_fail(point):
            raise InjectedFault(
                "injected fault at {}: {}".format(point, message)
            )


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


class ChaosServices:
    """A :class:`~repro.system.services.Services` front that can fail.

    ``get`` — the only call natives make on the way to a substrate —
    first may charge ``slow_io_seconds`` of virtual latency (a slow
    download), then may refuse outright (the substrate is "down").
    Everything else delegates, so the wrapper is drop-in wherever a
    ``Services`` is expected.
    """

    def __init__(self, services, injector):
        self._services = services
        self._injector = injector

    @property
    def clock(self):
        return self._services.clock

    def provide(self, name, substrate):
        return self._services.provide(name, substrate)

    def get(self, name):
        if self._injector.should_fail("slow_io"):
            self.clock.advance(self._injector.plan.slow_io_seconds)
        self._injector.maybe_raise(
            "service", "service {!r} unavailable".format(name)
        )
        return self._services.get(name)

    def has(self, name):
        return self._services.has(name)

    def names(self):
        return self._services.names()


class ChaosEvaluator:
    """Wraps an evaluator (``Compiled``, ``BigStep`` or ``SmallStep``).

    Satisfies the evaluator protocol ``system.transitions`` consumes
    (``run_state`` / ``run_render`` / ``run_pure``).  A fired ``"eval"``
    injection raises before the machine starts; a fired ``"fuel"``
    injection squeezes the run's fuel so the machine itself raises
    :class:`~repro.core.errors.FuelExhausted` mid-flight — partial
    store effects and all, exactly like a genuine runaway handler.
    """

    def __init__(self, evaluator, injector):
        self._evaluator = evaluator
        self._injector = injector

    def _fuel(self, fuel):
        if self._injector.should_fail("fuel"):
            return min(fuel, self._injector.plan.fuel_squeeze)
        return fuel

    def run_state(self, store, queue, expr, **kwargs):
        self._injector.maybe_raise("eval", "event handler")
        kwargs["fuel"] = self._fuel(
            kwargs.get("fuel", _default_fuel())
        )
        return self._evaluator.run_state(store, queue, expr, **kwargs)

    def run_render(self, store, expr, **kwargs):
        self._injector.maybe_raise("eval", "render")
        kwargs["fuel"] = self._fuel(
            kwargs.get("fuel", _default_fuel())
        )
        return self._evaluator.run_render(store, expr, **kwargs)

    def run_pure(self, store, expr, **kwargs):
        self._injector.maybe_raise("eval", "pure evaluation")
        kwargs["fuel"] = self._fuel(
            kwargs.get("fuel", _default_fuel())
        )
        return self._evaluator.run_pure(store, expr, **kwargs)

    def __getattr__(self, name):
        # Anything beyond the protocol (memo inspection in tests, …).
        return getattr(self._evaluator, name)


def _default_fuel():
    from ..eval.machine import DEFAULT_FUEL

    return DEFAULT_FUEL


def truncate_journal(path, drop_bytes=16):
    """Tear the tail off a journal file, as a crash mid-append would.

    Returns the number of bytes actually dropped.  Recovery must treat
    the torn trailing line as never written (the write was not
    acknowledged) and replay everything before it.
    """
    import os

    size = os.path.getsize(path)
    dropped = min(drop_bytes, size)
    with open(path, "ab") as handle:
        handle.truncate(size - dropped)
    return dropped
