"""Fault tolerance for live sessions (``repro.resilience``).

Three cooperating layers keep the live-programming promise — the system
*never dies under you* — honest at server scale:

* **supervision** (:mod:`.supervisor`) — per-transition
  :class:`~repro.resilience.supervisor.Budget` limits (fuel +
  virtual-clock deadline) and a
  :class:`~repro.resilience.supervisor.Supervisor` that rolls a
  faulting code UPDATE back to the last-good program;
* **durability** (:mod:`.journal`) — a write-ahead
  :class:`~repro.resilience.journal.Journal` of every state-changing
  request plus periodic image checkpoints, and
  :func:`~repro.resilience.journal.recover`, which rebuilds every
  session byte-identically after a crash;
* **chaos** (:mod:`.chaos`) — a seeded, deterministic
  :class:`~repro.resilience.chaos.FaultPlan` /
  :class:`~repro.resilience.chaos.FaultInjector` pair and wrappers
  that make services, evaluators and the HTTP layer fail on demand, so
  the failure paths above are *proved* by tests, not assumed.

See ``docs/RESILIENCE.md`` for the policy walkthrough.
"""

from .chaos import (
    ChaosEvaluator,
    ChaosServices,
    FaultInjector,
    FaultPlan,
    POINTS,
    truncate_journal,
)
from .journal import (
    RecoveryReport,
    decode_batch_events,
    encode_batch_events,
    recover,
)
from .supervisor import Budget, Supervisor, UNLIMITED, UpdateOutcome

__all__ = [
    "Budget",
    "ChaosEvaluator",
    "ChaosServices",
    "FaultInjector",
    "FaultPlan",
    "POINTS",
    "RecoveryReport",
    "Supervisor",
    "UNLIMITED",
    "UpdateOutcome",
    "decode_batch_events",
    "encode_batch_events",
    "recover",
    "truncate_journal",
]
