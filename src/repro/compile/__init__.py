"""Closure compilation of the core calculus — the production evaluator.

The paper's relations (Figs. 6–9) are implemented twice in
:mod:`repro.eval.machine` — the faithful small-stepper (the oracle) and
the CEK machine — and both *walk the AST on every run*.  This package
lowers a code version **once per process** to nested Python closures,
shared by every session running it: one compiled thunk per
declaration/function body, variables resolved to integer indices into a
flat environment list at compile time, and global reads/writes resolved
to integer *slots* into a per-run cache over the authoritative
:class:`~repro.system.state.Store` (whose write versions let memo probes
reuse a cached read-values key, unchanged).  Non-tail recursion
runs on an explicit stack (:mod:`repro.compile.calls`).

:class:`Compiled` satisfies the same evaluator protocol the system
transitions consume (``run_state`` / ``run_render`` / ``run_pure``) and
is behaviourally indistinguishable from the tree machines: byte-identical
renders, identical faults (fuel via the shared
:meth:`~repro.resilience.supervisor.Budget.charge`), identical
journal/provenance events — asserted by the differential hypothesis
suite in ``tests/compile/``.  It is the default backend (see
:mod:`repro.eval.backends`); ``backend="tree"`` selects the CEK machine.
"""

from .machine import Compiled

__all__ = ["Compiled"]
