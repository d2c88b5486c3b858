"""``repro.incremental`` — the update-surviving incremental render engine.

The §5 self-adjusting-computation sketch, taken past a single code
version: :mod:`repro.eval.memo` proves a render call is a pure function
of ``(argument, read-set values)``, but the UPDATE transition used to
swap in a fresh machine and drop the whole cache — so the hottest live
loop (edit → re-render, the latency the paper is about) always paid a
cold render.  This package supplies the two pieces that let memo entries
outlive UPDATE:

* :mod:`repro.incremental.digest` — per-function **code digests**: a
  hash of the definition body closed over its transitive ``FunRef``\\ s,
  alpha-normalized so compiler-generated fresh names don't shift it.
  Keying entries by ``(digest, argument)`` instead of machine identity
  makes "this function's code did not change" a dictionary lookup.
* :mod:`repro.incremental.store` — the :class:`MemoStore`, a bounded
  LRU of entries keyed by call and read-set values that the
  :class:`~repro.system.transitions.System` threads through UPDATE.

An entry survives an update and replays without re-execution exactly
when its function's digest is unchanged **and** the values its read set
holds now are the ones it was produced from — the rule ``docs/PERF.md``
spells out.
"""

from .digest import code_digests, function_canon
from .store import MemoEntry, MemoStore, ReadValues

__all__ = [
    "MemoEntry",
    "MemoStore",
    "ReadValues",
    "code_digests",
    "function_canon",
]
