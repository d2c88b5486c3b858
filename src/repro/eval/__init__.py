"""Expression evaluation (Fig. 8): the machines behind the backend API.

The supported way to pick an evaluator is the backend layer
(:mod:`repro.eval.backends`): ``resolve_backend("tree"|"compiled")``
gives an :class:`EvalBackend` whose ``compile`` hook builds the machine
for one code version.  The machine classes themselves remain importable
for direct use (tests, metatheory, the faithful oracle).
"""

from .backends import (
    BACKENDS,
    CompiledBackend,
    EvalBackend,
    TreeBackend,
    resolve_backend,
)
from .contexts import context_depth, decompose, plug, redex_of
from .machine import (
    BigStep,
    DEFAULT_FUEL,
    SmallStep,
)
from .natives import (
    EMPTY_NATIVES,
    NativeTable,
    apply_prim,
    operator_signature,
)
from .values import (
    bool_value,
    check_value,
    format_for_post,
    from_python,
    to_python,
    truthy,
    value_type,
)

__all__ = [name for name in dir() if not name.startswith("_")]
