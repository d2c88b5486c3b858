"""Probes: running program fragments against the live model, safely.

Section 5 sketches two futures this module implements:

* live programming "as an alternative to step-wise debuggers" is limited
  because "the code in event handlers and initialization bodies is not
  debuggable via live programming" — :func:`probe_function` runs *any*
  function (pure, render, or state) against the current model.  State
  probes execute against a **copy** of the store, reporting the writes
  and navigation events they *would* perform without committing them;
* "the use of boxed statements to produce debugging output in batch
  computations" — probing a render-effect function captures the box tree
  it builds and renders it as an off-screen screenshot.

:func:`probe_expression` is the REPL the paper's §2 compares against —
except it evaluates in the live program's context (its globals, records
and functions), so it complements the live view instead of replacing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import ast
from ..core.effects import Effect, PURE, RENDER, STATE
from ..core.errors import ReproError, TypeProblem
from ..eval.values import from_python, to_python
from ..surface import surface_ast as S
from ..surface.lexer import tokenize
from ..surface.lower import _Lowerer, _LowerScope
from ..surface.parser import _Parser
from ..surface.typecheck import _DeclChecker, _Scope
from ..system.events import EventQueue


@dataclass
class ProbeResult:
    """What a probe observed — nothing here touched the running program."""

    effect: Effect
    value: object = None            # AST value the fragment reduced to
    tree: object = None             # box tree, for render-effect probes
    store_writes: dict = field(default_factory=dict)  # name → (old, new)
    events: tuple = ()              # navigation the fragment attempted

    @property
    def python_value(self):
        """The value as Python data (None for closures/unit)."""
        if self.value is None or self.value == ast.UNIT_VALUE:
            return None
        try:
            return to_python(self.value)
        except Exception:
            return None

    def screenshot(self, width=40):
        """Render a captured box tree (render probes only)."""
        if self.tree is None:
            return ""
        from ..render.text_backend import render_text

        return render_text(self.tree, width=width)

    def describe(self):
        """One human-readable summary block."""
        lines = ["probe ran under effect '{}'".format(self.effect)]
        if self.value is not None and self.value != ast.UNIT_VALUE:
            lines.append("value : {}".format(self.python_value))
        for name, (old, new) in self.store_writes.items():
            lines.append(
                "would set {} : {} → {}".format(
                    name,
                    "unset" if old is None else to_python(old),
                    to_python(new),
                )
            )
        for event in self.events:
            lines.append("would enqueue {}".format(event))
        if self.tree is not None:
            lines.append("boxes built: {}".format(self.tree.count_boxes()))
        return "\n".join(lines)


def _run_probe(session, expr, effect):
    """Evaluate core ``expr`` under ``effect`` against a store copy."""
    system = session.runtime.system
    store = system.state.store.copy()
    before = dict(store.items())
    queue = EventQueue()
    # A probe runs on the session's configured evaluator backend — a
    # private instance, so probing can never disturb the live system's
    # evaluator (or its memo view).
    machine = system.backend.compile(
        system.code, natives=system.natives, services=system.services
    )
    result = ProbeResult(effect=effect)
    if effect is RENDER:
        result.tree = machine.run_render(store, expr)
        result.value = ast.UNIT_VALUE
    elif effect is STATE:
        result.value = machine.run_state(store, queue, expr)
    else:
        result.value = machine.run_pure(store, expr)
    after = dict(store.items())
    result.store_writes = {
        name: (before.get(name), value)
        for name, value in after.items()
        if before.get(name) != value
    }
    result.events = queue.events()
    return result


def probe_function(session, name, *py_args):
    """Run function ``name`` of the live program with Python arguments.

    The function's inferred effect decides the probe mode; arguments are
    converted at the declared parameter types (records as tuples).
    """
    env = session.compiled.env
    sig = env.funs.get(name)
    if sig is None:
        raise ReproError("the program has no function '{}'".format(name))
    if len(py_args) != len(sig.param_stypes):
        raise ReproError(
            "'{}' takes {} argument(s), got {}".format(
                name, len(sig.param_stypes), len(py_args)
            )
        )
    records = env.records
    args = tuple(
        from_python(arg, stype.to_core(records))
        for arg, stype in zip(py_args, sig.param_stypes)
    )
    expr = ast.App(ast.FunRef(name), ast.Tuple(args))
    return _run_probe(session, expr, sig.effect or PURE)


def probe_expression(session, text):
    """Evaluate a surface *expression* in the live program's context.

    The expression may reference globals, call functions/externs/builtins
    and construct records.  Its effect is inferred (the least of p/s/r it
    checks under); state effects run against a store copy.
    """
    tokens = tokenize(text)
    parser = _Parser(tokens)
    surface_expr = parser._parse_expr()
    remaining = parser._peek()
    if remaining.kind not in ("NEWLINE", "EOF"):
        raise ReproError(
            "unexpected trailing input in probe: {}".format(remaining)
        )
    env = session.compiled.env
    checker = _DeclChecker(env)
    last_problem = None
    for effect in (PURE, STATE, RENDER):
        try:
            checker.check_expr(surface_expr, _Scope(), effect)
            break
        except TypeProblem as problem:
            last_problem = problem
    else:
        raise last_problem
    lowerer = _Lowerer(env, "probe")
    core_expr = lowerer.lower_expr(surface_expr, _LowerScope(), effect)
    if lowerer.generated:  # defensive: expressions cannot contain loops
        raise ReproError("probe expressions cannot generate functions")
    return _run_probe(session, core_expr, effect)
