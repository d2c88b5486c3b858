"""Ablations for the design choices DESIGN.md §5 calls out.

* **The one core check** — every compile derives ``C ⊢ C`` on the
  lowered core once (catching lowering bugs loudly; the system reuses
  the verdict).  What does that check cost per keystroke?
* **Faithful small-step vs CEK** — the small-step machine re-decomposes
  the evaluation context on every step (O(depth) per step); the CEK
  machine is one pass.  How does the tax scale with work size?
* **UPDATE premise check** — the ``C' ⊢ C'`` premise typechecks the
  whole program when UPDATE meets a code version no check has seen
  (hand-built code); how much of the update cost is it?
"""

import pytest

from repro.apps.mortgage import BASE_SOURCE, compile_mortgage, host_impls
from repro.core import ast
from repro.core.defs import Code, FunDef
from repro.core.effects import PURE
from repro.core.types import NUMBER, fun
from repro.eval.machine import BigStep, SmallStep
from repro.stdlib.web import make_services
from repro.surface.compile import compile_source
from repro.system.runtime import Runtime
from repro.system.state import Store
from repro.typing.program import code_problems


def test_compile_cost(benchmark):
    """The whole pipeline, its one core check included."""
    benchmark(lambda: compile_source(BASE_SOURCE, host_impls()))


def test_core_check_cost(benchmark):
    """The core check alone, on the lowered mortgage program."""
    compiled = compile_source(BASE_SOURCE, host_impls())
    benchmark(lambda: code_problems(compiled.code, compiled.natives))


def _summing_code():
    body = ast.Lam(
        "n",
        NUMBER,
        ast.If(
            ast.Prim("le", (ast.Var("n"), ast.Num(0))),
            ast.Num(0),
            ast.Prim(
                "add",
                (
                    ast.Var("n"),
                    ast.App(
                        ast.FunRef("sum"),
                        ast.Prim("sub", (ast.Var("n"), ast.Num(1))),
                    ),
                ),
            ),
        ),
        PURE,
    )
    from helpers import page_code

    return page_code(
        ast.UNIT_VALUE,
        extra_defs=[FunDef("sum", fun(NUMBER, NUMBER, PURE), body)],
    )


@pytest.mark.parametrize("n", (20, 80), ids=lambda n: "n={}".format(n))
@pytest.mark.parametrize(
    "machine_cls", (BigStep, SmallStep), ids=("cek", "small-step")
)
def test_machine_tax_scaling(benchmark, machine_cls, n):
    """sum(n) by recursion: the small-step tax grows with term size."""
    code = _summing_code()
    machine = machine_cls(code)
    expr = ast.App(ast.FunRef("sum"), ast.Num(n))
    result = benchmark(lambda: machine.run_pure(Store(), expr))
    assert result == ast.Num(n * (n + 1) / 2)


@pytest.mark.parametrize(
    "check_updates", (True, False), ids=("premise=on", "premise=off")
)
def test_update_premise_cost(benchmark, check_updates):
    """How much of an UPDATE is the C' ⊢ C' premise?"""
    compiled = compile_mortgage()
    runtime = Runtime(
        compiled.code, natives=compiled.natives, services=make_services()
    ).start()
    runtime.system.check_updates = check_updates

    def update():
        # A fresh ``Code`` value carries no verdict, so the premise runs.
        runtime.update_code(Code(compiled.code), natives=compiled.natives)

    benchmark(update)
