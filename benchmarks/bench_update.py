"""E6 — UPDATE transition cost (Fig. 9 + Fig. 12).

An update re-checks the incoming program (``C' ⊢ C'``) and fixes up the
store and page stack by re-typing every entry.  We sweep the store size
and the stack depth to confirm the fix-up is linear, and measure the
end-to-end update+re-render on the mortgage app — the latency a
programmer feels per accepted keystroke.

Expected shape: fix-up cost linear in |S| + |P|; whole-update cost
dominated by ``C' ⊢ C'`` for small stores.
"""

import pytest

from repro.apps.mortgage import BASE_SOURCE, apply_i2, compile_mortgage
from repro.core import ast
from repro.core.types import NUMBER
from repro.stdlib.web import make_services
from repro.surface.compile import compile_source
from repro.system.fixup import fixup_stack, fixup_store
from repro.system.runtime import Runtime
from repro.system.state import PageStack, Store


def _wide_program(globals_count):
    lines = [
        "global g{} : number = {}".format(index, index)
        for index in range(globals_count)
    ]
    lines += ["page start()", "  render", "    post g0", ""]
    return compile_source("\n".join(lines))


@pytest.mark.parametrize(
    "entries", (8, 64, 512), ids=lambda n: "store={}".format(n)
)
def test_store_fixup_scales_linearly(benchmark, obs_records, entries):
    compiled = _wide_program(entries)
    store = Store()
    for index in range(entries):
        store.assign("g{}".format(index), ast.Num(index))

    _fixed, report = benchmark(lambda: fixup_store(compiled.code, store))
    obs_records.emit_benchmark(
        "update/store_fixup", benchmark, entries=entries
    )
    assert report.clean


@pytest.mark.parametrize(
    "depth", (4, 32, 256), ids=lambda n: "stack={}".format(n)
)
def test_stack_fixup_scales_linearly(benchmark, obs_records, depth):
    compiled = compile_source(
        "page start()\n  render\n    post 1\n"
        "page detail(n : number)\n  render\n    post n\n"
    )
    stack = PageStack()
    stack.push("start", ast.UNIT_VALUE)
    for level in range(depth - 1):
        # Surface pages take argument *tuples* (Fig. 6's calling convention).
        stack.push("detail", ast.Tuple((ast.Num(level),)))

    _fixed, report = benchmark(lambda: fixup_stack(compiled.code, stack))
    obs_records.emit_benchmark("update/stack_fixup", benchmark, depth=depth)
    assert report.clean


def test_full_update_and_rerender_mortgage(benchmark, obs_records):
    """What one accepted live edit costs end to end (no compile)."""
    base = compile_mortgage()
    edited = compile_mortgage(apply_i2(BASE_SOURCE))
    runtime = Runtime(
        base.code, natives=base.natives, services=make_services(),
        backend="tree",
    ).start()
    versions = [(edited.code, edited.natives), (base.code, base.natives)]

    def update():
        code, natives = versions[0]
        versions.reverse()
        runtime.update_code(code, natives=natives)

    benchmark(update)
    obs_records.emit_benchmark("update/full_update_rerender", benchmark)
