"""E4 — the continuous-compile budget (Section 3).

    "the program is continuously being type-checked, compiled, and
    executed as the programmer edits"

Every keystroke re-runs parse → typecheck → lower → core check, so the
whole pipeline must fit in an interactive budget.  We measure it on the
real example apps and on synthetically grown programs.

Expected shape: cost grows roughly linearly with program size; the
mortgage app (the paper's running example) compiles in a small fraction
of a second — the live-editing experience is compile-bound, not
render-bound.
"""

import pytest

from repro.apps.counter import SOURCE as COUNTER
from repro.apps.mortgage import BASE_SOURCE as MORTGAGE
from repro.apps.shopping import SOURCE as SHOPPING
from repro.surface.compile import compile_source
from repro.surface.parser import parse
from repro.surface.typecheck import typecheck

APPS = {
    "counter": (COUNTER, None),
    "shopping": (SHOPPING, None),
    "mortgage": (MORTGAGE, "mortgage"),
}


def _host_impls(marker):
    if marker == "mortgage":
        from repro.apps.mortgage import host_impls

        return host_impls()
    return None


@pytest.mark.parametrize("app", sorted(APPS), ids=sorted(APPS))
def test_full_compile_pipeline(benchmark, app):
    source, marker = APPS[app]
    impls = _host_impls(marker)
    compiled = benchmark(lambda: compile_source(source, impls))
    benchmark.extra_info["source_lines"] = source.count("\n")
    assert compiled.code.page("start") is not None


@pytest.mark.parametrize("pages", (2, 8, 32), ids=lambda p: "pages={}".format(p))
def test_compile_scales_with_program_size(benchmark, pages):
    """Synthetic growth: N near-identical pages + helper functions."""
    parts = [
        "global total : number = 0",
        "page start()",
        "  render",
        "    post total",
    ]
    for index in range(pages):
        parts += [
            "fun helper{i}(x : number) : number".format(i=index),
            "  var y := x",
            "  for j = 1 to 3 do",
            "    y := y + j",
            "  return y",
            "page page{i}()".format(i=index),
            "  render",
            "    for i = 1 to 4 do",
            "      boxed",
            "        post helper{i}(i)".format(i=index),
        ]
    source = "\n".join(parts) + "\n"
    benchmark(lambda: compile_source(source))
    benchmark.extra_info["source_lines"] = source.count("\n")


def test_parse_and_check_only(benchmark):
    """The checker alone (what runs on keystrokes that don't compile)."""
    benchmark(lambda: typecheck(parse(MORTGAGE)))
