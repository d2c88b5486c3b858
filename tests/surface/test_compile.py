"""The end-to-end compile pipeline, including the extern FFI binding."""

import pytest

from repro.core.errors import ReproError, SyntaxProblem, TypeProblem
from repro.surface.compile import compile_source
from repro.system.runtime import Runtime
from repro.system.services import Services

COUNTER = (
    "global n : number = 0\n"
    "page start()\n  render\n    boxed\n      post n\n"
    "      on tap do\n        n := n + 1\n"
)


class TestPipeline:
    def test_compiled_program_fields(self):
        compiled = compile_source(COUNTER)
        assert compiled.source == COUNTER
        assert compiled.code.page("start") is not None
        assert len(compiled.sourcemap) == 1
        assert compiled.generated_functions == ()

    def test_syntax_errors_propagate(self):
        with pytest.raises(SyntaxProblem):
            compile_source("page start(\n")

    def test_type_errors_propagate_with_spans(self):
        with pytest.raises(TypeProblem) as caught:
            compile_source(
                "global g : number = 0\n"
                "page start()\n  render\n    g := 1\n"
            )
        assert caught.value.span is not None
        assert caught.value.span.start.line == 4

    def test_compiles_of_one_source_are_interned(self):
        first = compile_source(COUNTER)
        second = compile_source(COUNTER)
        assert first is second
        assert compile_source(COUNTER, {"x": lambda services: 0}) is not first


class TestExterns:
    SOURCE = (
        "extern fun roll() : number is state\n"
        "global last : number = 0\n"
        "page start()\n  render\n    boxed\n      post last\n"
        "      on tap do\n        last := roll()\n"
    )

    def test_bound_extern_runs(self):
        compiled = compile_source(
            self.SOURCE, {"roll": lambda services: 4.0}
        )
        runtime = Runtime(
            compiled.code, natives=compiled.natives, services=Services()
        ).start()
        runtime.tap_text("0")
        assert runtime.all_texts() == ["4"]

    def test_missing_implementation_rejected(self):
        with pytest.raises(TypeProblem) as caught:
            compile_source(self.SOURCE)
        assert "roll" in str(caught.value)

    def test_extra_implementations_ignored(self):
        compiled = compile_source(
            self.SOURCE,
            {"roll": lambda s: 1.0, "unused": lambda s: 2.0},
        )
        assert compiled.natives.signature("unused") is None

    def test_extern_result_conversion_checked(self):
        compiled = compile_source(
            self.SOURCE, {"roll": lambda services: "not a number"}
        )
        runtime = Runtime(
            compiled.code, natives=compiled.natives, services=Services()
        ).start()
        from repro.core.errors import EvalError

        with pytest.raises(EvalError):
            runtime.tap_text("0")
