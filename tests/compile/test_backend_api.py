"""The pluggable evaluator API: resolution, threading, and lifecycles."""


import pytest

from repro.apps.counter import SOURCE as COUNTER
from repro.core.errors import ReproError
from repro.eval.backends import (
    BACKENDS,
    CompiledBackend,
    EvalBackend,
    TreeBackend,
    resolve_backend,
)
from repro.render.html_backend import render_html
from repro.surface.compile import compile_source
from repro.system.transitions import System


class TestResolveBackend:
    def test_none_is_the_compiled_default(self):
        assert resolve_backend(None) is BACKENDS["compiled"]
        assert resolve_backend(None).name == "compiled"

    def test_names_resolve_to_the_registry_singletons(self):
        assert isinstance(resolve_backend("tree"), TreeBackend)
        assert isinstance(resolve_backend("compiled"), CompiledBackend)

    def test_unknown_name_is_a_typed_error(self):
        with pytest.raises(ReproError) as caught:
            resolve_backend("jit")
        assert "unknown eval backend" in str(caught.value)
        assert "compiled" in str(caught.value)
        assert "tree" in str(caught.value)

    def test_instances_pass_through(self):
        backend = CompiledBackend()
        assert resolve_backend(backend) is backend

    def test_duck_typed_backends_pass_through(self):
        class Custom:
            def compile(self, code, **kwargs):
                raise NotImplementedError

        custom = Custom()
        assert resolve_backend(custom) is custom

    def test_non_backends_are_rejected(self):
        with pytest.raises(ReproError):
            resolve_backend(42)


class TestSystemIntegration:
    def test_default_backend_is_compiled(self):
        from repro.compile import Compiled

        code = compile_source(COUNTER).code
        system = System(code)
        assert system.backend_name == "compiled"
        assert isinstance(system._evaluator, Compiled)

    def test_compiled_backend_builds_a_compiled_evaluator(self):
        from repro.compile import Compiled

        code = compile_source(COUNTER).code
        system = System(code, backend="compiled")
        assert system.backend_name == "compiled"
        assert isinstance(system._evaluator, Compiled)

    def test_faithful_pins_the_small_step_machine(self):
        from repro.eval.machine import SmallStep

        code = compile_source(COUNTER).code
        for backend in (None, "compiled", "tree"):
            system = System(code, faithful=True, backend=backend)
            assert isinstance(system._evaluator, SmallStep)
            system.run_to_stable()
            assert "count: 0" in render_html(system.display)

    def test_faithful_still_works_on_the_tree_backend(self):
        code = compile_source(COUNTER).code
        system = System(code, faithful=True, backend="tree")
        system.run_to_stable()
        assert "count: 0" in render_html(system.display)

    def test_update_keeps_the_shared_unit(self):
        code = compile_source(COUNTER).code
        edited = System(code, backend="compiled")
        other = System(code, backend="compiled")
        shared = other._evaluator.unit
        assert edited._evaluator.unit is shared
        edited.update(compile_source(
            COUNTER.replace('"reset"', '"zero"')
        ).code)
        edited.run_to_stable()
        assert edited._evaluator.unit is not shared
        # The outgoing version's unit is untouched: the other session
        # still runs it.
        assert shared._dyn_units  # its precompiled page units
        other.run_to_stable()
        assert "reset" in render_html(other.display)
        assert "zero" in render_html(edited.display)

    def test_update_keeps_the_backend(self):
        code = compile_source(COUNTER).code
        system = System(code, backend="compiled")
        system.run_to_stable()
        system.update(compile_source(
            COUNTER.replace('"reset"', '"zero"')
        ).code)
        system.run_to_stable()
        from repro.compile import Compiled

        assert isinstance(system._evaluator, Compiled)
        assert "zero" in render_html(system.display)


class TestApiThreading:
    def test_live_session_backend_is_keyword_only(self):
        from repro.api import LiveSession

        session = LiveSession(COUNTER, backend="compiled")
        assert session.runtime.system.backend_name == "compiled"
        with pytest.raises(TypeError):
            LiveSession(COUNTER, None, backend="compiled")

    def test_runtime_accepts_backend(self):
        from repro.api import Runtime

        code = compile_source(COUNTER).code
        runtime = Runtime(code, backend="compiled").start()
        assert runtime.system.backend_name == "compiled"
        assert "count: 0" in render_html(runtime.display)

    def test_session_host_backend_reaches_every_session(self):
        from repro.api import SessionHost

        host = SessionHost(
            pool_size=2, default_source=COUNTER,
            session_kwargs={"backend": "compiled"},
        )
        token = host.create()
        session = host._entries[token].session
        assert session.runtime.system.backend_name == "compiled"


class TestEvalFacade:
    def test_backend_names_export_eagerly(self):
        import repro.eval as eval_pkg

        assert eval_pkg.resolve_backend is resolve_backend
        assert eval_pkg.EvalBackend is EvalBackend
        assert eval_pkg.BACKENDS is BACKENDS

    def test_make_evaluator_is_gone(self):
        import repro.eval as eval_pkg

        with pytest.raises(AttributeError):
            eval_pkg.make_evaluator
        assert "make_evaluator" not in eval_pkg.__all__

    def test_unknown_attribute_still_raises(self):
        import repro.eval as eval_pkg

        with pytest.raises(AttributeError):
            eval_pkg.no_such_machine


class TestCli:
    def test_run_backend_flag(self, tmp_path):
        import io

        from repro.cli import main

        app = tmp_path / "counter.rp"
        app.write_text(COUNTER)
        outputs = {}
        for backend in ("tree", "compiled"):
            out = io.StringIO()
            assert main(
                [
                    "run", str(app), "--backend", backend,
                    "--tap", "count: 0",
                ],
                out=out,
            ) == 0
            outputs[backend] = out.getvalue()
        assert "count: 1" in outputs["compiled"]
        assert outputs["tree"] == outputs["compiled"]

    def test_unknown_backend_is_a_usage_error(self, tmp_path):
        import io

        from repro.cli import main

        app = tmp_path / "counter.rp"
        app.write_text(COUNTER)
        with pytest.raises(SystemExit):
            main(["run", str(app), "--backend", "jit"], out=io.StringIO())
